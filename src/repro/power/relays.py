"""Relay and switch-network models.

Each battery cabinet is managed by a pair of relays — a charging switch and
a discharging switch — mirroring the prototype's six IDEC RR2P 24 V DC
relays.  The relays have finite switching time (25 ms) and a rated
mechanical life (10 M cycles); the switch network enforces that a cabinet
is never simultaneously on the charge and discharge bus.
"""

from __future__ import annotations


class RelayError(RuntimeError):
    """Raised on electrically unsafe switching requests."""


class Relay:
    """A single relay contact.

    Parameters
    ----------
    name:
        Identifier, e.g. ``"battery-1.charge"``.
    switching_time_s:
        Contact travel time; state changes are counted as actuations.
    rated_cycles:
        Mechanical life in actuation cycles.
    """

    def __init__(
        self,
        name: str,
        switching_time_s: float = 0.025,
        rated_cycles: int = 10_000_000,
    ) -> None:
        if switching_time_s < 0:
            raise ValueError("switching_time_s must be non-negative")
        if rated_cycles <= 0:
            raise ValueError("rated_cycles must be positive")
        self.name = name
        self.switching_time_s = switching_time_s
        self.rated_cycles = rated_cycles
        self.closed = False
        self.cycles = 0
        #: Fault injection: a stuck contact ignores coil commands.
        self.stuck = False

    def set(self, closed: bool) -> bool:
        """Drive the coil; returns True if the contact state changed."""
        if self.stuck or closed == self.closed:
            return False
        self.closed = closed
        self.cycles += 1
        return True

    def force_stick(self) -> None:
        """Inject a mechanical fault: the contact freezes in place."""
        self.stuck = True


class RelayPair:
    """The charge/discharge relay pair guarding one battery cabinet."""

    def __init__(self, battery_name: str) -> None:
        self.battery_name = battery_name
        self.charge = Relay(f"{battery_name}.charge")
        self.discharge = Relay(f"{battery_name}.discharge")

    def to_offline(self) -> int:
        """Open both contacts; returns actuation count."""
        return int(self.charge.set(False)) + int(self.discharge.set(False))

    def to_charging(self) -> int:
        """Connect to the charge bus only."""
        actuations = int(self.discharge.set(False))
        actuations += int(self.charge.set(True))
        return actuations

    def to_load(self) -> int:
        """Connect to the load (discharge) bus only."""
        actuations = int(self.charge.set(False))
        actuations += int(self.discharge.set(True))
        return actuations

    def validate(self) -> None:
        if self.charge.closed and self.discharge.closed:
            raise RelayError(
                f"{self.battery_name}: charge and discharge relays both closed"
            )

    @property
    def state(self) -> str:
        if self.charge.closed:
            return "charging"
        if self.discharge.closed:
            return "load"
        return "offline"


class SwitchNetwork:
    """All relay pairs plus actuation accounting.

    The network is the PLC's actuator: controllers request per-cabinet bus
    attachments and the network performs (and counts) the relay actuations;
    ``switch_operations`` is Table 6's "Power Ctrl. Times".

    :meth:`on_bus` hands out name tuples scanned from the contacts once and
    kept until :meth:`attach` moves a contact, the only way they move.
    """

    def __init__(self, battery_names: list[str]) -> None:
        if not battery_names:
            raise ValueError("need at least one battery")
        self.pairs = {name: RelayPair(name) for name in battery_names}
        self.total_actuations = 0
        #: Number of controller-visible switching operations (a mode change
        #: for one cabinet counts once, however many contacts moved).
        self.switch_operations = 0
        #: bus -> names of the cabinets on it; None once a contact moved.
        self._buses: dict[str, tuple[str, ...]] | None = None

    def attach(self, battery_name: str, bus: str) -> int:
        """Attach ``battery_name`` to ``bus`` in {"offline","charge","load"}.

        Returns the number of relay actuations performed.
        """
        pair = self._pair(battery_name)
        if bus == "offline":
            actuations = pair.to_offline()
        elif bus == "charge":
            actuations = pair.to_charging()
        elif bus == "load":
            actuations = pair.to_load()
        else:
            raise ValueError(f"unknown bus {bus!r}")
        if actuations:
            # Before validating: a refused bridge has already moved a contact.
            self._buses = None
        pair.validate()
        if actuations:
            self.total_actuations += actuations
            self.switch_operations += 1
        return actuations

    def state_of(self, battery_name: str) -> str:
        return self._pair(battery_name).state

    def on_bus(self, bus: str) -> tuple[str, ...]:
        """Names of cabinets currently attached to ``bus``."""
        buses = self._buses
        if buses is None:
            buses = self._buses = self._scan_buses()
        try:
            return buses[bus]
        except KeyError:
            raise ValueError(f"unknown bus {bus!r}") from None

    def _scan_buses(self) -> dict[str, tuple[str, ...]]:
        # RelayPair.state per cabinet: the charge contact wins.
        pairs = self.pairs.items()
        return {
            "charge": tuple(n for n, p in pairs if p.charge.closed),
            "load": tuple(n for n, p in pairs if p.discharge.closed and not p.charge.closed),
            "offline": tuple(n for n, p in pairs
                             if not p.charge.closed and not p.discharge.closed),
        }

    def _pair(self, battery_name: str) -> RelayPair:
        try:
            return self.pairs[battery_name]
        except KeyError:
            raise KeyError(f"no relay pair for {battery_name!r}") from None
