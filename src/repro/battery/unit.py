"""One switchable battery cabinet.

A :class:`BatteryUnit` couples the KiBaM charge state, the terminal-voltage
model, the charge-acceptance model and the wear counter, and carries the
operating mode of Figure 7 of the paper (Offline / Charging / Standby /
Discharging).  Mode *transitions* are owned by the controllers in
:mod:`repro.core`; the unit only enforces physical consistency (e.g. a
cabinet cannot charge and discharge in the same step).
"""

from __future__ import annotations

import enum

from repro.battery.acceptance import ChargeAcceptance
from repro.battery.kibam import KiBaM
from repro.battery.params import BatteryParams
from repro.battery.voltage import VoltageModel
from repro.battery.wear import WearModel

_SECONDS_PER_DAY = 86400.0


class BatteryMode(enum.Enum):
    """Operating modes of the InSURE energy buffer (paper Figure 7)."""

    OFFLINE = "offline"
    CHARGING = "charging"
    STANDBY = "standby"
    DISCHARGING = "discharging"


#: The modes that put a cabinet on the load bus.
ONLINE_MODES = (BatteryMode.STANDBY, BatteryMode.DISCHARGING)


class BatteryUnit:
    """A single relay-switchable battery cabinet.

    Parameters
    ----------
    name:
        Identifier used in traces and event logs (``"battery-1"`` ...).
    params:
        Electrochemical and wear constants.
    soc:
        Initial state of charge.
    """

    def __init__(self, name: str, params: BatteryParams | None = None, soc: float = 1.0) -> None:
        self.name = name
        self.params = (params or BatteryParams()).validate()
        self.kibam = KiBaM(self.params.capacity_ah, self.params.kibam, soc=soc)
        self.voltage_model = VoltageModel(self.params.voltage)
        self.acceptance = ChargeAcceptance(self.params.capacity_ah, self.params.acceptance)
        self.wear = WearModel(self.params.capacity_ah, self.params.wear)
        self.mode = BatteryMode.STANDBY
        #: Signed current applied in the most recent step (+ = discharge).
        self.last_current = 0.0
        #: Cumulative loss bookkeeping read by the obs energy ledger.
        #: Ah leaked to self-discharge while resting.
        self.self_discharge_ah = 0.0
        #: Ah applied at the terminals that never reached the wells
        #: (acceptance taper, gassing, parasitic draw).
        self.gassing_ah = 0.0
        #: Memo for :attr:`terminal_voltage` — the bus, the sensing chain
        #: and the metrics collector all read it against the same state
        #: within one tick.  Keyed by (y1, last_current), its only inputs.
        self._tv_y1 = float("nan")
        self._tv_current = float("nan")
        self._tv_value = 0.0
        #: Memo for :meth:`max_discharge_current` — the bus computes it for
        #: its split plan and :meth:`apply_discharge` re-checks it within
        #: the same tick.  Pure in the well levels and the step length.
        self._mdc_key: tuple[float, float, float] | None = None
        self._mdc_value = 0.0

    # ------------------------------------------------------------------
    # Observables
    # ------------------------------------------------------------------
    @property
    def soc(self) -> float:
        return self.kibam.soc

    @property
    def terminal_voltage(self) -> float:
        """Terminal voltage at the most recently applied current."""
        y1 = self.kibam.y1
        current = self.last_current
        if y1 != self._tv_y1 or current != self._tv_current:
            self._tv_y1 = y1
            self._tv_current = current
            self._tv_value = self.voltage_model.terminal(
                self.kibam.available_head, current
            )
        return self._tv_value

    @property
    def open_circuit_voltage(self) -> float:
        return self.voltage_model.emf(self.kibam.available_head)

    @property
    def stored_energy_wh(self) -> float:
        """Energy content approximated at nominal voltage."""
        return self.kibam.charge_ah * self.params.nominal_voltage

    def is_online(self) -> bool:
        """Whether the cabinet is connected to the load bus."""
        return self.mode in ONLINE_MODES

    # ------------------------------------------------------------------
    # Capability queries (used by the power bus and controllers)
    # ------------------------------------------------------------------
    def max_discharge_current(self, dt_seconds: float) -> float:
        """Largest discharge current honouring both kinetics and the LVD."""
        key = (self.kibam.y1, self.kibam.y2, dt_seconds)
        if key != self._mdc_key:
            kinetic = self.kibam.max_discharge_current(dt_seconds)
            cutoff = self.voltage_model.max_discharge_for_cutoff(self.kibam.available_head)
            self._mdc_key = key
            self._mdc_value = max(0.0, min(kinetic, cutoff))
        return self._mdc_value

    def max_charge_current(self) -> float:
        """Acceptance ceiling at the current state of charge."""
        return self.acceptance.max_current(self.soc)

    # ------------------------------------------------------------------
    # Physics steps (applied by the power bus each tick)
    # ------------------------------------------------------------------
    def apply_discharge(self, amps: float, dt_seconds: float) -> float:
        """Discharge at up to ``amps`` for one step; returns amps delivered."""
        if amps < 0:
            raise ValueError("discharge current must be non-negative")
        allowed = min(amps, self.max_discharge_current(dt_seconds))
        if allowed <= 0.0:
            self.idle(dt_seconds)
            return 0.0
        soc_before = self.soc
        moved_ah = self.kibam.apply_current(allowed, dt_seconds)
        delivered = moved_ah * 3600.0 / dt_seconds
        self.wear.record(delivered, soc_before, dt_seconds)
        self.last_current = delivered
        return delivered

    def apply_charge(self, amps: float, dt_seconds: float) -> float:
        """Charge with ``amps`` applied at the terminals for one step.

        Acceptance, parasitic and gassing losses are deducted before the
        charge reaches the wells.  Returns the current that actually landed.
        """
        if amps < 0:
            raise ValueError("charge current must be non-negative")
        effective = self.acceptance.effective_current(amps, self.soc)
        if effective <= 0.0:
            self.idle(dt_seconds)
            self.last_current = -min(amps, self.params.acceptance.parasitic_amps)
            self.gassing_ah += amps * dt_seconds / 3600.0
            return 0.0
        moved_ah = self.kibam.apply_current(-effective, dt_seconds)
        stored = -moved_ah * 3600.0 / dt_seconds  # positive amps actually stored
        self.last_current = -stored
        self.gassing_ah += (amps - stored) * dt_seconds / 3600.0
        return stored

    def idle(self, dt_seconds: float) -> None:
        """Rest for one step: recovery diffusion plus self-discharge."""
        leak_ah = (
            self.params.self_discharge_per_day
            * self.params.capacity_ah
            * dt_seconds
            / _SECONDS_PER_DAY
        )
        leak_amps = leak_ah * 3600.0 / dt_seconds
        self.kibam.apply_current(leak_amps, dt_seconds)
        self.last_current = 0.0
        self.self_discharge_ah += leak_ah

    # ------------------------------------------------------------------
    # Mode handling
    # ------------------------------------------------------------------
    def set_mode(self, mode: BatteryMode) -> bool:
        """Set the operating mode; returns True if it changed."""
        if mode is self.mode:
            return False
        self.mode = mode
        return True

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"BatteryUnit({self.name!r}, soc={self.soc:.3f}, "
            f"mode={self.mode.value}, v={self.terminal_voltage:.2f})"
        )
