"""Supported fault injection for assembled systems.

The robustness suite used to poke attributes on a built system (rebinding
``system.controller.telemetry``, reaching into relay pairs) — fragile
against refactors and easy to get subtly wrong (the rebuilt telemetry lost
its seeded noise streams).  Faults are now first-class:
:func:`repro.core.system.build_system` accepts ``faults=[...]`` and applies
each one to the fully wired system before it is returned, so every fault
acts on the same objects the controller and the physics see.

A fault is any object with ``apply(system) -> None``; the classes below
cover the prototype's field failure modes.  Compose several in one list to
model compound degradation.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

if TYPE_CHECKING:  # circular at runtime: repro.core.system imports this
    from repro.core.system import InSituSystem

_BUSES = ("offline", "charge", "load")


@dataclass(frozen=True)
class SensorGainFault:
    """Uncalibrated transducers: every sensor reads off by ``gain_error``.

    Applied to the existing sensing chain (seeded noise streams and PLC
    register bindings untouched), exactly as a miscalibrated field install
    would behave.
    """

    gain_error: float

    def apply(self, system: "InSituSystem") -> None:
        system.telemetry.set_gain_error(self.gain_error)


@dataclass(frozen=True)
class StuckRelayFault:
    """A cabinet's relay pair mechanically frozen on ``bus``.

    The pair is first driven to ``bus`` (the position it welded in), then
    both contacts are stuck so later controller commands are ignored —
    the electrical truth keeps following the frozen contacts.
    """

    battery: str
    bus: str = "load"

    def apply(self, system: "InSituSystem") -> None:
        if self.bus not in _BUSES:
            raise ValueError(f"unknown bus {self.bus!r} (expected one of {_BUSES})")
        system.switchnet.attach(self.battery, self.bus)
        pair = system.switchnet.pairs[self.battery]
        pair.charge.force_stick()
        pair.discharge.force_stick()


@dataclass(frozen=True)
class SelfDischargeFault:
    """Elevated self-discharge on one cabinet (soft short / sulfation).

    ``multiplier`` scales the per-day leakage of the affected unit; a soft
    short in a flooded cell plausibly leaks several times the healthy rate.
    """

    battery: str
    multiplier: float = 5.0

    def apply(self, system: "InSituSystem") -> None:
        if self.multiplier < 1.0:
            raise ValueError("multiplier must be >= 1")
        import dataclasses

        unit = system.bank.by_name(self.battery)
        unit.params = dataclasses.replace(
            unit.params,
            self_discharge_per_day=unit.params.self_discharge_per_day
            * self.multiplier,
        )
