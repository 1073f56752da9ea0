"""Operating-mode transition rules (paper Figures 7 and 8).

The energy buffer's four modes and the seven numbered transitions:

1. Offline → Charging      battery has discharge budget and green power
2. Charging → Standby      all selected batteries meet the capacity goal
3. Standby → Discharging   green power budget becomes inadequate
4. Discharging → Offline   state of charge drops below threshold
5. Charging → Standby      a batch of batteries meets its capacity goal
6. Standby → Discharging   green power output becomes unavailable
7. Discharging → Standby   green power output exceeds server demand

Controllers issue every mode change as a :class:`ModeTransition`, which
refuses a pair outside these rules: an illegal transition is a controller
bug, not a plant event.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.battery.unit import BatteryMode

#: The legal (from, to) pairs, with the paper's transition numbers.
_TRANSITIONS: frozenset[tuple[BatteryMode, BatteryMode]] = frozenset({
    (BatteryMode.OFFLINE, BatteryMode.CHARGING),  # 1
    (BatteryMode.CHARGING, BatteryMode.STANDBY),  # 2, 5
    (BatteryMode.STANDBY, BatteryMode.DISCHARGING),  # 3, 6
    (BatteryMode.DISCHARGING, BatteryMode.OFFLINE),  # 4
    (BatteryMode.DISCHARGING, BatteryMode.STANDBY),  # 7
    # Practical extras the prototype needs: suspending a charge when the
    # budget collapses, and protecting a standby unit that self-discharged.
    (BatteryMode.CHARGING, BatteryMode.OFFLINE),
    (BatteryMode.STANDBY, BatteryMode.OFFLINE),
})


@dataclass(frozen=True)
class ModeTransition:
    """One validated mode change for a named battery unit."""

    battery: str
    from_mode: BatteryMode
    to_mode: BatteryMode
    reason: str

    def __post_init__(self) -> None:
        if (self.from_mode, self.to_mode) not in _TRANSITIONS:
            raise ValueError(
                f"illegal transition {self.from_mode.value} -> {self.to_mode.value} "
                f"for {self.battery}"
            )


def bus_for_mode(mode: BatteryMode) -> str:
    """Which bus the switch network should attach a unit to for ``mode``."""
    if mode is BatteryMode.OFFLINE:
        return "offline"
    if mode is BatteryMode.CHARGING:
        return "charge"
    return "load"
