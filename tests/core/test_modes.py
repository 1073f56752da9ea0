"""Operating-mode FSM (Figures 7-8)."""

import pytest

from repro.battery.unit import BatteryMode
from repro.core.modes import ModeTransition, bus_for_mode


def legal(from_mode: BatteryMode, to_mode: BatteryMode) -> bool:
    """Whether a controller may issue this change: it constructs."""
    try:
        ModeTransition("b1", from_mode, to_mode, "test")
    except ValueError:
        return False
    return True


class TestLegalTransitions:
    def test_paper_cycle(self):
        """Offline -> Charging -> Standby -> Discharging -> Offline."""
        assert legal(BatteryMode.OFFLINE, BatteryMode.CHARGING)
        assert legal(BatteryMode.CHARGING, BatteryMode.STANDBY)
        assert legal(BatteryMode.STANDBY, BatteryMode.DISCHARGING)
        assert legal(BatteryMode.DISCHARGING, BatteryMode.OFFLINE)

    def test_transition_7_back_to_standby(self):
        assert legal(BatteryMode.DISCHARGING, BatteryMode.STANDBY)

    def test_offline_cannot_jump_to_discharging(self):
        assert not legal(BatteryMode.OFFLINE, BatteryMode.DISCHARGING)

    def test_charging_cannot_jump_to_discharging(self):
        assert not legal(BatteryMode.CHARGING, BatteryMode.DISCHARGING)


class TestModeTransition:
    def test_valid_transition_constructs(self):
        change = ModeTransition("b1", BatteryMode.OFFLINE, BatteryMode.CHARGING, "spm")
        assert (change.battery, change.from_mode, change.to_mode, change.reason) == (
            "b1", BatteryMode.OFFLINE, BatteryMode.CHARGING, "spm")

    def test_illegal_transition_raises(self):
        with pytest.raises(ValueError):
            ModeTransition("b1", BatteryMode.OFFLINE, BatteryMode.DISCHARGING, "bad")


class TestBusMapping:
    def test_offline_bus(self):
        assert bus_for_mode(BatteryMode.OFFLINE) == "offline"

    def test_charging_bus(self):
        assert bus_for_mode(BatteryMode.CHARGING) == "charge"

    def test_online_modes_on_load_bus(self):
        assert bus_for_mode(BatteryMode.STANDBY) == "load"
        assert bus_for_mode(BatteryMode.DISCHARGING) == "load"
