"""Controller behaviour on short constant-source runs."""

import pytest

from repro.battery.unit import BatteryMode
from repro.core.modes import legal_transitions
from repro.core.system import build_system
from repro.solar.field import ConstantSource
from repro.workloads import SeismicAnalysis, VideoSurveillance

HOUR = 3600.0


def constant_system(controller, power_w, workload=None, initial_soc=0.9, **kwargs):
    return build_system(
        None,
        workload or VideoSurveillance(),
        controller=controller,
        source=ConstantSource("solar", power_w),
        initial_soc=initial_soc,
        seed=0,
        **kwargs,
    )


class TestInsure:
    def test_serves_with_ample_solar(self):
        system = constant_system("insure", 1500.0)
        summary = system.run(2 * HOUR)
        assert summary.uptime_fraction > 0.7
        assert summary.crash_count == 0

    def test_stays_dark_with_no_power(self):
        system = constant_system("insure", 0.0, initial_soc=0.15)
        summary = system.run(1 * HOUR)
        assert summary.uptime_fraction == 0.0

    def test_keeps_online_reserve(self):
        system = constant_system("insure", 1200.0, initial_soc=0.6)
        system.run(1 * HOUR)
        online = system.bank.in_mode(BatteryMode.STANDBY, BatteryMode.DISCHARGING)
        assert len(online) >= 1

    def test_charges_surplus_into_buffer(self):
        system = constant_system("insure", 1500.0, initial_soc=0.4)
        start = system.bank.stored_energy_wh
        system.run(3 * HOUR)
        assert system.bank.stored_energy_wh > start

    def test_mode_changes_validated(self):
        system = constant_system("insure", 900.0, initial_soc=0.5)
        system.run(2 * HOUR)
        # Every recorded mode change is a legal Figure 8 transition.
        changes = system.decisions.of_kind("buffer.mode")
        assert changes
        for change in changes:
            from_mode = BatteryMode(change.data["from_mode"])
            assert BatteryMode(change.data["to_mode"]) in legal_transitions(from_mode)

    def test_duty_workload_uses_dvfs(self):
        system = constant_system(
            "insure", 700.0, workload=SeismicAnalysis(), initial_soc=0.9
        )
        system.run(3 * HOUR)
        # The controller's duty should remain within actuation bounds.
        assert 0.5 <= system.controller.duty <= 1.0


class TestBaseline:
    def test_unified_bank_moves_together(self):
        system = constant_system("baseline", 800.0, initial_soc=0.5)
        system.run(2 * HOUR)
        modes = {unit.mode for unit in system.bank}
        # Unified buffer: at most online-group modes together, never a
        # mixed charge/discharge split.
        assert not (
            BatteryMode.CHARGING in modes
            and (BatteryMode.DISCHARGING in modes or BatteryMode.STANDBY in modes)
        )

    def test_protection_trip_pulls_whole_bank(self):
        system = constant_system(
            "baseline", 100.0, workload=SeismicAnalysis(), initial_soc=0.5
        )
        system.run(4 * HOUR)
        if system.controller.checkpoint_stops:
            assert not system.controller.buffer_online or all(
                unit.mode in (BatteryMode.STANDBY, BatteryMode.DISCHARGING)
                for unit in system.bank
            )

    def test_recharges_to_capacity_goal_before_return(self):
        system = constant_system("baseline", 900.0, initial_soc=0.3)
        system.run(1 * HOUR)
        if not system.controller.buffer_online:
            assert all(unit.mode is BatteryMode.CHARGING for unit in system.bank)


class TestBuildSystem:
    def test_unknown_controller(self):
        with pytest.raises(ValueError):
            constant_system("magic", 500.0)

    def test_requires_trace_or_source(self):
        with pytest.raises(ValueError):
            build_system(None, VideoSurveillance())

    def test_initial_socs_length_checked(self):
        with pytest.raises(ValueError):
            build_system(
                None,
                VideoSurveillance(),
                source=ConstantSource("solar", 100.0),
                initial_socs=[0.5],
            )

    def test_run_requires_duration_for_source(self):
        system = constant_system("insure", 500.0)
        with pytest.raises(ValueError):
            system.run()
