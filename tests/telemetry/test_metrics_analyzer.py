"""Metrics collection and comparison analysis."""

import pytest

from repro.core.system import build_system
from repro.solar.field import ConstantSource
from repro.telemetry.analyzer import all_improvements, improvement, table6_row
from repro.workloads import VideoSurveillance

HOUR = 3600.0


@pytest.fixture(scope="module")
def summary():
    system = build_system(
        None, VideoSurveillance(), controller="insure",
        source=ConstantSource("solar", 1200.0), initial_soc=0.8, seed=0,
    )
    return system.run(2 * HOUR)


class TestImprovement:
    def test_higher_is_better(self):
        assert improvement(1.2, 1.0) == pytest.approx(0.2)

    def test_lower_is_better_sign_flip(self):
        assert improvement(0.8, 1.0, higher_is_better=False) == pytest.approx(0.2)

    def test_zero_baseline(self):
        assert improvement(0.0, 0.0) == 0.0
        assert improvement(1.0, 0.0) == float("inf")


class TestRunSummary:
    def test_energy_accounting_consistent(self, summary):
        assert summary.effective_energy_kwh <= summary.load_energy_kwh + 1e-9
        assert 0.0 <= summary.effective_fraction <= 1.0

    def test_solar_accounting(self, summary):
        assert summary.solar_used_kwh <= summary.solar_energy_kwh + 1e-9
        assert summary.curtailed_kwh >= 0.0

    def test_uptime_in_unit_interval(self, summary):
        assert 0.0 <= summary.uptime_fraction <= 1.0

    def test_availability_pct(self, summary):
        assert summary.availability_pct == pytest.approx(
            100.0 * summary.uptime_fraction
        )

    def test_voltage_stats_sane(self, summary):
        assert 20.0 < summary.min_battery_voltage <= summary.end_battery_voltage + 3.0
        assert summary.battery_voltage_sigma >= 0.0

    def test_throughput_positive_when_serving(self, summary):
        if summary.uptime_fraction > 0.3:
            assert summary.throughput_gb_per_hour > 0.0


class TestProjections:
    def test_table6_row_columns(self, summary):
        row = table6_row(summary)
        expected = {
            "load_kwh", "effective_kwh", "power_ctrl_times", "on_off_cycles",
            "vm_ctrl_times", "min_battery_volt", "end_of_day_volt",
            "battery_volt_sigma",
        }
        assert set(row) == expected

    def test_all_improvements_keys(self, summary):
        improvements = all_improvements(summary, summary)
        assert all(v == pytest.approx(0.0) for v in improvements.values())
        assert len(improvements) == 6
