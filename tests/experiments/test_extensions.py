"""Extension experiments: heterogeneity, backup power, storage pressure."""

import pytest

from repro.experiments.extensions import run_backup_day, run_heterogeneous_day


class TestHeterogeneousPod:
    @pytest.fixture(scope="class")
    def result(self):
        return run_heterogeneous_day()

    def test_i7_pod_far_more_productive(self, result):
        """Paper §6.2: low-power servers improve throughput by 5x-15x on
        the same energy budget."""
        assert result.throughput_gain > 3.0

    def test_i7_energy_efficiency_in_paper_band(self, result):
        assert 4.0 <= result.perf_per_kwh_gain <= 20.0

    def test_i7_pod_nearly_always_up(self, result):
        """An i7 pod sips power: a cloudy day barely constrains it."""
        assert result.i7.uptime_fraction > result.xeon.uptime_fraction


class TestBackupPower:
    @pytest.fixture(scope="class")
    def result(self):
        return run_backup_day()

    def test_backup_improves_uptime(self, result):
        assert result.with_backup.uptime_fraction > result.solar_only.uptime_fraction

    def test_fuel_actually_burned(self, result):
        assert result.fuel_litres > 0.0
        assert result.genset_starts >= 1

    def test_fuel_cost_modest(self, result):
        """A day of backup costs dollars, not hundreds."""
        assert result.fuel_cost_usd < 100.0


class TestStoragePressure:
    @pytest.fixture(scope="class")
    def result(self):
        from repro.experiments.extensions import run_storage_pressure_day

        return run_storage_pressure_day()

    def test_insure_loses_less_footage(self, result):
        assert result.insure.dropped_gb < result.baseline.dropped_gb

    def test_loss_reduction_substantial(self, result):
        assert result.loss_reduction > 0.25

    def test_both_systems_under_pressure(self, result):
        """The scenario is meaningful: even InSURE drops some data."""
        assert result.insure.dropped_gb > 0.0
