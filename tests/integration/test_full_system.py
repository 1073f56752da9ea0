"""End-to-end integration: full day runs, determinism, cross-controller."""

import numpy as np
import pytest

from repro.core.system import build_system
from repro.solar.traces import make_day_trace
from repro.workloads import SeismicAnalysis, VideoSurveillance

HOUR = 3600.0


def day_system(controller="insure", seed=1, workload=None, mean_w=900.0):
    trace = make_day_trace("sunny", dt_seconds=5.0, seed=seed, target_mean_w=mean_w)
    return build_system(
        trace,
        workload or VideoSurveillance(),
        controller=controller,
        seed=seed,
        initial_soc=0.55,
    )


class TestFullDayRun:
    @pytest.fixture(scope="class")
    def summary(self):
        return day_system().run()

    def test_completes_and_serves(self, summary):
        assert summary.elapsed_s == pytest.approx(13 * HOUR, rel=0.01)
        assert summary.uptime_fraction > 0.4

    def test_energy_flow_accounted(self, summary):
        # Load energy must be covered by solar plus battery depletion,
        # within conversion-loss slack.
        assert summary.load_energy_kwh < summary.solar_energy_kwh + 2.6

    def test_trace_recorded(self):
        system = day_system(seed=2)
        system.run(2 * HOUR)
        recorder = system.recorder
        assert len(recorder) > 100
        assert recorder["solar_w"].max() > 0.0
        assert "battery-1.v" in recorder

    def test_events_logged(self):
        system = day_system(seed=2)
        system.run(3 * HOUR)
        assert len(system.decisions) > 0


class TestDeterminism:
    def test_same_seed_identical_results(self):
        a = day_system(seed=7).run(4 * HOUR)
        b = day_system(seed=7).run(4 * HOUR)
        assert a.processed_gb == b.processed_gb
        assert a.power_ctrl_times == b.power_ctrl_times
        assert a.min_battery_voltage == b.min_battery_voltage

    def test_traces_bitwise_identical(self):
        sys_a = day_system(seed=7)
        sys_a.run(2 * HOUR)
        sys_b = day_system(seed=7)
        sys_b.run(2 * HOUR)
        assert np.array_equal(sys_a.recorder["mean_voltage"],
                              sys_b.recorder["mean_voltage"])

    def test_different_seeds_differ(self):
        a = day_system(seed=7).run(4 * HOUR)
        b = day_system(seed=8).run(4 * HOUR)
        assert a.processed_gb != b.processed_gb


class TestControllerComparison:
    """The headline claim, smoke-scale: InSURE beats the baseline."""

    @pytest.fixture(scope="class")
    def pair(self):
        trace_seed = 11
        results = {}
        for controller in ("insure", "baseline"):
            results[controller] = day_system(
                controller=controller, seed=trace_seed, mean_w=500.0
            ).run()
        return results

    def test_insure_uptime_at_least_baseline(self, pair):
        assert pair["insure"].uptime_fraction >= pair["baseline"].uptime_fraction

    def test_insure_life_better(self, pair):
        assert pair["insure"].projected_life_days > pair["baseline"].projected_life_days

    def test_insure_more_fine_grained_control(self, pair):
        """Table 6: Opt performs more control operations than Non-Opt."""
        assert (
            pair["insure"].vm_ctrl_times + pair["insure"].power_ctrl_times
            > pair["baseline"].vm_ctrl_times + pair["baseline"].power_ctrl_times
        )


class TestBatchWorkloadIntegration:
    def test_seismic_day_processes_data(self):
        summary = day_system(workload=SeismicAnalysis(), seed=3, mean_w=1000.0).run()
        assert summary.processed_gb > 50.0

    def test_duty_cycling_recorded_for_batch(self):
        system = day_system(workload=SeismicAnalysis(), seed=3, mean_w=500.0)
        system.run()
        # Batch runs actuate DVFS (dvfs.duty decisions) or checkpoint stops.
        assert (
            len(system.decisions.of_kind("dvfs.duty")) > 0
            or len(system.decisions.of_kind("load.checkpoint_stop")) > 0
        )
