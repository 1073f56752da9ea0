"""Seismic, video and micro workloads."""

import pytest

from repro.workloads.micro import FIGURE17_BENCHMARKS, MICRO_BENCHMARKS, MicroWorkload
from repro.workloads.seismic import SeismicAnalysis
from repro.workloads.video import VideoSurveillance

HOUR = 3600.0


class TestSeismic:
    def test_initial_backlog(self):
        assert len(SeismicAnalysis().queue) == 1
        assert SeismicAnalysis(initial_backlog_jobs=0).queue.head is None

    def test_calibration_16_5_gbh_at_4vm(self):
        workload = SeismicAnalysis()
        # One hour of 4 full-speed VMs.
        done = workload.step(0.0, HOUR, compute_seconds=4 * HOUR)
        assert done == pytest.approx(16.5, rel=0.01)

    def test_arrivals_twice_daily(self):
        workload = SeismicAnalysis(initial_backlog_jobs=0)
        # Simulate a full day from 07:00 in hourly ticks.
        for i in range(24):
            workload.step(i * HOUR, HOUR, 0.0)
        assert len(workload.queue) == 2

    def test_duty_actuated(self):
        assert SeismicAnalysis.actuation == "duty"

    def test_job_size(self):
        assert SeismicAnalysis().queue.head.size_gb == 114.0

    def test_validation(self):
        with pytest.raises(ValueError):
            SeismicAnalysis(job_size_gb=0.0)


class TestVideo:
    def test_chunk_rate(self):
        workload = VideoSurveillance()
        assert workload.chunk_gb == pytest.approx(0.21)
        workload.step(0.0, 600.0, 0.0)
        assert len(workload.queue) == 10

    def test_eight_vms_keep_up(self):
        workload = VideoSurveillance()
        for i in range(120):
            workload.step(i * 60.0, 60.0, compute_seconds=8 * 60.0)
        assert workload.backlog_gb < 0.5
        assert workload.stats.mean_delay_minutes < 0.2

    def test_two_vms_fall_behind(self):
        workload = VideoSurveillance()
        for i in range(120):
            workload.step(i * 60.0, 60.0, compute_seconds=2 * 60.0)
        assert workload.backlog_gb > 10.0

    def test_vm_actuated(self):
        assert VideoSurveillance.actuation == "vms"

    def test_validation(self):
        with pytest.raises(ValueError):
            VideoSurveillance(rate_gb_per_min=0.0)
        with pytest.raises(ValueError):
            VideoSurveillance(chunk_seconds=0.0)


class TestMicro:
    def test_all_profiles_valid(self):
        for name, benchmark in MICRO_BENCHMARKS.items():
            assert benchmark.name == name
            assert benchmark.gb_per_compute_second > 0

    def test_figure17_subset_exists(self):
        assert set(FIGURE17_BENCHMARKS) <= set(MICRO_BENCHMARKS)

    def test_iterations_queue_back_to_back(self):
        workload = MicroWorkload("dedup")
        size = workload.benchmark.input_gb
        compute = (size * 1.25) / workload.gb_per_compute_second
        workload.step(0.0, 60.0, compute)
        workload.step(60.0, 60.0, compute)
        assert len(workload.queue.completed) == 2
        # A fresh iteration is re-queued at the next step.
        workload.step(120.0, 60.0, 0.0)
        assert workload.queue.head is not None

    def test_unknown_benchmark(self):
        with pytest.raises(ValueError):
            MicroWorkload("quake3")

    def test_profile_speed_factor_applied(self):
        xeon = MicroWorkload("dedup", profile_name="xeon-dl380")
        i7 = MicroWorkload("dedup", profile_name="core-i7")
        assert i7.gb_per_compute_second == pytest.approx(
            xeon.gb_per_compute_second * 2.02
        )

    def test_benchmark_instance_accepted(self):
        workload = MicroWorkload(MICRO_BENCHMARKS["x264"])
        assert workload.benchmark.name == "x264"


class TestSeismicDeadlines:
    def test_jobs_carry_one_day_deferral(self):
        workload = SeismicAnalysis()
        job = workload.queue.head
        assert job.deadline_t == pytest.approx(job.arrival_t + 24 * 3600.0)

    def test_custom_deferral_window(self):
        workload = SeismicAnalysis(deferral_window_s=3600.0)
        job = workload.queue.head
        assert job.deadline_t == pytest.approx(job.arrival_t + 3600.0)

    def test_validation(self):
        with pytest.raises(ValueError):
            SeismicAnalysis(deferral_window_s=0.0)

    def test_timely_processing_meets_deadline(self):
        workload = SeismicAnalysis()
        # Process the whole backlog within a few hours.
        for i in range(10):
            workload.step(i * 3600.0, 3600.0, compute_seconds=8 * 3600.0)
        assert workload.stats.deadline_total >= 1
        assert workload.stats.deadline_misses == 0
