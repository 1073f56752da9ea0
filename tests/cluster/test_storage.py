"""Storage array and its integration with workload backlogs."""

import pytest

from repro.cluster.storage import StorageArray
from repro.workloads import VideoSurveillance


class TestStorageArray:
    def test_ingest_and_drain(self):
        array = StorageArray(capacity_gb=100.0)
        assert array.ingest(30.0) == 0.0
        assert array.used_gb == 30.0
        assert array.drain(10.0) == 10.0
        assert array.used_gb == 20.0

    def test_overflow_drops_and_counts(self):
        array = StorageArray(capacity_gb=50.0)
        dropped = array.ingest(80.0)
        assert dropped == pytest.approx(30.0)
        assert array.used_gb == 50.0
        assert array.dropped_gb == pytest.approx(30.0)

    def test_drain_bounded_by_content(self):
        array = StorageArray(capacity_gb=100.0)
        array.ingest(5.0)
        assert array.drain(50.0) == 5.0

    def test_power_states(self):
        array = StorageArray()
        assert array.power_w == array.idle_w
        array.ingest(1.0)
        assert array.power_w == array.active_w
        assert array.power_w == array.idle_w  # streaming flag resets

    def test_report(self):
        array = StorageArray(capacity_gb=100.0)
        array.ingest(40.0)
        report = array.report()
        assert report.free_gb == 60.0
        assert report.utilisation == pytest.approx(0.4)

    def test_validation(self):
        with pytest.raises(ValueError):
            StorageArray(capacity_gb=0.0)
        with pytest.raises(ValueError):
            StorageArray(idle_w=50.0, active_w=10.0)
        array = StorageArray()
        with pytest.raises(ValueError):
            array.ingest(-1.0)
        with pytest.raises(ValueError):
            array.drain(-1.0)


class TestWorkloadIntegration:
    def test_backlog_lands_on_disk(self):
        workload = VideoSurveillance()
        workload.attach_storage(StorageArray(capacity_gb=100.0))
        # An hour of arrivals, no compute.
        for i in range(60):
            workload.step(i * 60.0, 60.0, 0.0)
        assert workload.storage.used_gb == pytest.approx(
            workload.backlog_gb, abs=0.01
        )

    def test_processing_drains_disk(self):
        workload = VideoSurveillance()
        workload.attach_storage(StorageArray(capacity_gb=100.0))
        for i in range(10):
            workload.step(i * 60.0, 60.0, 0.0)
        filled = workload.storage.used_gb
        workload.step(600.0, 60.0, compute_seconds=8 * 600.0)
        assert workload.storage.used_gb < filled

    def test_overflow_drops_oldest_footage(self):
        workload = VideoSurveillance()
        workload.attach_storage(StorageArray(capacity_gb=1.0))
        # ~12.6 GB arrives over an hour into a 1 GB disk.
        for i in range(60):
            workload.step(i * 60.0, 60.0, 0.0)
        assert workload.stats.dropped_gb > 10.0
        # Surviving backlog fits on the disk.
        assert workload.backlog_gb <= 1.0 + 0.01
        # Dropped data never counts as processed.
        assert workload.stats.processed_gb == 0.0

    def test_dropped_jobs_not_completed(self):
        workload = VideoSurveillance()
        workload.attach_storage(StorageArray(capacity_gb=0.5))
        for i in range(30):
            workload.step(i * 60.0, 60.0, 0.0)
        assert len(workload.queue.completed) == 0
