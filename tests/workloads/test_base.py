"""Jobs, queues and the workload base class."""

import dataclasses
import types

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster.storage import StorageArray
from repro.core.energy_manager import InsureController
from repro.core.system import day_site
from repro.workloads import MicroWorkload, SeismicAnalysis, VideoSurveillance
from repro.workloads.base import Job, JobQueue, Workload


class SteadyWorkload(Workload):
    """Test double: one fixed-size job queued at construction."""

    gb_per_compute_second = 0.01
    preferred_vms = 4

    def __init__(self, job_gb=10.0):
        super().__init__("steady")
        self.queue.push(Job("j1", job_gb, 0.0))

    def _generate(self, t, dt):
        pass


class TestJob:
    def test_advance_and_finish(self):
        job = Job("j", 5.0, 0.0)
        assert job.advance(3.0, t=10.0) == 3.0
        assert not job.finished
        assert job.advance(5.0, t=20.0) == 2.0
        assert job.finished
        assert job.completion_t == 20.0

    def test_rollback_to_checkpoint(self):
        job = Job("j", 10.0, 0.0)
        job.advance(4.0, 1.0)
        job.checkpoint()
        job.advance(3.0, 2.0)
        lost = job.rollback()
        assert lost == pytest.approx(3.0)
        assert job.done_gb == pytest.approx(4.0)

    def test_validation(self):
        with pytest.raises(ValueError):
            Job("j", 0.0, 0.0)
        with pytest.raises(ValueError):
            Job("j", 1.0, -1.0)
        job = Job("j", 1.0, 0.0)
        with pytest.raises(ValueError):
            job.advance(-1.0, 0.0)

    @given(
        size=st.floats(0.5, 100.0),
        chunks=st.lists(st.floats(0.0, 30.0), min_size=1, max_size=20),
    )
    @settings(max_examples=50, deadline=None)
    def test_progress_never_exceeds_size(self, size, chunks):
        job = Job("j", size, 0.0)
        for i, chunk in enumerate(chunks):
            job.advance(chunk, float(i))
        assert 0.0 <= job.done_gb <= size + 1e-9


class TestJobQueue:
    def test_fifo_head(self):
        queue = JobQueue()
        queue.push(Job("a", 1.0, 0.0))
        queue.push(Job("b", 1.0, 0.0))
        assert queue.head.job_id == "a"

    def test_retire_finished(self):
        queue = JobQueue()
        job = Job("a", 1.0, 0.0)
        queue.push(job)
        job.advance(1.0, 5.0)
        queue.retire_finished()
        assert len(queue) == 0
        assert queue.completed == [job]

    def test_backlog(self):
        queue = JobQueue()
        queue.push(Job("a", 3.0, 0.0))
        queue.push(Job("b", 4.0, 0.0))
        assert queue.backlog_gb == 7.0


class TestWorkloadStep:
    def test_compute_converts_to_progress(self):
        workload = SteadyWorkload()
        done = workload.step(0.0, 5.0, compute_seconds=100.0)
        assert done == pytest.approx(1.0)
        assert workload.stats.processed_gb == pytest.approx(1.0)

    def test_no_compute_no_progress(self):
        workload = SteadyWorkload()
        assert workload.step(0.0, 5.0, 0.0) == 0.0

    def test_completion_records_delay(self):
        workload = SteadyWorkload(job_gb=1.0)
        workload.step(0.0, 5.0, compute_seconds=200.0)
        assert len(workload.stats.delays_s) == 1

    def test_crash_rolls_back(self):
        workload = SteadyWorkload()
        workload.step(0.0, 5.0, 100.0)
        workload.checkpoint_all()
        workload.step(5.0, 5.0, 100.0)
        before = workload.stats.processed_gb
        lost = workload.on_crash()
        assert lost == pytest.approx(1.0)
        assert workload.stats.processed_gb == pytest.approx(before - 1.0)
        assert workload.stats.crash_count == 1

    def test_periodic_checkpoint_limits_loss(self):
        workload = SteadyWorkload()
        workload.checkpoint_interval_s = 10.0
        for i in range(4):
            workload.step(i * 5.0, 5.0, 10.0)
        lost = workload.on_crash()
        # At most one checkpoint interval of progress is lost.
        assert lost <= 0.01 * 10.0 * 3 + 1e-9

    def test_censored_delay_counts_pending(self):
        workload = SteadyWorkload(job_gb=100.0)
        workload.step(0.0, 5.0, 10.0)
        # After 10 hours, the unfinished job has accrued real delay.
        assert workload.mean_delay_minutes(36_000.0) > 0.0

    def test_input_validation(self):
        workload = SteadyWorkload()
        with pytest.raises(ValueError):
            workload.step(0.0, 0.0, 1.0)
        with pytest.raises(ValueError):
            workload.step(0.0, 5.0, -1.0)
        with pytest.raises(ValueError):
            workload.mean_delay_minutes(-1.0)


class TestDeadlines:
    def test_met_deadline(self):
        job = Job("j", 1.0, 0.0, deadline_t=100.0)
        job.advance(1.0, t=50.0)
        assert job.met_deadline is True

    def test_missed_deadline(self):
        job = Job("j", 1.0, 0.0, deadline_t=100.0)
        job.advance(1.0, t=150.0)
        assert job.met_deadline is False

    def test_no_deadline_is_none(self):
        job = Job("j", 1.0, 0.0)
        job.advance(1.0, t=50.0)
        assert job.met_deadline is None

    def test_pending_is_none(self):
        assert Job("j", 1.0, 0.0, deadline_t=100.0).met_deadline is None

    def test_workload_miss_rate(self):
        workload = SteadyWorkload.__new__(SteadyWorkload)
        Workload.__init__(workload, "deadlines")
        workload.queue.push(Job("on-time", 1.0, 0.0, deadline_t=1e6))
        workload.queue.push(Job("late", 1.0, 0.0, deadline_t=1.0))
        workload._generate = lambda t, dt: None
        workload.gb_per_compute_second = 0.01
        workload.step(10.0, 5.0, compute_seconds=500.0)
        assert workload.stats.deadline_total == 2
        assert workload.stats.deadline_misses == 1
        assert workload.stats.deadline_miss_rate == 0.5

    def test_miss_rate_zero_without_deadlines(self):
        workload = SteadyWorkload()
        workload.step(0.0, 5.0, compute_seconds=10_000.0)
        assert workload.stats.deadline_miss_rate == 0.0


def _all_jobs_checkpoint(self):
    """Reference: the all-jobs loop ``checkpoint_all`` once ran."""
    for job in self.queue.pending:
        job.checkpoint()


def _all_jobs_on_crash(self):
    """Reference: the all-jobs rollback ``on_crash`` once ran."""
    lost = sum(job.rollback() for job in self.queue.pending)
    self.stats.processed_gb = max(0.0, self.stats.processed_gb - lost)
    self.stats.lost_gb += lost
    self.stats.crash_count += 1
    return lost


_WORKLOADS = {
    "video": VideoSurveillance,
    "seismic": SeismicAnalysis,
    "micro": lambda: MicroWorkload("dedup"),
}

#: ("step", dt, VMs) spends dt x VMs compute-seconds; the others take no
#: arguments.
_OPS = st.one_of(
    st.tuples(st.just("step"), st.sampled_from([5.0, 60.0, 600.0, 3600.0]),
              st.one_of(st.just(0.0), st.floats(0.0, 16.0))),
    st.just(("checkpoint",)),
    st.just(("crash",)),
)


def _state(workload):
    jobs = [
        (j.job_id, j.size_gb, j.done_gb, j.checkpoint_gb, j.completion_t)
        for j in workload.queue.pending + workload.queue.completed
    ]
    storage = workload.storage
    disk = None if storage is None else (storage.used_gb, storage.dropped_gb)
    return jobs, dataclasses.asdict(workload.stats), disk


class TestHeadOnlyProgress:
    """Only the queue head carries progress, so checkpoints and crash
    rollbacks need not walk the queue."""

    @given(
        kind=st.sampled_from(sorted(_WORKLOADS)),
        disk_gb=st.sampled_from([None, 0.5, 2.0, 150.0]),
        ops=st.lists(_OPS, min_size=1, max_size=40),
    )
    @settings(max_examples=80, deadline=None)
    def test_head_only_matches_all_jobs_loop(self, kind, disk_gb, ops):
        workload = _WORKLOADS[kind]()
        reference = _WORKLOADS[kind]()
        reference.checkpoint_all = types.MethodType(_all_jobs_checkpoint, reference)
        reference.on_crash = types.MethodType(_all_jobs_on_crash, reference)
        if disk_gb is not None:
            workload.attach_storage(StorageArray(capacity_gb=disk_gb))
            reference.attach_storage(StorageArray(capacity_gb=disk_gb))
        t = 0.0
        for op in ops:
            if op[0] == "step":
                _, dt, vms = op
                assert workload.step(t, dt, dt * vms) == reference.step(t, dt, dt * vms)
                t += dt
            elif op[0] == "checkpoint":
                workload.checkpoint_all()
                reference.checkpoint_all()
            else:
                assert workload.on_crash() == reference.on_crash()
            for job in workload.queue.pending[1:]:
                assert job.done_gb == 0.0
                assert job.checkpoint_gb == 0.0
            assert _state(workload) == _state(reference)


class TestNoBacklogScan:
    """No per-tick path reads ``JobQueue.backlog_gb`` (a sum over the
    whole queue); it stays only for gauges and tests."""

    @pytest.fixture(autouse=True)
    def _forbid_backlog(self, monkeypatch):
        def forbidden(queue):
            raise AssertionError("a per-tick path summed the job backlog")

        monkeypatch.setattr(JobQueue, "backlog_gb", property(forbidden))

    def test_video_with_thousands_queued(self):
        workload = VideoSurveillance()
        workload.step(0.0, 5000 * 60.0, 0.0)
        assert len(workload.queue) == 5000
        workload.step(300000.0, 5.0, 240.0)
        workload.checkpoint_all()
        workload.step(300005.0, 5.0, 120.0)
        assert workload.on_crash() == pytest.approx(120.0 * workload.gb_per_compute_second)
        assert len(workload.queue) == 5000

    def test_insure_video_day_through_spm(self, monkeypatch):
        spm_calls = []
        spatial_period = InsureController._spatial_period

        def counted(self, clock):
            spm_calls.append(clock.t)
            spatial_period(self, clock)

        monkeypatch.setattr(InsureController, "_spatial_period", counted)
        system = day_site("insure", "video", "sunny", mean_w=1000.0,
                          seed=1, initial_soc=0.55).build()
        system.run(2 * 3600.0)
        assert len(spm_calls) >= 20
        assert len(system.workload.queue) > 0
