"""Workload base classes and job-queue plumbing."""

from __future__ import annotations

from dataclasses import dataclass, field

#: GB below which a job counts as done and a budget as spent.
JOB_EPSILON_GB = 1e-12


@dataclass
class Job:
    """A unit of data-processing work.

    Attributes
    ----------
    job_id:
        Unique identifier.
    size_gb:
        Total data volume to process.
    arrival_t:
        Simulation time the data became available.
    done_gb:
        Progress so far.
    checkpoint_gb:
        Progress as of the last durable checkpoint; a crash rolls
        ``done_gb`` back to this value.
    completion_t:
        Set when the job finishes.
    """

    job_id: str
    size_gb: float
    arrival_t: float
    done_gb: float = 0.0
    checkpoint_gb: float = 0.0
    completion_t: float | None = None
    #: Absolute time by which the job should finish (the paper: ~85 % of
    #: big-data tasks can be deferred by a day — but not forever).
    deadline_t: float | None = None

    def __post_init__(self) -> None:
        if self.size_gb <= 0:
            raise ValueError("size_gb must be positive")
        if self.arrival_t < 0:
            raise ValueError("arrival_t must be non-negative")

    @property
    def finished(self) -> bool:
        return self.completion_t is not None

    @property
    def met_deadline(self) -> bool | None:
        """True/False once finished (None while pending or deadline-free)."""
        if self.deadline_t is None or self.completion_t is None:
            return None
        return self.completion_t <= self.deadline_t

    @property
    def remaining_gb(self) -> float:
        return max(0.0, self.size_gb - self.done_gb)

    def advance(self, gb: float, t: float) -> float:
        """Apply up to ``gb`` of progress; returns GB actually consumed."""
        if gb < 0:
            raise ValueError("gb must be non-negative")
        used = min(gb, self.remaining_gb)
        self.done_gb += used
        if self.remaining_gb <= JOB_EPSILON_GB and not self.finished:
            self.completion_t = t
        return used

    def checkpoint(self) -> None:
        self.checkpoint_gb = self.done_gb

    def rollback(self) -> float:
        """Crash recovery: lose progress since the last checkpoint.

        Returns the GB of work lost.
        """
        lost = self.done_gb - self.checkpoint_gb
        self.done_gb = self.checkpoint_gb
        return lost


class JobQueue:
    """FIFO queue with completion bookkeeping."""

    def __init__(self) -> None:
        self.pending: list[Job] = []
        self.completed: list[Job] = []

    def push(self, job: Job) -> None:
        self.pending.append(job)

    @property
    def head(self) -> Job | None:
        return self.pending[0] if self.pending else None

    def retire_finished(self) -> None:
        while self.pending and self.pending[0].finished:
            self.completed.append(self.pending.pop(0))

    @property
    def backlog_gb(self) -> float:
        return sum(job.remaining_gb for job in self.pending)

    def __len__(self) -> int:
        return len(self.pending)


@dataclass
class WorkloadStats:
    """Aggregate metrics every workload maintains."""

    processed_gb: float = 0.0
    lost_gb: float = 0.0
    #: Raw data overwritten before it could be processed (storage full).
    dropped_gb: float = 0.0
    crash_count: int = 0
    delays_s: list[float] = field(default_factory=list)
    deadline_total: int = 0
    deadline_misses: int = 0

    @property
    def deadline_miss_rate(self) -> float:
        if self.deadline_total == 0:
            return 0.0
        return self.deadline_misses / self.deadline_total

    def throughput_gb_per_hour(self, elapsed_s: float) -> float:
        if elapsed_s <= 0:
            raise ValueError("elapsed_s must be positive")
        return self.processed_gb / (elapsed_s / 3600.0)

    @property
    def mean_delay_minutes(self) -> float:
        if not self.delays_s:
            return 0.0
        return sum(self.delays_s) / len(self.delays_s) / 60.0


class Workload:
    """Base workload: consumes rack compute-seconds, tracks statistics.

    Subclasses implement :meth:`_generate` (data arrivals) and define
    ``gb_per_compute_second`` (service rate) and ``preferred_vms``.

    Invariant: only ``queue.head`` ever carries progress; every job
    behind it has ``done_gb == checkpoint_gb == 0``.  :meth:`step`
    advances only the head (retiring it before leftover budget reaches
    the next job), :meth:`_drop_oldest` only trims the head, and a job
    left with <= ``JOB_EPSILON_GB`` is retired or dropped at once.  Checkpoints and
    crash rollbacks therefore touch only the head, so no per-tick path
    scans the queue (the fleet kernel's ``head_idx`` / ``head_done`` /
    ``head_ckpt`` arrays encode the same invariant).
    """

    #: Data processed per VM-compute-second at full speed.
    gb_per_compute_second: float = 0.001
    #: VM count the workload would use given unconstrained power.
    preferred_vms: int = 8
    #: Host utilisation each of this workload's VMs contributes.
    cpu_share: float = 0.2
    #: How the temporal manager caps this workload's power: "duty" (DVFS
    #: duty cycling — batch jobs whose VM count cannot change mid-job) or
    #: "vms" (VM scaling — streams splittable into small jobs).
    actuation: str = "vms"
    #: Durable checkpoint cadence for in-flight jobs.
    checkpoint_interval_s: float = 600.0

    def __init__(self, name: str) -> None:
        self.name = name
        self.queue = JobQueue()
        self.stats = WorkloadStats()
        self._since_checkpoint = 0.0
        #: Optional on-site raw-data buffer (see repro.cluster.storage).
        self.storage = None

    def attach_storage(self, storage) -> None:
        """Buffer raw arrivals on ``storage``; overflow drops oldest data."""
        self.storage = storage

    # ------------------------------------------------------------------
    # Hooks
    # ------------------------------------------------------------------
    def _generate(self, t: float, dt: float) -> None:
        """Push newly arrived data onto the queue.  Override."""
        raise NotImplementedError

    # ------------------------------------------------------------------
    # Engine interface
    # ------------------------------------------------------------------
    def step(self, t: float, dt: float, compute_seconds: float) -> float:
        """Advance arrivals and consume ``compute_seconds``; returns GB done."""
        if dt <= 0:
            raise ValueError("dt must be positive")
        if compute_seconds < 0:
            raise ValueError("compute_seconds must be non-negative")
        n_before = len(self.queue.pending)
        self._generate(t, dt)
        if self.storage is not None:
            arrived = sum(job.size_gb for job in self.queue.pending[n_before:])
            overflow = self.storage.ingest(arrived)
            if overflow > 0.0:
                self._drop_oldest(overflow)

        budget_gb = compute_seconds * self.gb_per_compute_second
        done = 0.0
        while budget_gb > JOB_EPSILON_GB:
            job = self.queue.head
            if job is None:
                break
            used = job.advance(budget_gb, t + dt)
            budget_gb -= used
            done += used
            if job.finished:
                self.stats.delays_s.append(self._job_delay(job))
                if job.deadline_t is not None:
                    self.stats.deadline_total += 1
                    if not job.met_deadline:
                        self.stats.deadline_misses += 1
                self.queue.retire_finished()
            else:
                break
        self.stats.processed_gb += done
        if self.storage is not None and done > 0.0:
            self.storage.drain(done)

        # Periodic durable checkpoints of in-flight progress.
        self._since_checkpoint += dt
        if self._since_checkpoint >= self.checkpoint_interval_s:
            self._since_checkpoint = 0.0
            self.checkpoint_all()
        return done

    def _job_delay(self, job: Job) -> float:
        """Delay metric for a finished job: completion lag beyond ideal.

        Ideal service time assumes the workload's preferred VM allocation
        at full speed.
        """
        assert job.completion_t is not None
        ideal = job.size_gb / (
            self.gb_per_compute_second * max(self.preferred_vms, 1)
        )
        return max(0.0, (job.completion_t - job.arrival_t) - ideal)

    def _drop_oldest(self, gb: float) -> None:
        """Overwrite-oldest: unprocessed data of the oldest jobs is lost."""
        remaining = gb
        while remaining > JOB_EPSILON_GB and self.queue.pending:
            job = self.queue.pending[0]
            lost = min(job.remaining_gb, remaining)
            job.size_gb -= lost
            job.checkpoint_gb = min(job.checkpoint_gb, job.size_gb)
            remaining -= lost
            self.stats.dropped_gb += lost
            if job.remaining_gb <= JOB_EPSILON_GB:
                # Nothing left of this job to process; discard it (a
                # dropped deadline job is a miss, not a completion).
                if job.deadline_t is not None:
                    self.stats.deadline_total += 1
                    self.stats.deadline_misses += 1
                self.queue.pending.pop(0)

    def checkpoint_all(self) -> None:
        """Durably checkpoint all in-flight progress (graceful stop path)."""
        if self.queue.pending:
            self.queue.pending[0].checkpoint()

    def on_crash(self) -> float:
        """Uncontrolled power loss: roll back to the last checkpoint."""
        lost = self.queue.pending[0].rollback() if self.queue.pending else 0.0
        self.stats.processed_gb = max(0.0, self.stats.processed_gb - lost)
        self.stats.lost_gb += lost
        self.stats.crash_count += 1
        return lost

    @property
    def backlog_gb(self) -> float:
        return self.queue.backlog_gb

    def mean_delay_minutes(self, t_now: float) -> float:
        """Mean job delay including *censored* pending jobs.

        A job still in the queue at observation time has already accrued at
        least ``t_now - arrival - ideal_service`` of delay; ignoring it
        would reward a system for never finishing anything.
        """
        if t_now < 0:
            raise ValueError("t_now must be non-negative")
        samples = list(self.stats.delays_s)
        for job in self.queue.pending:
            ideal = job.size_gb / (
                self.gb_per_compute_second * max(self.preferred_vms, 1)
            )
            accrued = t_now - job.arrival_t - ideal
            if accrued > 0:
                samples.append(accrued)
        if not samples:
            return 0.0
        return sum(samples) / len(samples) / 60.0
