"""Micro-benchmark workloads (Table 5, Figures 17-19, Table 7).

Each benchmark is an iterated kernel: one iteration processes its input
size, and iterations repeat back-to-back ("each workload is executed
iteratively in our experiment").  Per-benchmark envelopes set the host
utilisation a VM contributes (CPU-bound x264 runs hotter than I/O-heavy
dedup) and the data rate per compute-second.

Per-profile speed factors carry Table 7's heterogeneity: the Core i7 node
is ~2x faster than the old Xeon on dedup, roughly even on x264, and
~0.66x on bayes, while drawing an order of magnitude less power.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.workloads.base import Job, Workload


@dataclass(frozen=True)
class MicroBenchmark:
    """Static envelope of one benchmark kernel.

    Attributes
    ----------
    name:
        Benchmark id as used in the paper's figures.
    input_gb:
        Data volume of one iteration.
    cpu_share:
        Host utilisation contributed per VM while running.
    gb_per_compute_second:
        Service rate on the Xeon baseline.
    speed_factors:
        Per-server-profile speed multipliers (Table 7); profiles not
        listed default to their generic ``relative_speed``.
    """

    name: str
    input_gb: float
    cpu_share: float
    gb_per_compute_second: float
    speed_factors: dict[str, float] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.input_gb <= 0:
            raise ValueError("input_gb must be positive")
        if not 0.0 < self.cpu_share <= 0.5:
            raise ValueError("cpu_share must be in (0, 0.5]")
        if self.gb_per_compute_second <= 0:
            raise ValueError("gb_per_compute_second must be positive")


def _rate(size_gb: float, seconds_on_xeon: float) -> float:
    """Service rate from one measured iteration on the Xeon node.

    The measured numbers of Table 7 are whole-node (2 VM) figures, so one
    compute-second is half a node-second.
    """
    return size_gb / (seconds_on_xeon * 2.0)


#: Table 5's benchmark suite plus the extra kernels named in Figures 17-19.
MICRO_BENCHMARKS: dict[str, MicroBenchmark] = {
    "dedup": MicroBenchmark(
        name="dedup", input_gb=0.672, cpu_share=0.19,
        gb_per_compute_second=_rate(2.6, 97.0),
        speed_factors={"core-i7": 2.02},
    ),
    "graph": MicroBenchmark(
        name="graph", input_gb=1.3, cpu_share=0.22,
        gb_per_compute_second=_rate(1.3, 210.0),
    ),
    "bayesian": MicroBenchmark(
        name="bayesian", input_gb=2.4, cpu_share=0.21,
        gb_per_compute_second=_rate(4.8, 439.0),
        speed_factors={"core-i7": 0.66},
    ),
    "wordcount": MicroBenchmark(
        name="wordcount", input_gb=1.0, cpu_share=0.18,
        gb_per_compute_second=_rate(1.0, 120.0),
    ),
    "vips": MicroBenchmark(
        name="vips", input_gb=0.044, cpu_share=0.24,
        gb_per_compute_second=_rate(0.044, 14.0),
    ),
    "x264": MicroBenchmark(
        name="x264", input_gb=0.0056, cpu_share=0.25,
        gb_per_compute_second=_rate(0.0056, 4.6),
        speed_factors={"core-i7": 0.98},
    ),
    "sort": MicroBenchmark(
        name="sort", input_gb=3.0, cpu_share=0.17,
        gb_per_compute_second=_rate(3.0, 260.0),
    ),
    "terasort": MicroBenchmark(
        name="terasort", input_gb=3.2, cpu_share=0.20,
        gb_per_compute_second=_rate(3.2, 300.0),
    ),
}

#: The six kernels on the x-axis of Figures 17-19.
FIGURE17_BENCHMARKS = ("x264", "vips", "sort", "graph", "dedup", "terasort")


class MicroWorkload(Workload):
    """Iterated micro-benchmark: always has a next iteration queued."""

    def __init__(self, benchmark: MicroBenchmark | str, profile_name: str = "xeon-dl380") -> None:
        if isinstance(benchmark, str):
            try:
                benchmark = MICRO_BENCHMARKS[benchmark]
            except KeyError:
                raise ValueError(
                    f"unknown benchmark {benchmark!r}; "
                    f"expected one of {sorted(MICRO_BENCHMARKS)}"
                ) from None
        super().__init__(f"micro.{benchmark.name}")
        self.benchmark = benchmark
        speed = benchmark.speed_factors.get(profile_name, 1.0)
        self.gb_per_compute_second = benchmark.gb_per_compute_second * speed
        self.cpu_share = benchmark.cpu_share
        self.preferred_vms = 8
        self._iteration = 0

    def _generate(self, t: float, dt: float) -> None:
        # Keep exactly one iteration in flight: back-to-back execution.
        if not self.queue.pending:
            self._iteration += 1
            self.queue.push(
                Job(
                    f"{self.name}-iter{self._iteration}",
                    self.benchmark.input_gb,
                    t,
                )
            )
