"""Micro-benchmark sweep (Figures 17, 18 and 19).

For each of the six kernels on the figures' x-axes and the two Figure 15
solar traces, run InSURE against the unoptimised baseline and report the
improvement in service availability (Fig. 17), e-Buffer energy
availability (Fig. 18) and expected e-Buffer service life (Fig. 19).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.system import build_system
from repro.experiments.runner import run_cells
from repro.sim.cache import cached_cell
from repro.solar.traces import HIGH_TRACE_MEAN_W, LOW_TRACE_MEAN_W, make_day_trace
from repro.telemetry.analyzer import improvement
from repro.telemetry.metrics import RunSummary
from repro.workloads.micro import FIGURE17_BENCHMARKS, MicroWorkload


def _solar_point(solar_level: str) -> tuple[float, str]:
    if solar_level == "high":
        return HIGH_TRACE_MEAN_W, "sunny"
    if solar_level == "low":
        return LOW_TRACE_MEAN_W, "cloudy"
    raise ValueError(f"solar_level must be 'high' or 'low', got {solar_level!r}")


@cached_cell("micro_sweep.cell")
def run_micro_cell(
    benchmark: str,
    solar_level: str,
    controller: str,
    seed: int = 1,
    initial_soc: float = 0.55,
    dt: float = 5.0,
) -> RunSummary:
    """One (benchmark, solar, controller) run, memoised (picklable)."""
    mean_w, profile = _solar_point(solar_level)
    trace = make_day_trace(profile, dt_seconds=dt, seed=seed,
                           target_mean_w=mean_w)
    system = build_system(
        trace,
        MicroWorkload(benchmark),
        controller=controller,
        seed=seed,
        initial_soc=initial_soc,
        dt=dt,
    )
    return system.run()


@dataclass
class MicroComparison:
    """InSURE vs baseline for one benchmark at one solar level."""

    benchmark: str
    solar_level: str
    insure: RunSummary
    baseline: RunSummary

    @property
    def availability_improvement(self) -> float:
        """Figure 17's bar."""
        return improvement(self.insure.uptime_fraction,
                           self.baseline.uptime_fraction)

    @property
    def energy_availability_improvement(self) -> float:
        """Figure 18's bar."""
        return improvement(self.insure.energy_availability_wh,
                           self.baseline.energy_availability_wh)

    @property
    def service_life_improvement(self) -> float:
        """Figure 19's bar."""
        return improvement(self.insure.projected_life_days,
                           self.baseline.projected_life_days)


def run_micro_comparison(
    benchmark: str,
    solar_level: str,
    seed: int = 1,
    initial_soc: float = 0.55,
    dt: float = 5.0,
    use_cache: bool = True,
) -> MicroComparison:
    """One benchmark x solar-level cell of Figures 17-19."""
    _solar_point(solar_level)  # validate the level before running anything
    results: dict[str, RunSummary] = {}
    for controller in ("insure", "baseline"):
        results[controller] = run_micro_cell(
            benchmark, solar_level, controller,
            seed=seed, initial_soc=initial_soc, dt=dt, use_cache=use_cache,
        )
    return MicroComparison(
        benchmark=benchmark,
        solar_level=solar_level,
        insure=results["insure"],
        baseline=results["baseline"],
    )


def run_micro_sweep(
    benchmarks: tuple[str, ...] = FIGURE17_BENCHMARKS,
    solar_levels: tuple[str, ...] = ("high", "low"),
    seed: int = 1,
    max_workers: int | None = None,
    use_cache: bool = True,
) -> list[MicroComparison]:
    """The full Figures 17-19 sweep, fanned out across worker processes."""
    pairs = [(b, lvl) for b in benchmarks for lvl in solar_levels]
    cells = [
        dict(
            benchmark=benchmark,
            solar_level=level,
            controller=controller,
            seed=seed,
            use_cache=use_cache,
        )
        for benchmark, level in pairs
        for controller in ("insure", "baseline")
    ]
    summaries = run_cells(run_micro_cell, cells, max_workers=max_workers)
    return [
        MicroComparison(
            benchmark=benchmark,
            solar_level=level,
            insure=summaries[2 * i],
            baseline=summaries[2 * i + 1],
        )
        for i, (benchmark, level) in enumerate(pairs)
    ]


def sweep_averages(comparisons: list[MicroComparison]) -> dict[str, dict[str, float]]:
    """The figures' "avg." bars, per solar level."""
    averages: dict[str, dict[str, float]] = {}
    for level in dict.fromkeys(c.solar_level for c in comparisons):
        subset = [c for c in comparisons if c.solar_level == level]
        averages[level] = {
            "availability": sum(c.availability_improvement for c in subset) / len(subset),
            "energy_availability": sum(
                c.energy_availability_improvement for c in subset
            ) / len(subset),
            "service_life": sum(c.service_life_improvement for c in subset) / len(subset),
        }
    return averages
