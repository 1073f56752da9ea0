"""Full-system evaluation (Figures 20 and 21).

Runs the complete installation on the paper's scaled solar traces
(1000 W and 500 W average) under InSURE and the baseline, for the batch
(seismic) and stream (video) case studies, and reports the six-metric
improvement vectors.

Each (controller, workload, solar, seed) cell is an independent
deterministic run, so the figure matrices fan out through
:mod:`repro.experiments.runner` and individual cell summaries are memoised
in the content-addressed run cache (:mod:`repro.sim.cache`) — repeating an
identical configuration replays from disk instead of re-simulating.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.system import build_day_system
from repro.experiments.runner import run_cells
from repro.sim.cache import cached_cell
from repro.telemetry.analyzer import all_improvements
from repro.telemetry.metrics import RunSummary

#: Figures 20-21 solar operating points.
HIGH_MEAN_W = 1000.0
LOW_MEAN_W = 500.0


@dataclass
class ComparisonResult:
    """InSURE vs baseline at one operating point."""

    workload: str
    solar_mean_w: float
    insure: RunSummary
    baseline: RunSummary

    @property
    def improvements(self) -> dict[str, float]:
        return all_improvements(self.insure, self.baseline)


@cached_cell("fullsystem.run_single")
def run_single(
    controller: str,
    workload_kind: str,
    profile: str,
    solar_mean_w: float,
    seed: int = 1,
    initial_soc: float = 0.55,
    dt: float = 5.0,
) -> RunSummary:
    """One deterministic full-system run, memoised in the run cache.

    This is the unit of work the parallel runner distributes: module-level
    (picklable), fully parameterised, and returning only the summary.
    """
    system = build_day_system(
        controller, workload_kind, profile, mean_w=solar_mean_w, seed=seed,
        initial_soc=initial_soc, dt=dt,
    )
    return system.run()


def _profile_for(solar_mean_w: float) -> str:
    return "sunny" if solar_mean_w >= 800.0 else "cloudy"


def run_fullsystem_comparison(
    workload_kind: str,
    solar_mean_w: float,
    seed: int = 1,
    initial_soc: float = 0.55,
    dt: float = 5.0,
    use_cache: bool = True,
) -> ComparisonResult:
    """One cell of the Figures 20/21 matrix."""
    profile = _profile_for(solar_mean_w)
    results: dict[str, RunSummary] = {}
    for controller in ("insure", "baseline"):
        results[controller] = run_single(
            controller, workload_kind, profile, solar_mean_w,
            seed=seed, initial_soc=initial_soc, dt=dt, use_cache=use_cache,
        )
    return ComparisonResult(
        workload=workload_kind,
        solar_mean_w=solar_mean_w,
        insure=results["insure"],
        baseline=results["baseline"],
    )


def _run_figure_matrix(
    workload_kind: str,
    seed: int,
    max_workers: int | None,
    use_cache: bool,
    backend: str | None = None,
) -> dict[str, ComparisonResult]:
    """Fan the four (level × controller) cells out across workers."""
    cells = []
    for mean_w in (HIGH_MEAN_W, LOW_MEAN_W):
        for controller in ("insure", "baseline"):
            cells.append(dict(
                controller=controller,
                workload_kind=workload_kind,
                profile=_profile_for(mean_w),
                solar_mean_w=mean_w,
                seed=seed,
                use_cache=use_cache,
            ))
    summaries = run_cells(run_single, cells, max_workers=max_workers,
                          backend=backend)
    results = {}
    for label, mean_w, offset in (("high", HIGH_MEAN_W, 0), ("low", LOW_MEAN_W, 2)):
        results[label] = ComparisonResult(
            workload=workload_kind,
            solar_mean_w=mean_w,
            insure=summaries[offset],
            baseline=summaries[offset + 1],
        )
    return results


def run_figure20(
    seed: int = 1,
    max_workers: int | None = None,
    use_cache: bool = True,
    backend: str | None = None,
) -> dict[str, ComparisonResult]:
    """Figure 20: in-situ batch job at high and low solar."""
    return _run_figure_matrix("seismic", seed, max_workers, use_cache, backend)


def run_figure21(
    seed: int = 1,
    max_workers: int | None = None,
    use_cache: bool = True,
    backend: str | None = None,
) -> dict[str, ComparisonResult]:
    """Figure 21: in-situ data stream at high and low solar."""
    return _run_figure_matrix("video", seed, max_workers, use_cache, backend)
