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

from repro.core.system import SiteSpec, day_site
from repro.experiments.runner import run_cells, site_cell
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


@site_cell("fullsystem.run_single")
def run_single(
    controller: str,
    workload_kind: str,
    profile: str,
    solar_mean_w: float,
    seed: int = 1,
    initial_soc: float = 0.55,
    dt: float = 5.0,
) -> SiteSpec:
    """One deterministic full-system day, memoised in the run cache.

    This is the unit of work the parallel runner distributes: module-level
    (picklable) and fully parameterised; called, it returns only the day's
    summary.
    """
    return day_site(controller, workload_kind, profile, mean_w=solar_mean_w,
                    seed=seed, initial_soc=initial_soc, dt=dt)


def _profile_for(solar_mean_w: float) -> str:
    return "sunny" if solar_mean_w >= 800.0 else "cloudy"


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
