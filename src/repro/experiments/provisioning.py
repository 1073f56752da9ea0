"""Provisioning sensitivity sweeps.

§6.5 of the paper closes on the open question: "Over-provisioning
increases the TCO of InSURE and changes the position of the intersection
point."  This experiment quantifies it on our substrate: sweep the
e-Buffer size (and optionally the solar array scale), measure what each
increment buys in uptime/throughput, and price it with the cost models.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.system import SiteSpec
from repro.experiments.runner import run_cells, site_cell
from repro.solar.traces import DayTrace, make_day_trace
from repro.telemetry.metrics import RunSummary

#: Annualised cost increments (USD/yr) from the Figure 22 breakdown.
BATTERY_CABINET_USD_PER_YEAR = 105.0   # one 24 V / 35 Ah cabinet
SOLAR_USD_PER_KW_YEAR = 175.0          # panels + inverter share


@dataclass(frozen=True)
class ProvisioningPoint:
    """One configuration of the sweep (seed-averaged)."""

    battery_count: int
    solar_scale: float
    processed_gb: float
    uptime_fraction: float
    summaries: tuple[RunSummary, ...]

    @property
    def extra_cost_usd_year(self) -> float:
        """Annualised cost above the paper's 3-cabinet/1.0x reference."""
        battery = (self.battery_count - 3) * BATTERY_CABINET_USD_PER_YEAR
        solar = (self.solar_scale - 1.0) * 1.6 * SOLAR_USD_PER_KW_YEAR
        return battery + solar


def _day_and_night_trace(seed: int, mean_w: float, dt: float = 5.0) -> DayTrace:
    """A sunny day followed by a dark night: the regime where stored
    energy (not solar) is the binding resource."""
    day = make_day_trace("sunny", seed=seed, dt_seconds=dt,
                         target_mean_w=mean_w)
    night = np.zeros(int(11 * 3600 / dt))
    return DayTrace(start_hour=day.start_hour, dt_seconds=dt,
                    power_w=np.concatenate([day.power_w, night]))


@site_cell("provisioning.cell")
def run_provisioning_cell(
    battery_count: int,
    solar_scale: float,
    seed: int,
    mean_w: float = 900.0,
) -> SiteSpec:
    """One (buffer size, seed) day-and-night run, memoised (picklable)."""
    trace = _day_and_night_trace(seed, mean_w * solar_scale)
    return SiteSpec("insure", "video", seed, 0.55, trace.power_w, trace.dt_seconds,
                    battery_count=battery_count)


def run_provisioning_sweep(
    battery_counts: tuple[int, ...] = (2, 3, 4, 5),
    solar_scale: float = 1.0,
    seeds: tuple[int, ...] = (12, 21, 34),
    mean_w: float = 900.0,
    max_workers: int | None = None,
    use_cache: bool = True,
    backend: str | None = None,
) -> list[ProvisioningPoint]:
    """Sweep the e-Buffer size over a full 24 h (day + night).

    During the day solar binds and buffer size barely matters; through
    the night every extra cabinet is extra serving time — which is where
    over-provisioning earns (or fails to earn) its cost.  Results are
    averaged over several cloud seeds: single days are noisy.  The
    count x seed grid fans out across worker processes.
    """
    cells = [
        dict(
            battery_count=count,
            solar_scale=solar_scale,
            seed=seed,
            mean_w=mean_w,
            use_cache=use_cache,
        )
        for count in battery_counts
        for seed in seeds
    ]
    all_summaries = run_cells(run_provisioning_cell, cells,
                              max_workers=max_workers, backend=backend)
    points = []
    for i, count in enumerate(battery_counts):
        summaries = all_summaries[i * len(seeds):(i + 1) * len(seeds)]
        points.append(ProvisioningPoint(
            battery_count=count,
            solar_scale=solar_scale,
            processed_gb=sum(s.processed_gb for s in summaries) / len(summaries),
            uptime_fraction=sum(s.uptime_fraction for s in summaries) / len(summaries),
            summaries=tuple(summaries),
        ))
    return points


def diminishing_returns(points: list[ProvisioningPoint]) -> list[float]:
    """Marginal GB processed per added cabinet, in sweep order."""
    if len(points) < 2:
        raise ValueError("need at least two points")
    gains = []
    for previous, current in zip(points, points[1:], strict=False):
        gains.append(current.processed_gb - previous.processed_gb)
    return gains
