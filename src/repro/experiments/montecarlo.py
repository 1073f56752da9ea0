"""Monte Carlo provisioning: distributions, not seed-triple averages.

The provisioning sweep (:mod:`repro.experiments.provisioning`) averages
three cloud seeds per e-Buffer size — enough for the diminishing-returns
trend, far too few for tail statistics ("what buffer size keeps p5 uptime
above 90 %?").  This mode fans hundreds of seed-varied day-and-night runs
per configuration through :func:`repro.experiments.runner.run_cells` with
the ``fleet`` backend (falling back to the pool for cells it cannot
batch), and reports per-configuration percentile envelopes instead of means.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.experiments.provisioning import run_provisioning_cell
from repro.experiments.runner import derive_seed, run_cells

#: Percentiles reported for every metric envelope.
PERCENTILES = (5, 25, 50, 75, 95)


@dataclass(frozen=True)
class MonteCarloPoint:
    """Distributional outcome of one (battery_count, solar_scale) config."""

    battery_count: int
    solar_scale: float
    samples: int
    uptime_pct: dict[int, float]      # percentile -> uptime fraction
    processed_pct: dict[int, float]   # percentile -> processed GB
    min_voltage_pct: dict[int, float]  # percentile -> min battery voltage

    def describe(self) -> str:
        up = ", ".join(f"p{p}={v * 100:.1f}%"
                       for p, v in sorted(self.uptime_pct.items()))
        return (f"{self.battery_count} cabinets x{self.solar_scale:g}: "
                f"uptime {up}")


def monte_carlo_cells(
    battery_counts: tuple[int, ...],
    solar_scale: float,
    samples: int,
    base_seed: int,
    mean_w: float,
    use_cache: bool,
) -> list[dict]:
    """The cell grid, in (battery_count, sample) order."""
    return [
        dict(
            battery_count=count,
            solar_scale=solar_scale,
            seed=derive_seed(base_seed, "montecarlo", count, sample),
            mean_w=mean_w,
            use_cache=use_cache,
        )
        for count in battery_counts
        for sample in range(samples)
    ]


def run_monte_carlo(
    battery_counts: tuple[int, ...] = (2, 3, 4, 5),
    solar_scale: float = 1.0,
    samples: int = 64,
    base_seed: int = 7,
    mean_w: float = 900.0,
    backend: str | None = "fleet",
    max_workers: int | None = None,
    use_cache: bool = True,
) -> list[MonteCarloPoint]:
    """Percentile envelopes per buffer size over seed-randomised days.

    Each sample replays the day-and-night provisioning cell on a distinct
    sha256-derived seed, so the cloud/noise realisations are independent
    but reproducible.  With the ``fleet`` backend the whole grid runs as
    one SoA batch per battery count; unsupported environments degrade to
    the process pool transparently.
    """
    if samples < 1:
        raise ValueError(f"samples must be at least 1, got {samples}")
    cells = monte_carlo_cells(battery_counts, solar_scale, samples,
                              base_seed, mean_w, use_cache)
    summaries = run_cells(run_provisioning_cell, cells,
                          max_workers=max_workers, backend=backend)
    points = []
    for i, count in enumerate(battery_counts):
        block = summaries[i * samples:(i + 1) * samples]
        metrics = [[s.uptime_fraction for s in block],
                   [s.processed_gb for s in block],
                   [s.min_battery_voltage for s in block]]
        uptime, processed, min_v = (
            dict(zip(PERCENTILES, row))
            for row in np.percentile(metrics, PERCENTILES, axis=1).T.tolist()
        )
        points.append(MonteCarloPoint(
            battery_count=count,
            solar_scale=solar_scale,
            samples=samples,
            uptime_pct=uptime,
            processed_pct=processed,
            min_voltage_pct=min_v,
        ))
    return points


def format_monte_carlo(points: list[MonteCarloPoint]) -> str:
    """Render the percentile envelopes as a fixed-width table."""
    header = (f"{'Cabinets':>8s} {'Samples':>7s} "
              + " ".join(f"{'up p' + str(p):>8s}" for p in PERCENTILES)
              + " " + " ".join(f"{'GB p' + str(p):>8s}" for p in (5, 50, 95)))
    lines = [header, "-" * len(header)]
    for point in points:
        lines.append(
            f"{point.battery_count:>8d} {point.samples:>7d} "
            + " ".join(f"{point.uptime_pct[p] * 100:>7.1f}%"
                       for p in PERCENTILES)
            + " " + " ".join(f"{point.processed_pct[p]:>8.1f}"
                             for p in (5, 50, 95))
        )
    return "\n".join(lines)
