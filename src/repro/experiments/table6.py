"""Table 6: day-long operation logs, Opt vs No-Opt.

Three day archetypes (sunny 7.9 kWh, cloudy 5.9 kWh, rainy 3.0 kWh), each
run with the spatio-temporal optimisation (InSURE) and without it (the
unified-buffer baseline).  Each pair replays the same solar trace, just as
the authors replayed recorded traces through their charger.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.system import SiteSpec
from repro.experiments.runner import run_cells, site_cell
from repro.solar.traces import DAY_ENERGY_KWH, table6_trace
from repro.telemetry.analyzer import table6_row
from repro.telemetry.metrics import RunSummary

_SCHEMES = (("Opt", "insure"), ("Non-Opt", "baseline"))


@dataclass
class Table6Cell:
    """One (day, scheme) cell with the paper's log-derived columns."""

    day: str
    scheme: str  # "Opt" or "Non-Opt"
    summary: RunSummary

    @property
    def row(self) -> dict[str, float | int]:
        return table6_row(self.summary)


@site_cell("table6.cell")
def run_table6_cell(
    day: str,
    controller: str,
    seed: int = 1,
    initial_soc: float = 0.55,
    dt: float = 5.0,
) -> SiteSpec:
    """One day-long Table 6 run, memoised in the run cache (picklable)."""
    trace = table6_trace(day, dt_seconds=dt, seed=seed)
    return SiteSpec(controller, "seismic", seed, initial_soc, trace.power_w, dt)


def run_table6(
    days: tuple[str, ...] = ("sunny", "cloudy", "rainy"),
    seed: int = 1,
    initial_soc: float = 0.55,
    dt: float = 5.0,
    max_workers: int | None = None,
    use_cache: bool = True,
    backend: str | None = None,
) -> list[Table6Cell]:
    """All six Table 6 cells, fanned out across worker processes."""
    labels: list[tuple[str, str]] = []
    cells: list[dict] = []
    for day in days:
        if day not in DAY_ENERGY_KWH:
            raise ValueError(f"unknown day archetype {day!r}")
        for scheme, controller in _SCHEMES:
            labels.append((day, scheme))
            cells.append(dict(
                day=day,
                controller=controller,
                seed=seed,
                initial_soc=initial_soc,
                dt=dt,
                use_cache=use_cache,
            ))
    summaries = run_cells(run_table6_cell, cells, max_workers=max_workers,
                          backend=backend)
    return [
        Table6Cell(day=day, scheme=scheme, summary=summary)
        for (day, scheme), summary in zip(labels, summaries, strict=True)
    ]


def format_table6(cells: list[Table6Cell]) -> str:
    """Render the cells as the paper's table layout."""
    header = (
        f"{'Day':7s} {'Scheme':8s} {'Load kWh':>9s} {'Eff. kWh':>9s} "
        f"{'PwrCtrl':>8s} {'On/Off':>7s} {'VMCtrl':>7s} "
        f"{'MinV':>6s} {'EndV':>6s} {'Vsigma':>7s}"
    )
    lines = [header, "-" * len(header)]
    for cell in cells:
        r = cell.row
        lines.append(
            f"{cell.day:7s} {cell.scheme:8s} {r['load_kwh']:9.2f} "
            f"{r['effective_kwh']:9.2f} {r['power_ctrl_times']:8d} "
            f"{r['on_off_cycles']:7d} {r['vm_ctrl_times']:7d} "
            f"{r['min_battery_volt']:6.1f} {r['end_of_day_volt']:6.1f} "
            f"{r['battery_volt_sigma']:7.2f}"
        )
    return "\n".join(lines)
