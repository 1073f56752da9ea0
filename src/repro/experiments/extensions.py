"""Extension experiments beyond the paper's headline evaluation.

The paper's discussion sections motivate three follow-ups we implement:

* **Heterogeneous low-power nodes** (§6.2/Table 7: "by using low-power
  servers, InSURE can improve data throughput by 5x-15x") — a full-day
  run of an InSURE pod built from Core i7 nodes versus the Xeon pod.
* **Secondary power** (Fig. 6 "supports a secondary power if available")
  — a rainy day with and without a diesel backup genset.
* **Multi-day operation** — several consecutive days with overnight gaps,
  exercising the SPM's budget carry-over (D_U of Eq. 1) and the wear
  model's long-horizon projections.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.cluster.profiles import CORE_I7, XEON_DL380
from repro.core.system import build_day_system, build_system
from repro.experiments.runner import run_cells
from repro.power.secondary import DieselGenerator, HybridSource
from repro.sim.cache import cached_cell
from repro.solar.field import TracePlayer
from repro.solar.traces import DayTrace, make_day_trace
from repro.telemetry.metrics import RunSummary
from repro.workloads import VideoSurveillance

_SERVER_PROFILES = {"xeon": XEON_DL380, "i7": CORE_I7}


@dataclass
class HeteroResult:
    """Xeon pod versus Core i7 pod over the same day."""

    xeon: RunSummary
    i7: RunSummary

    @property
    def throughput_gain(self) -> float:
        if self.xeon.throughput_gb_per_hour <= 0:
            return float("inf")
        return self.i7.throughput_gb_per_hour / self.xeon.throughput_gb_per_hour

    @property
    def perf_per_kwh_gain(self) -> float:
        xeon_eff = self.xeon.processed_gb / max(self.xeon.load_energy_kwh, 1e-9)
        i7_eff = self.i7.processed_gb / max(self.i7.load_energy_kwh, 1e-9)
        return i7_eff / max(xeon_eff, 1e-9)


@cached_cell("extensions.hetero")
def run_hetero_cell(
    server_kind: str,
    seed: int = 5,
    mean_w: float = 500.0,
) -> RunSummary:
    """One cloudy-day run on a given server generation (picklable)."""
    system = build_day_system(
        "insure", "video", "cloudy", mean_w=mean_w, seed=seed,
        initial_soc=0.55, server_profile=_SERVER_PROFILES[server_kind],
    )
    return system.run()


def run_heterogeneous_day(
    seed: int = 5,
    mean_w: float = 500.0,
    max_workers: int | None = None,
    use_cache: bool = True,
) -> HeteroResult:
    """Same cloudy day and buffer; only the server generation differs."""
    cells = [
        dict(server_kind=kind, seed=seed, mean_w=mean_w, use_cache=use_cache)
        for kind in ("xeon", "i7")
    ]
    xeon, i7 = run_cells(run_hetero_cell, cells, max_workers=max_workers)
    return HeteroResult(xeon=xeon, i7=i7)


@dataclass
class BackupResult:
    """Rainy day with and without a diesel backup."""

    solar_only: RunSummary
    with_backup: RunSummary
    fuel_litres: float
    fuel_cost_usd: float
    genset_starts: int

    @property
    def uptime_gain(self) -> float:
        base = max(self.solar_only.uptime_fraction, 1e-9)
        return self.with_backup.uptime_fraction / base - 1.0


def run_backup_day(seed: int = 6) -> BackupResult:
    """A rainy day (3 kWh of solar) with a 2 kW genset as secondary."""
    trace = make_day_trace("rainy", seed=seed, target_energy_kwh=3.0)

    solar_system = build_system(trace, VideoSurveillance(), controller="insure",
                                seed=seed, initial_soc=0.4)
    solar_summary = solar_system.run()

    backup_trace = make_day_trace("rainy", seed=seed, target_energy_kwh=3.0)
    generator = DieselGenerator()
    hybrid = HybridSource(
        "hybrid", TracePlayer("solar", backup_trace), generator
    )
    hybrid_system = build_system(None, VideoSurveillance(), controller="insure",
                                 seed=seed, initial_soc=0.4, source=hybrid)
    hybrid_summary = hybrid_system.run(backup_trace.duration_s)

    return BackupResult(
        solar_only=solar_summary,
        with_backup=hybrid_summary,
        fuel_litres=generator.fuel_litres,
        fuel_cost_usd=generator.fuel_cost_usd,
        genset_starts=generator.starts,
    )


@dataclass
class StoragePressureResult:
    """Rainy-day surveillance with an undersized raw-data buffer."""

    insure: RunSummary
    baseline: RunSummary

    @property
    def loss_reduction(self) -> float:
        """Fraction of the baseline's data loss that InSURE avoids."""
        if self.baseline.dropped_gb <= 0:
            return 0.0
        return 1.0 - self.insure.dropped_gb / self.baseline.dropped_gb


@cached_cell("extensions.storage_pressure")
def run_storage_cell(
    controller: str,
    seed: int = 8,
    disk_gb: float = 10.0,
) -> RunSummary:
    """One storage-pressure run for a given controller (picklable)."""
    trace = make_day_trace("sunny", seed=seed, target_energy_kwh=9.5)
    workload = VideoSurveillance(rate_gb_per_min=0.105)
    system = build_system(trace, workload, controller=controller,
                          seed=seed, initial_soc=0.35, storage_gb=disk_gb)
    return system.run()


def run_storage_pressure_day(
    seed: int = 8,
    disk_gb: float = 10.0,
    max_workers: int | None = None,
    use_cache: bool = True,
) -> StoragePressureResult:
    """A 12-camera surveillance day with only ``disk_gb`` of buffer.

    The stream keeps arriving whether or not the servers run, and the
    undersized disk holds less than two hours of footage: whoever spends
    longer dark overwrites footage it can never recover, even with energy
    to spare later.  (With the full 24-camera load, loss is energy-bound
    and both systems drop alike — the interesting regime is this one.)
    """
    cells = [
        dict(controller=controller, seed=seed, disk_gb=disk_gb,
             use_cache=use_cache)
        for controller in ("insure", "baseline")
    ]
    insure, baseline = run_cells(run_storage_cell, cells,
                                 max_workers=max_workers)
    return StoragePressureResult(insure=insure, baseline=baseline)


@dataclass
class MultiDayResult:
    """Several consecutive days of standalone operation."""

    per_day: list[RunSummary]
    total_processed_gb: float
    final_life_days: float
    discharge_imbalance_ah: float


def _multi_day_trace(days: int, seed: int, mean_w: float, dt: float) -> DayTrace:
    """Concatenate day traces with 11-hour overnight gaps."""
    profiles = ("sunny", "cloudy", "rainy")
    night = np.zeros(int(11 * 3600 / dt))
    pieces = []
    for day in range(days):
        trace = make_day_trace(profiles[day % 3], dt_seconds=dt,
                               seed=seed + day, target_mean_w=mean_w)
        pieces.append(trace.power_w)
        if day != days - 1:
            pieces.append(night)
    return DayTrace(start_hour=7.0, dt_seconds=dt,
                    power_w=np.concatenate(pieces))


def run_multiday(days: int = 3, seed: int = 9, mean_w: float = 700.0,
                 dt: float = 10.0) -> MultiDayResult:
    """Run ``days`` consecutive days under InSURE; summarise per day."""
    if days < 1:
        raise ValueError("days must be >= 1")
    trace = _multi_day_trace(days, seed, mean_w, dt)
    system = build_system(trace, VideoSurveillance(), controller="insure",
                          seed=seed, initial_soc=0.55, dt=dt)
    per_day: list[RunSummary] = []
    day_length = (13 + 11) * 3600.0
    for day in range(days):
        duration = min(day_length, trace.duration_s - day * day_length)
        system.engine.run(duration)
        per_day.append(system.metrics.summary())
    final = per_day[-1]
    return MultiDayResult(
        per_day=per_day,
        total_processed_gb=final.processed_gb,
        final_life_days=final.projected_life_days,
        discharge_imbalance_ah=final.discharge_imbalance_ah,
    )
