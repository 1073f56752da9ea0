"""Power-behaviour demonstrations (Figures 5, 14 and 16).

These experiments reproduce the paper's trace figures:

* Figure 5 — the unified buffer's failure mode: during a seismic run the
  whole bank switches out for protection and the in-situ system goes
  dark.
* Figure 14(a) — timely harvesting: the SPM prioritises low-SoC cabinets
  and charges them in budget-sized batches.
* Figure 14(b) — balanced usage: selective charging by aggregated
  discharge keeps per-cabinet wear even.
* Figure 16 — a full-day InSURE trace with the five characteristic
  regions (initial charging, MPPT power tracking, temporal capping,
  abundant-solar harvesting, fluctuation-induced mismatches).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.system import InSituSystem, build_system
from repro.sim.rng import RandomStreams
from repro.solar.clouds import CloudField
from repro.solar.field import SolarField
from repro.solar.traces import make_day_trace, table6_trace
from repro.workloads import SeismicAnalysis, VideoSurveillance


@dataclass
class Fig5Result:
    """Unified-buffer switch-out demonstration."""

    system: InSituSystem
    switch_out_times: list[float]
    demand_before_w: float
    demand_after_w: float


def run_fig5_unified_switchout(seed: int = 3, hours: float = 4.0) -> Fig5Result:
    """Run the baseline on a seismic afternoon until the bank trips."""
    trace = make_day_trace("cloudy", dt_seconds=5.0, seed=seed, target_mean_w=380.0)
    system = build_system(trace, SeismicAnalysis(), controller="baseline",
                          seed=seed, initial_soc=0.6)
    system.run(hours * 3600.0)
    stops = [d.t for d in system.decisions.of_kind("load.checkpoint_stop")]
    rec = system.recorder
    demand = rec["demand_w"]
    t = rec["t"]
    if stops:
        stop_t = stops[0]
        before = demand[(t > stop_t - 1800) & (t <= stop_t)]
        after = demand[(t > stop_t + 600) & (t <= stop_t + 2400)]
        demand_before = float(before.mean()) if len(before) else 0.0
        demand_after = float(after.mean()) if len(after) else 0.0
    else:
        demand_before = demand_after = float(demand.mean())
    return Fig5Result(
        system=system,
        switch_out_times=stops,
        demand_before_w=demand_before,
        demand_after_w=demand_after,
    )


@dataclass
class Fig14aResult:
    """Charge prioritisation: order cabinets first enter charging."""

    system: InSituSystem
    charge_order: list[str]
    initial_socs: dict[str, float]


def run_fig14a_prioritisation(seed: int = 2) -> Fig14aResult:
    """SPM prioritises low-SoC cabinets when solar becomes abundant."""
    initial = [0.45, 0.55, 0.80]
    trace = make_day_trace("sunny", dt_seconds=5.0, seed=seed,
                           target_mean_w=1100.0)
    system = build_system(trace, VideoSurveillance(), controller="insure",
                          seed=seed, initial_socs=initial)
    system.run(6 * 3600.0)
    order: list[str] = []
    for decision in system.decisions.of_kind("buffer.mode"):
        picked_by_spm = (
            decision.data["to_mode"] == "charging"
            and decision.data["reason"] == "spm-select"
        )
        if picked_by_spm and decision.source not in order:
            order.append(decision.source)
    socs = {u.name: s for u, s in zip(system.bank, initial, strict=True)}
    return Fig14aResult(system=system, charge_order=order, initial_socs=socs)


@dataclass
class Fig14bResult:
    """Discharge balancing across cabinets over a full day."""

    insure_imbalance_ah: float
    baseline_imbalance_ah: float
    insure_per_unit_ah: list[float]


def run_fig14b_balancing(seed: int = 2) -> Fig14bResult:
    """InSURE keeps aggregated per-cabinet discharge nearly even."""
    results = {}
    for controller in ("insure", "baseline"):
        trace = table6_trace("sunny", seed=seed)
        system = build_system(trace, VideoSurveillance(), controller=controller,
                              seed=seed, initial_soc=0.55)
        system.run()
        results[controller] = system
    insure_bank = results["insure"].bank
    return Fig14bResult(
        insure_imbalance_ah=insure_bank.discharge_imbalance(),
        baseline_imbalance_ah=results["baseline"].bank.discharge_imbalance(),
        insure_per_unit_ah=[u.wear.discharge_ah for u in insure_bank],
    )


@dataclass
class Fig16Result:
    """Full-day trace with the five characteristic regions."""

    system: InSituSystem
    had_morning_charging: bool
    capping_events: int
    checkpoint_stops: int
    abundant_fraction: float
    mppt_tracking_std_w: float


def run_fig16_fullday(seed: int = 4) -> Fig16Result:
    """Day-long live-MPPT InSURE run exhibiting Regions A-E."""
    streams = RandomStreams(seed)
    clouds = CloudField.cloudy(streams.stream("fig16.clouds"))
    field = SolarField("solar", clouds)
    system = build_system(None, SeismicAnalysis(), controller="insure",
                          seed=seed, initial_soc=0.5, source=field)
    system.run(13 * 3600.0)

    rec = system.recorder
    solar = rec["solar_w"]
    demand = rec["demand_w"]
    third = max(1, len(solar) // 3)

    # Region A: cabinets enter charging during the first third of the day.
    first_third_s = (13 * 3600.0) / 3.0
    had_morning_charging = any(
        d.data["to_mode"] == "charging" and d.t <= first_third_s
        for d in system.decisions.of_kind("buffer.mode")
    )
    # Region C: temporal control — duty capping, or the stronger form,
    # VM checkpointing with server shutdown (the paper's Region C case).
    capping = len(system.decisions.of_kind("dvfs.duty"))
    stops = len(system.decisions.of_kind("load.checkpoint_stop"))
    # Region D: abundant solar (solar exceeds demand).
    abundant = float(np.mean(solar > demand))
    # Region B/E: tracking ripple of the MPPT output.
    mid = solar[third: 2 * third]
    ripple = float(np.std(np.diff(mid))) if len(mid) > 2 else 0.0

    return Fig16Result(
        system=system,
        had_morning_charging=had_morning_charging,
        capping_events=capping,
        checkpoint_stops=stops,
        abundant_fraction=abundant,
        mppt_tracking_std_w=ripple,
    )
