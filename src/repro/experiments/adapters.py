"""Adapters that route experiment cells onto the vectorized fleet kernel.

The ``fleet`` backend of :func:`repro.experiments.runner.run_cells` needs
to turn a cell — a kwargs mapping for a scalar, picklable cell function —
into a :class:`~repro.sim.fleet.kernel.SiteSpec`, and the kernel's summary
dict back into the :class:`~repro.telemetry.metrics.RunSummary` the caller
expects.  Each supported cell function registers a spec builder here,
keyed by its dotted name so this module never imports the experiment
modules at import time (they import the runner, which imports us lazily).

Fleet results are memoised in the same on-disk run cache as scalar cells,
keyed like them on the cell function's bound arguments (see
:func:`repro.sim.cache.cached_cell`) but under ``fleet.<namespace>``:
the vectorized kernel is only tolerance-equal to the scalar reference
(see :mod:`repro.sim.fleet.validator`), so its summaries must never
replay as scalar ones, and vice versa.
"""

from __future__ import annotations

from collections.abc import Callable, Mapping, Sequence
from typing import Any

from repro.sim.fleet import FleetUnsupported
from repro.sim.fleet.kernel import SiteSpec, simulate_fleet
from repro.telemetry.metrics import RunSummary


def _spec_fullsystem(controller: str, workload_kind: str, profile: str,
                     solar_mean_w: float, seed: int, initial_soc: float,
                     dt: float) -> SiteSpec:
    """repro.experiments.fullsystem.run_single."""
    from repro.solar.traces import make_day_trace

    trace = make_day_trace(profile, dt_seconds=dt, seed=seed,
                           target_mean_w=solar_mean_w)
    return SiteSpec(
        controller=controller,
        workload=workload_kind,
        seed=seed,
        initial_soc=initial_soc,
        trace_power_w=trace.power_w,
        trace_dt_s=dt,
        dt_s=dt,
    )


def _spec_table6(day: str, controller: str, seed: int, initial_soc: float,
                 dt: float) -> SiteSpec:
    """repro.experiments.table6.run_table6_cell."""
    from repro.solar.traces import table6_trace

    trace = table6_trace(day, dt_seconds=dt, seed=seed)
    return SiteSpec(
        controller=controller,
        workload="seismic",
        seed=seed,
        initial_soc=initial_soc,
        trace_power_w=trace.power_w,
        trace_dt_s=dt,
        dt_s=dt,
    )


def _spec_provisioning(battery_count: int, solar_scale: float, seed: int,
                       mean_w: float) -> SiteSpec:
    """repro.experiments.provisioning.run_provisioning_cell."""
    from repro.experiments.provisioning import _day_and_night_trace

    trace = _day_and_night_trace(seed, mean_w * solar_scale)
    return SiteSpec(
        controller="insure",
        workload="video",
        seed=seed,
        initial_soc=0.55,
        trace_power_w=trace.power_w,
        trace_dt_s=trace.dt_seconds,
        battery_count=battery_count,
        dt_s=trace.dt_seconds,
    )


def _spec_scenario(scenario: str, seed: int | None, initial_soc: float,
                   dt: float, target_mean_w: float) -> SiteSpec:
    """repro.experiments.scenarios.run_scenario_cell."""
    from repro.experiments.scenarios import get_scenario, scenario_seed
    from repro.solar.traces import make_day_trace

    try:
        spec = get_scenario(scenario)
    except ValueError as exc:
        raise FleetUnsupported(str(exc)) from None
    if seed is None:
        seed = scenario_seed(scenario)
    trace = make_day_trace(spec.weather, dt_seconds=dt, seed=seed,
                           target_mean_w=target_mean_w)
    return SiteSpec(
        controller=spec.controller,
        workload=spec.workload,
        seed=seed,
        initial_soc=initial_soc,
        trace_power_w=trace.power_w,
        trace_dt_s=dt,
        dt_s=dt,
        scenario=scenario,
    )


#: Dotted cell-function name -> SiteSpec builder taking the cell's bound
#: arguments (see :func:`repro.sim.cache.cached_cell`).
_ADAPTERS: dict[str, Callable[..., SiteSpec]] = {
    "repro.experiments.fullsystem.run_single": _spec_fullsystem,
    "repro.experiments.table6.run_table6_cell": _spec_table6,
    "repro.experiments.provisioning.run_provisioning_cell": _spec_provisioning,
    "repro.experiments.scenarios.run_scenario_cell": _spec_scenario,
}


def _fn_name(fn: Callable[..., Any]) -> str:
    return f"{getattr(fn, '__module__', '?')}.{getattr(fn, '__qualname__', '?')}"


def has_adapter(fn: Callable[..., Any]) -> bool:
    """Whether run_cells_fleet can route this cell function."""
    return _fn_name(fn) in _ADAPTERS


def run_cells_fleet(
    fn: Callable[..., Any], cells: Sequence[Mapping[str, Any]]
) -> list[RunSummary]:
    """Run every cell through the fleet kernel; results in input order.

    Raises :class:`FleetUnsupported` when the cell function has no
    adapter or any cell cannot be expressed as a :class:`SiteSpec` — the
    runner's signal to route the batch back to the pool/serial path.
    """
    name = _fn_name(fn)
    if name not in _ADAPTERS:
        raise FleetUnsupported(f"no fleet adapter for cell function {name}")
    builder = _ADAPTERS[name]
    namespace = "fleet." + fn.namespace

    from repro.sim.cache import (
        cache_key,
        default_cache,
        summary_from_payload,
        summary_to_payload,
    )

    specs: list[SiteSpec] = []
    keys: list[str | None] = []
    results: list[RunSummary | None] = [None] * len(cells)
    pending: list[int] = []
    cache = default_cache()
    for index, cell in enumerate(cells):
        try:
            params, use_cache = fn.bind(**cell)
        except TypeError as exc:
            raise FleetUnsupported(
                f"cell #{index} does not fit {name}: {exc}"
            ) from exc
        key = (cache_key(namespace, **params)
               if use_cache and cache.enabled else None)
        if key is not None:
            cached = cache.get(key)
            if cached is not None:
                results[index] = summary_from_payload(cached)
                continue
        specs.append(builder(**params))
        keys.append(key)
        pending.append(index)

    if pending:
        summaries = simulate_fleet(specs)
        for index, key, summary in zip(pending, keys, summaries, strict=True):
            run = RunSummary(**summary)
            if key is not None:
                cache.put(key, summary_to_payload(run))
            results[index] = run
    return results  # type: ignore[return-value]
