"""Log analysis helpers for the paper's comparison tables."""

from __future__ import annotations

from collections.abc import Iterable, Mapping, Sequence
from typing import Any

import numpy as np

from repro.telemetry.metrics import RunSummary


def improvement(optimised: float, baseline: float, higher_is_better: bool = True) -> float:
    """Relative improvement of ``optimised`` over ``baseline``.

    For lower-is-better metrics (latency), pass ``higher_is_better=False``
    and the sign convention still yields positive = improvement.
    """
    if baseline == 0:
        return 0.0 if optimised == 0 else float("inf")
    delta = (optimised - baseline) / abs(baseline)
    return delta if higher_is_better else -delta


def table6_row(summary: RunSummary) -> dict[str, float | int]:
    """Project a run summary onto Table 6's columns."""
    return {
        "load_kwh": round(summary.load_energy_kwh, 2),
        "effective_kwh": round(summary.effective_energy_kwh, 2),
        "power_ctrl_times": summary.power_ctrl_times,
        "on_off_cycles": summary.on_off_cycles,
        "vm_ctrl_times": summary.vm_ctrl_times,
        "min_battery_volt": round(summary.min_battery_voltage, 1),
        "end_of_day_volt": round(summary.end_battery_voltage, 1),
        "battery_volt_sigma": round(summary.battery_voltage_sigma, 2),
    }


def join_decisions(
    recorder,
    decisions: Iterable,
    channels: Sequence[str] | None = None,
) -> list[dict[str, Any]]:
    """Join decision events against the recorded trace channels.

    For every decision (a :class:`repro.obs.decisions.Decision` or any
    object with ``t``/``kind``/``source``/``data``), the nearest trace
    sample at or before the decision time is attached, giving the plant
    state the controller acted on.  Decisions before the first sample
    carry no channel values.

    Robust to the ragged ends of real logs: an empty recorder (or one
    with no channels yet) yields rows with no ``trace.*`` values, and a
    decision stamped *after* the final trace sample joins against that
    final sample — never an index error.

    Parameters
    ----------
    recorder:
        A :class:`~repro.sim.trace.TraceRecorder`, or a plain mapping of
        channel name to array (e.g. ``recorder.as_dict()`` or arrays
        reloaded from CSV); channel names are then the keys minus ``t``.
    decisions:
        Decision events, e.g. an ``Observability.decisions`` log or one
        reloaded via :meth:`repro.obs.decisions.DecisionLog.from_jsonl`.
    channels:
        Restrict the joined channels (default: all recorded channels).
    """
    if isinstance(recorder, Mapping):
        available: tuple[str, ...] = tuple(k for k in recorder if k != "t")
        t = np.asarray(recorder["t"], dtype=float) if "t" in recorder \
            else np.empty(0)
    else:
        available = recorder.names
        t = np.asarray(recorder["t"], dtype=float)
    names = tuple(channels) if channels is not None else available
    arrays = {name: np.asarray(recorder[name], dtype=float) for name in names}
    rows: list[dict[str, Any]] = []
    for decision in decisions:
        row: dict[str, Any] = {
            "t": decision.t,
            "kind": decision.kind,
            "source": decision.source,
        }
        for key, value in decision.data.items():
            row[f"data.{key}"] = value
        # Nearest sample at or before the decision; clamped so decisions
        # stamped after the final sample join against that last sample.
        index = min(int(np.searchsorted(t, decision.t, side="right")) - 1,
                    len(t) - 1)
        if index >= 0:
            row["trace_t"] = float(t[index])
            for name, values in arrays.items():
                if index < len(values):
                    row[f"trace.{name}"] = float(values[index])
        rows.append(row)
    return rows


def all_improvements(opt: RunSummary, base: RunSummary) -> dict[str, float]:
    """Figures 20-21: improvement on all six metrics, positive = better."""
    return {
        "system_uptime": improvement(opt.uptime_fraction, base.uptime_fraction),
        "load_perf": improvement(
            opt.throughput_gb_per_hour, base.throughput_gb_per_hour
        ),
        "avg_latency": improvement(
            opt.mean_delay_minutes, base.mean_delay_minutes, higher_is_better=False
        ),
        "ebuffer_avail": improvement(
            opt.energy_availability_wh, base.energy_availability_wh
        ),
        "service_life": improvement(
            opt.projected_life_days, base.projected_life_days
        ),
        "perf_per_ah": improvement(opt.perf_per_ah_gb, base.perf_per_ah_gb),
    }
