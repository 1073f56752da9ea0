"""Incremental streaming tap over an :class:`~repro.obs.hub.Observability`.

The serve daemon (:mod:`repro.serve`) needs a *delta* view of a running
session: which decisions fired since the last poll, how far each ledger
edge moved, and a compact snapshot of the live plant gauges.  A
:class:`StreamTap` keeps a cursor into the decision log and the last
ledger snapshot, so each :meth:`poll` returns only what changed — the
natural payload shape for a Server-Sent-Events stream.

Like every other instrument in :mod:`repro.obs`, the tap only *reads*:
polling never perturbs the run (the registry gauges are collection-time
callables, the decision log is append-only, and ledger edges are pure
functions of the component accumulators).
"""

from __future__ import annotations

from dataclasses import asdict
from typing import Any

#: Registry gauges sampled into each ``metrics`` event.  A compact
#: operator-dashboard set, not the full registry — the JSONL/Prometheus
#: exporters remain the firehose.
DEFAULT_GAUGES = (
    "engine.ticks",
    "engine.sim_seconds",
    "solar.available_w",
    "bank.stored_wh",
    "bank.mean_soc",
    "bank.mean_voltage",
    "rack.demand_w",
    "rack.running_vms",
    "workload.backlog_gb",
    "workload.processed_gb",
    "controller.duty",
    "controller.vm_target",
    "plant.shed_events",
)

#: Ledger-edge movement below this many watt-hours is not re-streamed.
LEDGER_EPSILON_WH = 1e-9


class StreamTap:
    """Cursor-based reader turning an Observability bundle into events.

    Each :meth:`poll` returns a list of JSON-compatible event dicts, in
    stream order:

    * ``decision`` — one per decision recorded since the last poll
      (``alert.*`` kinds are re-typed as ``alert`` events);
    * ``ledger`` — the edges that moved since the last poll plus the
      current closure verdict (only when something moved);
    * ``metrics`` — a snapshot of the :data:`DEFAULT_GAUGES` (always).
    """

    def __init__(self, obs, gauges: tuple[str, ...] = DEFAULT_GAUGES) -> None:
        self.obs = obs
        self.gauges = tuple(gauges)
        self._decision_cursor = 0
        self._last_edges: dict[str, float] = {}

    # ------------------------------------------------------------------
    # Event extraction
    # ------------------------------------------------------------------
    def poll(self, t: float) -> list[dict[str, Any]]:
        """Everything that changed since the last poll, as event dicts."""
        events = self._decision_events()
        ledger = self._ledger_event(t)
        if ledger is not None:
            events.append(ledger)
        events.append(self._metrics_event(t))
        return events

    def _decision_events(self) -> list[dict[str, Any]]:
        log = self.obs.decisions
        fresh = log.since(self._decision_cursor)
        self._decision_cursor = len(log)
        events = []
        for decision in fresh:
            kind = decision.kind
            events.append({
                "type": "alert" if kind.startswith("alert.") else "decision",
                "t": decision.t,
                "kind": kind,
                "source": decision.source,
                "data": dict(decision.data),
            })
        return events

    def _ledger_event(self, t: float) -> dict[str, Any] | None:
        ledger = self.obs.ledger
        edges = ledger.edges()
        moved = {
            name: round(wh - self._last_edges.get(name, 0.0), 9)
            for name, wh in edges.items()
            if abs(wh - self._last_edges.get(name, 0.0)) > LEDGER_EPSILON_WH
        }
        self._last_edges = edges
        if not moved:
            return None
        return {
            "type": "ledger",
            "t": t,
            "delta_wh": moved,
            "closure": asdict(ledger.closure()),
        }

    def _metrics_event(self, t: float) -> dict[str, Any]:
        registry = self.obs.registry
        values: dict[str, float] = {}
        for name in self.gauges:
            metric = registry.get(name)
            if metric is None:
                continue
            values[name] = float(metric.value)
        return {"type": "metrics", "t": t, "values": values}
