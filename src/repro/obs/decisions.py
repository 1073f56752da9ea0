"""Structured controller decision events.

The power managers *decide* things — battery mode switches and rotations,
VM retargets, DVFS duty changes, checkpoint/shutdown triggers, restarts —
and in the prototype those decisions are exactly what the operator tails
to understand a bad day.  A :class:`DecisionLog` records them as typed
events with a free-form payload and exports them as JSONL so
:func:`repro.telemetry.analyzer.join_decisions` can join them against the
recorded trace channels.

The log is always on and is the one record of what a run did:
:func:`repro.core.system.build_system` creates one per system, hands it
to the controller (whose policy overlays record through it) and the
plant coupler, and exposes it as ``system.decisions``.  When the build
is given an :class:`~repro.obs.hub.Observability` bundle, the system uses
the bundle's log instead, so ``system.decisions is system.obs.decisions``
and the alert engine's ``alert.*`` records land in the same stream.
Decisions are rare (tens to hundreds per simulated day) and nothing reads
the log back into the simulation, so it never changes a trajectory.
"""

from __future__ import annotations

import json
import weakref
from dataclasses import dataclass, field
from pathlib import Path
from collections.abc import Iterator
from typing import Any

#: Decision kinds emitted by the stock controllers (the event schema's
#: ``kind`` vocabulary; see docs/observability.md for payload fields).
KNOWN_KINDS = (
    "buffer.mode",
    "buffer.trip",
    "buffer.online",
    "vm.target",
    "dvfs.duty",
    "load.checkpoint_stop",
    "load.restart",
    "power.shed",
    # Policy overlays (repro.policy); limit evaluations plus the
    # charge-current knob only they turn.
    "policy.limit",
    "charge.current_cap",
    # Streaming alert engine (repro.obs.alerts); payload carries
    # severity, message and per-rule data.
    "alert.soc_droop",
    "alert.wear_imbalance",
    "alert.discharge_cap_near_miss",
    "alert.lvd_proximity",
    "alert.checkpoint_storm",
    "alert.sustained_curtailment",
    # Serve-daemon decision injections (repro.serve): external clients
    # attaching a policy, forcing a limit through one, swapping a
    # governor, or firing a raw control action mid-run.
    "inject.policy",
    "inject.limit",
    "inject.governor",
    "inject.control",
)


@dataclass(frozen=True)
class Decision:
    """One recorded controller decision."""

    t: float
    kind: str
    source: str
    data: dict[str, Any] = field(default_factory=dict)

    def to_json(self) -> str:
        payload = {"t": self.t, "kind": self.kind, "source": self.source, **self.data}
        return json.dumps(payload, sort_keys=True)


class DecisionLog:
    """Append-only decision store with JSONL round-tripping.

    Parameters
    ----------
    registry:
        Optional :class:`~repro.obs.registry.MetricsRegistry`; when given,
        every record increments a ``decisions_total{kind=...}`` counter.
    """

    def __init__(self, registry=None) -> None:
        self._decisions: list[Decision] = []
        # Held weakly: the registry's gauges read the components that
        # record here, so a strong reference would close a cycle and keep
        # a dropped system alive until a full collection.
        self._registry = weakref.ref(registry) if registry is not None else None

    def record(self, t: float, kind: str, source: str, **data: Any) -> Decision:
        decision = Decision(t=float(t), kind=kind, source=source, data=data)
        self._decisions.append(decision)
        if self._registry is not None:
            registry = self._registry()
            if registry is not None:
                registry.counter("decisions_total", kind=kind).inc()
        return decision

    def __len__(self) -> int:
        return len(self._decisions)

    def __iter__(self) -> Iterator[Decision]:
        return iter(self._decisions)

    def since(self, index: int) -> list[Decision]:
        """Decisions recorded at or after position ``index`` (a prior
        ``len(log)``) — the streaming tap's incremental read."""
        return self._decisions[index:]

    def of_kind(self, kind: str) -> list[Decision]:
        """Decisions whose kind equals or is prefixed by ``kind``."""
        prefix = kind + "."
        return [d for d in self._decisions if d.kind == kind or d.kind.startswith(prefix)]

    def counts(self) -> dict[str, int]:
        """Decision totals per kind, kind-sorted."""
        totals: dict[str, int] = {}
        for decision in self._decisions:
            totals[decision.kind] = totals.get(decision.kind, 0) + 1
        return dict(sorted(totals.items()))

    # ------------------------------------------------------------------
    # JSONL round trip
    # ------------------------------------------------------------------
    def to_jsonl(self) -> str:
        return "".join(decision.to_json() + "\n" for decision in self._decisions)

    def write_jsonl(self, path) -> Path:
        path = Path(path)
        path.write_text(self.to_jsonl(), encoding="utf-8")
        return path

    @classmethod
    def from_jsonl(cls, path) -> "DecisionLog":
        log = cls()
        for line in Path(path).read_text(encoding="utf-8").splitlines():
            if not line.strip():
                continue
            payload = json.loads(line)
            t = payload.pop("t")
            kind = payload.pop("kind")
            source = payload.pop("source")
            log.record(t, kind, source, **payload)
        return log
