"""Observability layer: metrics registry, span tracing, decision events.

Three instruments, one bundle (:class:`Observability`):

* :mod:`repro.obs.registry` — zero-dependency counters and gauges with
  JSONL and Prometheus-text export;
* :mod:`repro.obs.spans` — sampled span tracing of the tick loop with
  per-component wall-time attribution and hottest-tick capture;
* :mod:`repro.obs.decisions` — structured controller decision events
  (mode switches, VM retargets, duty changes, checkpoint triggers)
  written to JSONL and joinable against recorded traces.

Two higher-level consumers ride on those instruments:

* :mod:`repro.obs.ledger` — joule-level energy-flow ledger over the
  component accumulators, with a conservation closure check shared with
  the invariant checker;
* :mod:`repro.obs.alerts` — streaming rule engine that records each
  alert once, as an ``alert.<rule>`` decision.

Observability is strictly read-only with respect to the simulation: a run
with it attached produces bit-identical same-seed traces (enforced by the
golden harness and the digest check of
``benchmarks/test_perf_engine.py::test_observability_overhead``).

Instrumented full-system runs are flown by
:mod:`repro.telemetry.flight` (``repro report run``), whose flight
report carries the span profile, hottest ticks, decision counts and
ledger of one run.
"""

from repro.obs.alerts import (
    AlertEngine,
    AlertRule,
    CheckpointStormRule,
    DischargeCapNearMissRule,
    LvdProximityRule,
    SocDroopRule,
    SustainedCurtailmentRule,
    WearImbalanceRule,
    default_rules,
)
from repro.obs.decisions import Decision, DecisionLog
from repro.obs.hub import Observability
from repro.obs.ledger import EDGE_NAMES, EnergyLedger, LedgerClosure
from repro.obs.registry import Counter, Gauge, MetricsRegistry
from repro.obs.spans import NULL_TRACER, NullTracer, SpanStats, SpanTracer
from repro.obs.stream import DEFAULT_GAUGES, StreamTap

__all__ = [
    "AlertEngine",
    "AlertRule",
    "CheckpointStormRule",
    "Counter",
    "Decision",
    "DecisionLog",
    "DischargeCapNearMissRule",
    "EDGE_NAMES",
    "EnergyLedger",
    "Gauge",
    "LedgerClosure",
    "LvdProximityRule",
    "MetricsRegistry",
    "NULL_TRACER",
    "NullTracer",
    "Observability",
    "SocDroopRule",
    "SpanStats",
    "SpanTracer",
    "StreamTap",
    "DEFAULT_GAUGES",
    "SustainedCurtailmentRule",
    "WearImbalanceRule",
    "default_rules",
]
