"""Run one rung in this (fresh) process and print its record as JSON.

    python worker.py --workload NAME --seed N --root DIR
                     [--trace] [--setup-only] [--spawned-at T]

``run.py`` starts one worker per set-up sample and per measured run; the
last line of stdout is the record.  A measured run times exactly one
pass over the rung's fixed item list.  Set-up ends when the first timed
item is ready: for in-process rungs that is measured from ``--spawned-at``
(the parent's ``time.monotonic()`` just before the spawn, a system-wide
clock on Linux), for serve-sessions from the daemon spawn.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import platform
import statistics
import sys
import time
from pathlib import Path
from time import perf_counter

import numpy as np

import repro
from rungs import RUNGS, ItemResult, Rung
from tracing import Tracer

#: Where runs leave traces, daemon logs and span dumps (under the root).
OUT_DIR = Path("benchmarks/ladder/out")

#: Spans reported as ``<name>.self_s``.
SELF_SPANS = ("sim.engine", "core.sense", "core.controller", "power.bus", "battery",
              "core.plant", "cluster.rack", "workloads", "telemetry.metrics",
              "sim.recorder", "solar", "policy", "build", "obs.alerts")
FLEET_STAGES = ("sense", "controller", "policy", "rack", "plant", "metrics")

#: Every per-layer metric a ``--trace`` run reports, in BENCHMARK.json
#: order (which gives the units).
LAYER_METRICS = (
    *(f"{name}.self_s" for name in SELF_SPANS),
    "core.sense.calls",
    *(f"serve.{name}" for name in (
        "session_build_s", "advance_s", "tap_s", "sse_s", "finalize_s",
        "loop_other_s", "first_metrics_p50_s", "session_p95_s", "daemon_cpu_s",
        "slices", "events_per_session", "bytes_per_session")),
    "fleet.us_per_tick",
    "fleet.tick_other.self_s",
    *(f"fleet.{stage}.self_s" for stage in FLEET_STAGES),
    "fleet.ns_per_site_tick",
    "fleet.build_s",
    "fleet.summaries_s",
    "trace.coverage",
    "trace.untraced_ticks_per_s",
    "trace.traced_ticks_per_s",
    "trace.overhead",
)


def output_digest(items: list[ItemResult]) -> str:
    """sha256 over the canonical fingerprints of one pass, in item order."""
    canonical = json.dumps([[item.id, item.fingerprint] for item in items],
                           sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode()).hexdigest()


def tally(items: list[ItemResult]) -> dict:
    failed = [item for item in items if item.error]
    return {"attempted": len(items), "failed": len(failed),
            "errors": [f"{item.id}: {item.error}" for item in failed[:5]]}


def measure(rung: Rung) -> tuple[dict, list[ItemResult]]:
    """One timed pass over the rung's fixed item list: the record and the
    items.

    The end-to-end times are in reference seconds (see ``refclock``);
    the same times in host seconds are kept as ``host_*``.
    """
    with rung.reference_clock() as clock:
        start = perf_counter()
        items = rung.run_pass(None)
        end = perf_counter()
    ticks = sum(item.ticks for item in items)
    host_s = clock.host_seconds(start, end)
    return {
        "timed_s": end - start,
        "ticks": ticks,
        "sim_ticks_per_s": ticks / clock.seconds(start, end),
        "item_p50_s": statistics.median(
            sum(clock.seconds(*interval) for interval in item.intervals)
            for item in items),
        "host_ticks_per_s": ticks / host_s,
        "host_item_p50_s": statistics.median(
            sum(clock.host_seconds(*interval) for interval in item.intervals)
            for item in items),
        "reference_burst_s": statistics.median(d for _, d in clock.bursts),
        "items": len(items),
        "output_digest": output_digest(items),
        **tally(items),
    }, items


def layer_metrics(tracer: Tracer, wall_s: float, ticks: int,
                  untraced_ticks_per_s: float, counters: dict) -> dict:
    """Every metric of :data:`LAYER_METRICS` from one traced pass; a layer
    the rung never entered reads 0."""
    metrics = {f"{name}.self_s": tracer.self_s(name) for name in SELF_SPANS}
    metrics["core.sense.calls"] = tracer.count("core.sense")
    for name in ("session_build", "advance", "tap", "finalize"):
        metrics[f"serve.{name}_s"] = tracer.total_s(f"serve.{name}")
    metrics["serve.sse_s"] = tracer.self_s("serve.sse")
    tick_count, tick_s = tracer.count("fleet.tick"), tracer.total_s("fleet.tick")
    metrics["fleet.us_per_tick"] = tick_s / tick_count * 1e6 if tick_count else 0.0
    metrics["fleet.ns_per_site_tick"] = tick_s / ticks * 1e9 if tick_count else 0.0
    metrics["fleet.tick_other.self_s"] = tracer.self_s("fleet.tick")
    for stage in FLEET_STAGES:
        metrics[f"fleet.{stage}.self_s"] = tracer.self_s(f"fleet.{stage}")
    metrics["fleet.build_s"] = tracer.total_s("fleet.build")
    metrics["fleet.summaries_s"] = tracer.total_s("fleet.summaries")
    traced_ticks_per_s = ticks / wall_s
    metrics["trace.coverage"] = tracer.root_s / wall_s
    metrics["trace.untraced_ticks_per_s"] = untraced_ticks_per_s
    metrics["trace.traced_ticks_per_s"] = traced_ticks_per_s
    metrics["trace.overhead"] = untraced_ticks_per_s / traced_ticks_per_s - 1.0
    metrics.update(counters)
    return {name: metrics.get(name, 0.0) for name in LAYER_METRICS}


def traced_pass(rung: Rung, record: dict, untraced: list[ItemResult],
                out_dir: Path) -> dict:
    """One more pass with every layer wrapped; returns the layer metrics
    and writes the first item's raw spans to ``trace-<rung>.jsonl``.

    The wrappers only observe, so each traced item must reproduce its
    untraced output exactly; one that does not counts as failed.
    """
    tracer = Tracer()
    with rung.traced(tracer):
        start = perf_counter()
        items = rung.run_pass(tracer)
        wall_s = perf_counter() - start
    expected = {item.id: item.fingerprint for item in untraced}
    for item in items:
        if item.error is None and item.fingerprint != expected.get(item.id):
            item.error = "traced output differs from the untraced pass"
    traced = tally(items)
    record["attempted"] += traced["attempted"]
    record["failed"] += traced["failed"]
    record["errors"] = (record["errors"] + traced["errors"])[:5]
    tracer.write_jsonl(out_dir / f"trace-{rung.name}.jsonl", rung.name)
    ticks = sum(item.ticks for item in items)
    return layer_metrics(tracer, wall_s, ticks, record["host_ticks_per_s"],
                         rung.counters())


def _check_source(root: Path) -> None:
    """Refuse to measure a ``repro`` other than the one under ``root/src``."""
    imported = Path(repro.__file__).resolve().parent
    if imported != (root / "src" / "repro").resolve():
        raise SystemExit(f"repro imported from {imported}, not {root / 'src'}")


def main(argv: list[str] | None = None) -> int:
    started = time.monotonic()
    parser = argparse.ArgumentParser(description="run one ladder rung")
    parser.add_argument("--workload", choices=sorted(RUNGS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--root", type=Path, required=True)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--spawned-at", type=float)
    args = parser.parse_args(argv)
    root = args.root.resolve()
    _check_source(root)

    out_dir = root / OUT_DIR
    rung = RUNGS[args.workload](args.seed, root, out_dir)
    try:
        rung.warm_up()
        setup_from = rung.setup_started or args.spawned_at or started
        setup_s = time.monotonic() - setup_from
        if args.setup_only:
            print(json.dumps({"setup_s": setup_s}))
            return 0
        rung.prepare()
        measured, items = measure(rung)
        record = {"workload": rung.name, "seed": args.seed, "setup_s": setup_s,
                  **measured}
        record["peak_rss_mb"] = rung.peak_rss_mb()
        if args.trace:
            record["layers"] = traced_pass(rung, record, items, out_dir)
    finally:
        rung.close()
    record["python"] = platform.python_version()
    record["numpy"] = np.__version__
    print(json.dumps(record))
    return 1 if record["failed"] else 0


if __name__ == "__main__":
    sys.exit(main())
