"""Fleet kernel performance gate: >= 50x aggregate throughput at batch 1024.

Not a paper figure — this guards the vectorized SoA backend against
regressions.  It times the scalar reference engine and a 1024-site fleet
batch on the same golden cell (insure/video/sunny), interleaved and
best-of-N so shared-core wobble cancels out of the ratio, then writes
``BENCH_fleet.json`` at the repository root.  CI compare-gates the
``ticks_per_second`` field via ``benchmarks/compare_bench.py`` exactly
like the engine smoke.  The floor is relative to the scalar engine, so a
scalar speed-up lowers the ratio without any fleet regression.
"""

import dataclasses
import json
import time
from pathlib import Path

import pytest

from conftest import banner, row

np = pytest.importorskip("numpy")

from repro.sim.fleet.debug import build_scalar_system  # noqa: E402
from repro.sim.fleet.kernel import _FleetBatch  # noqa: E402
from repro.sim.fleet.validator import spec_for_cell  # noqa: E402

BATCH_SITES = 1024
#: Interleaved timing rounds; the gated ratio uses the best of each side.
ROUNDS = 3
WARMUP_TICKS = 10
FLEET_TICKS = 300
SCALAR_TICKS = 1500
SPEEDUP_FLOOR = 50.0

BENCH_PATH = Path(__file__).resolve().parent.parent / "BENCH_fleet.json"


def _fleet_batch():
    from repro.sim.fleet import controllers

    base = spec_for_cell("insure", "video", "sunny")
    specs = [dataclasses.replace(base, seed=base.seed + i)
             for i in range(BATCH_SITES)]
    batch = _FleetBatch(specs)
    controllers.start(batch)
    return batch


def _time_fleet(batch, start_tick, ticks):
    t0 = time.perf_counter()
    for k in range(start_tick, start_tick + ticks):
        batch.step_tick(k)
    return time.perf_counter() - t0


def _time_scalar(system, ticks, dt):
    t0 = time.perf_counter()
    system.engine.run(ticks * dt)
    return time.perf_counter() - t0


def test_fleet_speedup_at_batch_1024():
    batch = _fleet_batch()
    system = build_scalar_system("insure", "video", "sunny")
    dt = batch.dt

    # Warm both paths (allocations, noise-block fills, JIT-free but cold
    # caches), then interleave the timed rounds so any background load
    # penalises both sides alike.
    tick = 0
    _time_fleet(batch, tick, WARMUP_TICKS)
    tick += WARMUP_TICKS
    _time_scalar(system, WARMUP_TICKS, dt)

    fleet_best = float("inf")
    scalar_best = float("inf")
    for _ in range(ROUNDS):
        fleet_best = min(fleet_best, _time_fleet(batch, tick, FLEET_TICKS))
        tick += FLEET_TICKS
        scalar_best = min(scalar_best, _time_scalar(system, SCALAR_TICKS, dt))

    fleet_tps = BATCH_SITES * FLEET_TICKS / fleet_best
    scalar_tps = SCALAR_TICKS / scalar_best
    speedup = fleet_tps / scalar_tps

    banner(f"Fleet kernel throughput (batch {BATCH_SITES}, insure/video/sunny)")
    row("scalar engine", f"{scalar_tps:,.0f} ticks/s")
    row("fleet kernel", f"{fleet_tps:,.0f} site-ticks/s")
    row("aggregate speedup", f"{speedup:.1f}x", f"(gate >= {SPEEDUP_FLOOR:g}x)")

    BENCH_PATH.write_text(json.dumps({
        "cell": "fleet batch insure/video/sunny, 1024 sites vs scalar engine",
        "batch_sites": BATCH_SITES,
        "ticks_per_second": round(fleet_tps, 1),
        "scalar_ticks_per_second": round(scalar_tps, 1),
        "speedup": round(speedup, 2),
        "best_round_seconds": round(fleet_best, 4),
    }, indent=2) + "\n")

    assert speedup >= SPEEDUP_FLOOR, (
        f"fleet speedup {speedup:.1f}x below the {SPEEDUP_FLOOR:g}x floor "
        f"(fleet {fleet_tps:,.0f} site-ticks/s, scalar {scalar_tps:,.0f})"
    )
