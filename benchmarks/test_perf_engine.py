"""Performance smoke: cache replay and the cost of optional observers.

Not a paper figure.  Runs one deterministic full-system day (the Figure
20 "high solar" cell), replays the identical configuration through the
content-addressed run cache and checks the replay is effectively free,
then times the invariant checker and the observability stack against a
plain run of the same cell.  Engine throughput is the benchmark
ladder's to gate (``benchmarks/ladder``), parent against change.
"""

import hashlib
import time

from conftest import banner, row

from repro.core.system import build_system
from repro.experiments.fullsystem import run_single
from repro.sim.cache import RunCache, cache_key
from repro.solar.traces import make_day_trace
from repro.workloads import SeismicAnalysis

#: The tick of every cell here, in seconds.
DT = 5.0


def test_engine_perf_smoke(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))

    t0 = time.perf_counter()
    cold = run_single("insure", "seismic", "sunny", 1000.0, seed=1, dt=DT)
    cold_s = time.perf_counter() - t0

    t0 = time.perf_counter()
    warm = run_single("insure", "seismic", "sunny", 1000.0, seed=1, dt=DT)
    warm_s = time.perf_counter() - t0

    banner("Engine cache smoke (Figure 20 high-solar cell)")
    row("cold run", f"{cold_s:.2f} s")
    row("cache replay", f"{warm_s * 1000:.1f} ms")

    # The replay must be served from disk, bit-identical and near-instant.
    assert warm == cold
    assert warm_s < 0.5


def _build_bench_cell(invariants):
    """The BENCH cell (insure/seismic/sunny/1000 W, seed 1), built fresh."""
    trace = make_day_trace("sunny", dt_seconds=DT, seed=1,
                           target_mean_w=1000.0)
    return build_system(trace, SeismicAnalysis(), controller="insure",
                        seed=1, initial_soc=0.55, dt=DT,
                        invariants=invariants)


def _timed_run(invariants):
    system = _build_bench_cell(invariants)
    t0 = time.perf_counter()
    system.run()
    return system, time.perf_counter() - t0


def test_invariant_checker_overhead():
    """The validate-layer checker must stay cheap when on and free when off.

    On: < 15 % wall-time overhead on the BENCH cell at the default check
    stride.  Off: exactly zero — not merely fast, but the same-seed run
    produces bit-identical traces whether or not the (read-only) checker
    is observing, so enabling it in CI cannot shift any golden digest.
    """
    def trace_hash(system):
        digest = hashlib.sha256()
        for name in ("t",) + system.recorder.names:
            digest.update(system.recorder[name].tobytes())
        return digest.hexdigest()

    # Best-of-2 timings: the absolute numbers wobble on a shared core,
    # the ratio of minima is stable enough for a 15 % gate.
    plain, plain_s = _timed_run(invariants=False)
    checked, checked_s = _timed_run(invariants=True)
    plain_s = min(plain_s, _timed_run(invariants=False)[1])
    checked_s = min(checked_s, _timed_run(invariants=True)[1])
    overhead = checked_s / plain_s - 1.0

    banner("Invariant checker overhead (BENCH cell, stride 12)")
    row("disabled", f"{plain_s:.2f} s")
    row("enabled", f"{checked_s:.2f} s",
        f"{overhead * 100:+.1f} %  ({checked.checker.checks_run} checks)")

    assert plain.checker is None
    checked.checker.assert_clean()
    assert trace_hash(plain) == trace_hash(checked)
    assert overhead < 0.15, f"checker overhead {overhead * 100:.1f}% >= 15%"


def test_observability_overhead():
    """Observability must stay under the 5 % gate when on, free when off.

    On: stride-sampled span tracing plus collection-time gauges and the
    decision log cost < 5 % wall time on the BENCH cell.  Off is the
    default build — nothing attached, so there is nothing to measure.
    Either way the same-seed traces are bit-identical: the instruments
    only read plant state (proven by digest equality here and in
    ``tests/obs/test_observability_system.py``).
    """
    from repro.obs.hub import Observability

    def trace_hash(system):
        digest = hashlib.sha256()
        for name in ("t",) + system.recorder.names:
            digest.update(system.recorder[name].tobytes())
        return digest.hexdigest()

    def timed_obs_run(observability):
        trace = make_day_trace("sunny", dt_seconds=DT, seed=1,
                               target_mean_w=1000.0)
        system = build_system(trace, SeismicAnalysis(), controller="insure",
                              seed=1, initial_soc=0.55, dt=DT,
                              observability=observability)
        t0 = time.perf_counter()
        system.run()
        return system, time.perf_counter() - t0

    # Best-of-2 minima, same rationale as the invariant-checker gate.
    plain, plain_s = timed_obs_run(None)
    observed, observed_s = timed_obs_run(Observability())
    plain_s = min(plain_s, timed_obs_run(None)[1])
    observed_s = min(observed_s, timed_obs_run(Observability())[1])
    overhead = observed_s / plain_s - 1.0

    obs = observed.obs
    banner("Observability overhead (BENCH cell, span stride "
           f"{obs.tracer.stride})")
    row("disabled", f"{plain_s:.2f} s")
    row("enabled", f"{observed_s:.2f} s",
        f"{overhead * 100:+.1f} %  ({obs.tracer.sampled_ticks} ticks "
        f"sampled, {len(obs.decisions)} decisions)")

    assert plain.obs is None
    assert trace_hash(plain) == trace_hash(observed)
    # The instruments really ran: every tick counted, 1-in-stride sampled,
    # and the controllers routed decisions through the log.
    ticks_run = observed.engine.clock.step_index
    assert obs.tracer.ticks_seen == ticks_run > 0
    assert obs.tracer.sampled_ticks >= ticks_run // obs.tracer.stride
    assert {r["span"] for r in obs.tracer.report_rows()} >= {
        "insure", "plant", "controller.sense"}
    assert len(obs.decisions) > 0
    assert overhead < 0.05, f"observability overhead {overhead * 100:.1f}% >= 5%"


def test_cache_key_distinguishes_configurations(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
    keys = {
        cache_key("fullsystem.run_single", controller=ctrl, seed=seed, dt=DT)
        for ctrl in ("insure", "baseline")
        for seed in (1, 2)
    }
    assert len(keys) == 4
    assert RunCache(tmp_path).entry_count() == 0  # keys alone store nothing
