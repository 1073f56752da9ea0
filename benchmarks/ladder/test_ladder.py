"""Self-tests of the benchmark ladder (tiny horizons, a few seconds).

    PYTHONPATH=src python -m pytest benchmarks/ladder -q
"""

from __future__ import annotations

import json
import signal
import time
from pathlib import Path

import pytest

import refclock
import run
import rungs
import tracing
import worker
from stats import tail

ROOT = Path(__file__).resolve().parents[2]
BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())


def test_tail_picks_highest_percentile_with_ten_samples_beyond():
    assert tail([float(v) for v in range(240)]) == (95.0, 227.0, 240)
    assert tail([float(v) for v in range(100)]) == (90.0, 89.0, 100)
    assert tail([float(v) for v in range(20)]) == (50.0, 9.0, 20)
    assert tail([float(v) for v in range(19)]) is None


def test_nested_spans_self_time(monkeypatch):
    clock = iter([0.0, 1.0, 4.0, 5.0, 6.0, 7.0, 8.0, 10.0])
    monkeypatch.setattr(tracing, "perf_counter", lambda: next(clock))
    tracer = tracing.Tracer()
    with tracer.item_scope("item-0"):
        tracer.enter("outer")           # 0 .. 10
        for name in ("inner", "inner", "outer"):  # 1..4, 5..6, 7..8
            tracer.enter(name)
            tracer.leave()
        tracer.leave()
    assert tracer.stats["outer"] == [2, 11.0, 6.0]   # (10-0-3-1-1) + 1
    assert tracer.stats["inner"] == [2, 4.0, 4.0]
    assert tracer.root_s == 10.0
    assert [span[3] for span in tracer.raw] == [-1, 0, 0, 0]
    assert [span[5] for span in tracer.raw] == [5.0, 3.0, 1.0, 1.0]
    assert {span[4] for span in tracer.raw} == {"item-0"}


def test_reference_seconds_scale_each_stretch_and_skip_bursts(monkeypatch):
    monkeypatch.setattr(refclock, "WINDOW", 1)
    monkeypatch.setattr(refclock, "REFERENCE_S", 0.01)
    clock = refclock.ReferenceClock()
    clock.bursts = [(1.0, 0.01), (2.0, 0.02), (3.0, 0.01)]
    clock._index()
    # Host stretches 0.5..1, 1.01..2, 2.02..3, 3.01..3.5; the one ending
    # in the slow burst counts half.
    assert clock.host_seconds(0.5, 3.5) == pytest.approx(2.96)
    assert clock.seconds(0.5, 3.5) == pytest.approx(0.5 + 0.99 / 2 + 0.98 + 0.49)
    assert clock.seconds(1.005, 1.5) == pytest.approx(0.49 / 2)   # starts in a burst
    assert clock.seconds(1.2, 1.4) == pytest.approx(0.1)


def test_reference_clock_restores_the_timer_and_handler(monkeypatch):
    monkeypatch.setattr(refclock, "PERIOD_S", 0.01)
    before = signal.getsignal(signal.SIGALRM)
    with refclock.ReferenceClock() as clock:
        start = time.perf_counter()
        while time.perf_counter() - start < 0.2:
            pass
        end = time.perf_counter()
    assert signal.getsignal(signal.SIGALRM) == before
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    assert len(clock.bursts) >= 3
    bursts_s = sum(d for t, d in clock.bursts if start <= t < end)
    assert clock.host_seconds(start, end) == pytest.approx(end - start - bursts_s)
    assert clock.seconds(start, end) > 0


def _targets():
    return [tracing._resolve(target) for _, target, _ in tracing.SPANS]


def test_wrappers_are_fully_removed_after_a_traced_run():
    originals = [vars(owner)[attr] for owner, attr in _targets()]
    rung = rungs.ScalarGolden(3, horizon_s=600.0, cells=rungs.scalar_cells(3)[:1])
    tracer = tracing.Tracer()
    with rung.traced(tracer):
        assert all(hasattr(vars(o)[a], "__wrapped__") for o, a in _targets())
        traced = rung.run_pass(tracer)
    assert tracer.count("core.sense") > 0 and tracer.self_s("sim.engine") > 0
    assert [vars(o)[a] for o, a in _targets()] == originals
    calls = {name: list(stat) for name, stat in tracer.stats.items()}
    plain = rung.run_pass(None)
    assert tracer.stats == calls                     # nothing leaked
    assert plain[0].fingerprint == traced[0].fingerprint


def test_same_seed_same_inputs_and_seed_one_is_golden(tmp_path):
    assert rungs.scalar_cells(3) == rungs.scalar_cells(3)
    assert rungs.scalar_cells(3) != rungs.scalar_cells(4)
    assert rungs.fleet_specs(3, 5, 600.0) == rungs.fleet_specs(3, 5, 600.0)
    assert rungs.fleet_specs(3, 5, 600.0) != rungs.fleet_specs(4, 5, 600.0)
    serve = rungs.ServeSessions(3, ROOT, tmp_path)
    assert serve.manifests == rungs.ServeSessions(3, ROOT, tmp_path).manifests
    assert serve.manifests != rungs.ServeSessions(4, ROOT, tmp_path).manifests

    from repro.validate.golden import load_record
    for cell in rungs.scalar_cells(rungs.GOLDEN_SEED):
        config = load_record(cell.id)["config"]
        assert (cell.controller, cell.workload, cell.weather, cell.seed) == (
            config["controller"], config["workload"], config["weather"],
            config["seed"])
    specs = rungs.fleet_specs(3, 4, 600.0)   # sites 0-2 are golden at any seed
    for spec, weather in zip(specs, rungs.WEATHERS, strict=False):
        config = load_record(f"insure-video-{weather}")["config"]
        assert spec.seed == config["seed"]
        golden_trace = rungs.day_trace(weather, config["seed"]).power_w.tolist()
        assert list(spec.trace_power_w) == golden_trace


class _CorruptedScalar(rungs.ScalarGolden):
    """Two short cells, the first with a deliberately wrong reference."""

    def __init__(self, seed, root, out_dir):
        super().__init__(seed, horizon_s=600.0, cells=rungs.scalar_cells(seed)[:2])

    def prepare(self):
        super().prepare()
        first = self.cells[0].id
        self.expected[first] = {"summary": {"elapsed_s": 600.0, "bogus": 1.0},
                                "signals": {}}


def test_output_mismatch_counts_and_fails_without_aborting(monkeypatch, capsys):
    monkeypatch.setitem(worker.RUNGS, "scalar-golden", _CorruptedScalar)
    code = worker.main(["--workload", "scalar-golden", "--seed", "1",
                        "--root", str(ROOT)])
    record = json.loads(capsys.readouterr().out.splitlines()[-1])
    assert code == 1
    assert (record["attempted"], record["failed"]) == (1, 1)
    # The first cell failed, the second still ran and matched its reference.
    assert "insure-video-sunny: " in record["errors"][0]
    assert "insure-video-cloudy" not in record["errors"][0]
    run_record = {"trace": False, "workloads": {"scalar-golden": {
        **record, "metrics": {m["name"]: 1.0 for m in BENCH["end_to_end"]}}}}
    assert run._result_line(run_record, BENCH)["correct"] is False


def test_metric_lists_match_benchmark_json():
    assert list(worker.LAYER_METRICS) == [m["name"] for m in BENCH["per_layer"]]
    names = [m["name"] for m in BENCH["end_to_end"]]
    assert names == ["setup_s", "sim_ticks_per_s", "item_p50_s", "peak_rss_mb"]
    assert BENCH["paths"] == ["benchmarks/ladder"]
    assert [w["name"] for w in BENCH["workloads"]] == list(run.WORKLOADS)


@pytest.mark.parametrize(("before", "after", "expected"), [
    ([100.0, 101.0, 99.0, 100.0], [100.5, 99.5, 100.0, 101.0], "within bound"),
    ([100.0, 101.0, 99.0, 100.0], [80.0, 81.0, 79.0, 80.0], "REGRESSION"),
    ([100.0, 150.0, 60.0, 100.0], [99.0, 120.0, 70.0, 100.0], "unresolved"),
    ([100.0, 150.0, 60.0, 100.0], [160.0, 170.0, 165.0, 180.0], "better (every run)"),
])
def test_compare_verdicts(before, after, expected):
    assert run.verdict(before, after, "higher", 0.1) == expected


def test_setup_bound_has_an_absolute_floor():
    setup = {"name": "setup_s", "bound": 0.25}
    assert run.bound_for(setup, 0.3) == pytest.approx(0.5)    # 0.15 s of 0.3 s
    assert run.bound_for(setup, 1.0) == 0.25
    assert run.bound_for({"name": "item_p50_s", "bound": 0.25}, 0.1) == 0.25
