"""Observability on a full system: read-only guarantee and wiring.

The central contract: attaching the metrics registry, span tracer,
ledger and alerts never perturbs the same-seed trajectory, and a plain
run records the same decisions as an observed one.  The short-horizon
tests prove digest equality directly; the golden-marked test runs a full
day with observability ON against the pinned digests (which were produced
with observability OFF).
"""

import gc
import weakref

import pytest

from repro.core.system import build_day_system, build_system
from repro.obs.hub import Observability
from repro.policy.registry import PolicyDef, build_policy
from repro.solar.traces import make_day_trace
from repro.validate import golden
from repro.workloads import SeismicAnalysis, VideoSurveillance

SHORT_S = 2 * 3600.0
#: Long enough for both controllers to checkpoint (insure/seismic at
#: 2.1 h, baseline/video at 1.25 h).
CHECKPOINT_S = 3 * 3600.0


def _run(controller, workload_cls, obs, weather="cloudy", seed=11,
         duration_s=SHORT_S):
    trace = make_day_trace(weather, dt_seconds=5.0, seed=seed, target_mean_w=850.0)
    system = build_system(trace, workload_cls(), controller=controller,
                          seed=seed, initial_soc=0.55, dt=5.0,
                          observability=obs)
    summary = system.run(duration_s)
    return system, summary


@pytest.mark.parametrize("controller,workload_cls", [
    ("insure", SeismicAnalysis),
    ("baseline", VideoSurveillance),
])
def test_traces_bit_identical_with_observability(controller, workload_cls):
    plain, plain_summary = _run(controller, workload_cls, obs=None)
    observed, observed_summary = _run(controller, workload_cls, obs=True)
    assert golden.trace_digests(plain.recorder) == \
        golden.trace_digests(observed.recorder)
    assert vars(plain_summary) == vars(observed_summary)


def test_attach_wires_all_three_instruments():
    obs = Observability(trace_stride=8)
    system, _ = _run("insure", SeismicAnalysis, obs=obs)
    assert system.obs is obs
    assert system.engine.tracer is obs.tracer
    assert system.controller.decisions is obs.decisions
    assert system.plant.decisions is obs.decisions
    assert system.plant.tracer is obs.tracer

    # the tracer saw the whole run and sampled 1-in-8 ticks
    ticks = system.engine.clock.step_index
    assert obs.tracer.ticks_seen == ticks
    assert obs.tracer.sampled_ticks == ticks // 8 + (1 if ticks % 8 else 0)
    spans = {row["span"] for row in obs.tracer.report_rows()}
    assert {"insure", "plant", "rack", "solar", "metrics",
            "controller.sense", "plant.workload"} <= spans

    # controllers routed decisions through the log
    assert len(obs.decisions) > 0
    assert obs.decisions.of_kind("buffer.mode")

    # collection-time gauges read live component state
    samples = {s["name"]: s for s in obs.registry.collect()}
    assert samples["engine.ticks"]["value"] == ticks
    assert samples["bank.stored_wh"]["value"] > 0
    assert 0.0 <= samples["bank.mean_soc"]["value"] <= 1.0


@pytest.mark.parametrize("controller,workload_cls", [
    ("insure", SeismicAnalysis),
    ("baseline", VideoSurveillance),
])
def test_mode_decisions_chain_to_the_final_modes(controller, workload_cls):
    """The decision log holds every mode change of a plain run: per
    cabinet, each ``buffer.mode`` decision starts in the mode the previous
    one ended in, and the last one ends in the cabinet's final mode."""
    system, _ = _run(controller, workload_cls, obs=None, duration_s=CHECKPOINT_S)
    assert system.decisions.of_kind("load.checkpoint_stop")
    for unit in system.bank:
        changes = [d.data for d in system.decisions.of_kind("buffer.mode")
                   if d.source == unit.name]
        assert changes
        for before, after in zip(changes, changes[1:], strict=False):
            assert after["from_mode"] == before["to_mode"]
        assert changes[-1]["to_mode"] == unit.mode.value


def test_plain_run_records_the_observed_decision_stream():
    plain, _ = _run("insure", SeismicAnalysis, obs=None, duration_s=CHECKPOINT_S)
    observed, _ = _run("insure", SeismicAnalysis, obs=True, duration_s=CHECKPOINT_S)
    assert observed.decisions is observed.obs.decisions
    assert len(plain.decisions) > 0
    assert list(plain.decisions) == [
        d for d in observed.decisions if not d.kind.startswith("alert.")
    ]


def test_export_writes_all_artifacts(tmp_path):
    obs = Observability()
    _run("insure", SeismicAnalysis, obs=obs)
    paths = obs.export(tmp_path)
    assert set(paths) == {"metrics_jsonl", "metrics_prom", "decisions_jsonl",
                          "spans_folded", "ledger_json", "alerts_jsonl"}
    for name, path in paths.items():
        assert path.is_file()
        if name != "alerts_jsonl":  # a calm run legitimately fires no alert
            assert path.stat().st_size > 0


@pytest.mark.golden
@pytest.mark.parametrize("cell", [
    {"controller": "insure", "workload": "seismic", "weather": "cloudy"},
    {"controller": "baseline", "workload": "video", "weather": "sunny"},
])
def test_golden_digests_hold_with_observability_on(cell):
    """Full-day obs-ON run vs pinned digests produced with obs OFF."""
    seed = golden.derive_seed(golden.BASE_SEED, cell["controller"],
                              cell["workload"], cell["weather"])
    trace = make_day_trace(cell["weather"], dt_seconds=golden.DT_SECONDS,
                           seed=seed, target_mean_w=golden.TARGET_MEAN_W)
    workload_cls = SeismicAnalysis if cell["workload"] == "seismic" \
        else VideoSurveillance
    system = build_system(trace, workload_cls(),
                          controller=cell["controller"], seed=seed,
                          initial_soc=golden.INITIAL_SOC,
                          dt=golden.DT_SECONDS, observability=True)
    system.run(golden.DURATION_S)
    stored = golden.load_record(
        golden.cell_name(cell["controller"], cell["workload"],
                         cell["weather"]))
    assert golden.trace_digests(system.recorder) == stored["signals"]


def test_dropped_observed_system_is_freed_without_gc():
    """The bundle reaches the parts it reads, never the system, and a
    policy overlay holds its manager weakly, so an observed system is no
    reference cycle, with overlays or without: reference counting frees
    it."""
    # One overlay per kind of bound part: the policy itself, a control,
    # and the two signals that read the manager.
    overlays = (PolicyDef("duty", "carbon", "const:0.9", "duty_cap"),
                PolicyDef("vms", "soc", "const:1.0", "vm_retarget"),
                PolicyDef("charge", "solar", "const:1.0", "charge_current_cap"))
    for defs in ((), overlays):
        system = build_day_system("insure", "video", "sunny", mean_w=1000.0, seed=1,
                                  initial_soc=0.6, observability=True,
                                  policies=[build_policy(d, 1) for d in defs])
        system.run(3600.0)
        assert len(system.controller.policies) == len(defs)
        refs = [weakref.ref(part) for part in
                (system, system.engine, system.bank, system.controller, system.obs,
                 *system.controller.policies)]
        gc.disable()
        try:
            del system
            assert [ref() for ref in refs] == [None] * len(refs), defs
        finally:
            gc.enable()
