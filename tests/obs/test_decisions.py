"""Decision log: recording, JSONL round trip, trace joining."""

import numpy as np

from repro.obs.decisions import DecisionLog
from repro.obs.registry import MetricsRegistry
from repro.telemetry.analyzer import join_decisions


def test_record_and_counts():
    log = DecisionLog()
    log.record(10.0, "buffer.mode", "b1", from_mode="standby", to_mode="discharge")
    log.record(20.0, "buffer.mode", "b2", from_mode="charge", to_mode="standby")
    log.record(30.0, "vm.target", "insure", vms=4)
    assert len(log) == 3
    assert log.counts() == {"buffer.mode": 2, "vm.target": 1}


def test_of_kind_prefix_matching():
    log = DecisionLog()
    log.record(1.0, "buffer.mode", "b1")
    log.record(2.0, "buffer.trip", "b1")
    log.record(3.0, "vm.target", "c")
    assert len(log.of_kind("buffer")) == 2
    assert len(log.of_kind("buffer.mode")) == 1
    assert len(log.of_kind("vm")) == 1


def test_registry_counter_increment():
    registry = MetricsRegistry()
    log = DecisionLog(registry=registry)
    log.record(0.0, "dvfs.duty", "insure", to_duty=0.8)
    log.record(1.0, "dvfs.duty", "insure", to_duty=0.6)
    counter = registry.get("decisions_total", kind="dvfs.duty")
    assert counter is not None and counter.value == 2


def test_jsonl_round_trip(tmp_path):
    log = DecisionLog()
    log.record(5.0, "load.restart", "insure", vms=3)
    log.record(9.5, "power.shed", "plant", unserved_w=120.5, demand_w=700.0)
    path = log.write_jsonl(tmp_path / "decisions.jsonl")
    loaded = DecisionLog.from_jsonl(path)
    assert len(loaded) == 2
    original = list(log)
    reloaded = list(loaded)
    for a, b in zip(original, reloaded, strict=True):
        assert (a.t, a.kind, a.source, a.data) == (b.t, b.kind, b.source, b.data)


class _StubRecorder:
    """Minimal TraceRecorder look-alike for the join."""

    def __init__(self):
        self._data = {
            "t": np.array([0.0, 60.0, 120.0]),
            "demand_w": np.array([100.0, 200.0, 300.0]),
        }
        self.names = ("demand_w",)

    def __getitem__(self, name):
        return self._data[name]


def test_join_decisions_attaches_nearest_prior_sample():
    log = DecisionLog()
    log.record(65.0, "vm.target", "insure", vms=2)
    log.record(-1.0, "buffer.mode", "b1")  # before the first sample
    rows = join_decisions(_StubRecorder(), log)
    by_kind = {row["kind"]: row for row in rows}
    joined = by_kind["vm.target"]
    assert joined["trace_t"] == 60.0
    assert joined["trace.demand_w"] == 200.0
    assert joined["data.vms"] == 2
    assert "trace_t" not in by_kind["buffer.mode"]


def test_join_decisions_after_final_sample_uses_last_sample():
    # Alerts and shutdown decisions are routinely stamped after the trace
    # recorder's final (decimated) sample; they join against that sample.
    log = DecisionLog()
    log.record(10_000.0, "alert.soc_droop", "alerts", severity="warning")
    rows = join_decisions(_StubRecorder(), log)
    assert rows[0]["trace_t"] == 120.0
    assert rows[0]["trace.demand_w"] == 300.0


def test_join_decisions_with_empty_recorder():
    from repro.sim.trace import TraceRecorder

    log = DecisionLog()
    log.record(5.0, "vm.target", "insure", vms=1)
    recorder = TraceRecorder()
    recorder.channel("demand_w", lambda: 0.0)
    rows = join_decisions(recorder, log)  # no samples recorded yet
    assert len(rows) == 1
    assert "trace_t" not in rows[0]
    assert rows[0]["data.vms"] == 1


def test_join_decisions_accepts_plain_mapping():
    log = DecisionLog()
    log.record(65.0, "vm.target", "insure", vms=2)
    arrays = {"t": [0.0, 60.0, 120.0], "soc": [0.9, 0.8, 0.7]}
    rows = join_decisions(arrays, log)
    assert rows[0]["trace_t"] == 60.0
    assert rows[0]["trace.soc"] == 0.8


def test_join_decisions_empty_mapping_and_no_decisions():
    log = DecisionLog()
    log.record(1.0, "vm.target", "insure")
    assert join_decisions({}, log)[0].get("trace_t") is None
    assert join_decisions(_StubRecorder(), DecisionLog()) == []


def test_join_decisions_ragged_channel_shorter_than_time():
    # A channel array shorter than the time axis (interrupted export)
    # must not index out of range.
    log = DecisionLog()
    log.record(130.0, "vm.target", "insure")
    arrays = {"t": [0.0, 60.0, 120.0], "soc": [0.9, 0.8]}
    rows = join_decisions(arrays, log)
    assert rows[0]["trace_t"] == 120.0
    assert "trace.soc" not in rows[0]
