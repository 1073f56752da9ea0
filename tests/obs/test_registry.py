"""Metrics registry semantics: counters, gauges, export."""

import json

import pytest

from repro.obs.registry import Counter, Gauge, MetricsRegistry


class TestCounter:
    def test_starts_at_zero_and_accumulates(self):
        c = Counter("ops")
        assert c.value == 0.0
        c.inc()
        c.inc(2.5)
        assert c.value == 3.5

    def test_rejects_negative_increment(self):
        c = Counter("ops")
        with pytest.raises(ValueError):
            c.inc(-1)


class TestGauge:
    def test_set_and_read(self):
        g = Gauge("depth")
        g.set(4.2)
        assert g.value == 4.2

    def test_function_binding_reads_at_collection_time(self):
        state = {"x": 1.0}
        g = Gauge("live")
        g.set_function(lambda: state["x"])
        assert g.value == 1.0
        state["x"] = 7.0
        assert g.value == 7.0
        # an explicit set unbinds the callable
        g.set(0.5)
        state["x"] = 99.0
        assert g.value == 0.5


class TestRegistry:
    def test_get_or_create_is_idempotent(self):
        reg = MetricsRegistry()
        a = reg.counter("x", "help")
        b = reg.counter("x")
        assert a is b
        assert len(reg) == 1

    def test_labels_distinguish_series(self):
        reg = MetricsRegistry()
        a = reg.gauge("soc", unit="b1")
        b = reg.gauge("soc", unit="b2")
        assert a is not b
        assert reg.get("soc", unit="b1") is a

    def test_kind_mismatch_raises(self):
        reg = MetricsRegistry()
        reg.counter("x")
        with pytest.raises(ValueError):
            reg.gauge("x")

    def test_jsonl_round_trip(self):
        reg = MetricsRegistry()
        reg.counter("ops").inc(3)
        reg.gauge("depth", unit="b1").set(0.5)
        reg.gauge("lat").set_function(lambda: 0.2)
        samples = [json.loads(line) for line in reg.to_jsonl().splitlines()]
        by_name = {s["name"]: s for s in samples}
        assert by_name["ops"]["value"] == 3
        assert by_name["ops"]["kind"] == "counter"
        assert by_name["depth"]["labels"] == {"unit": "b1"}
        assert by_name["lat"] == {"name": "lat", "kind": "gauge",
                                  "labels": {}, "value": 0.2}

    def test_prometheus_exposition(self):
        reg = MetricsRegistry()
        reg.counter("serve.sessions_created_total", "sessions created").inc(2)
        reg.gauge("bank.soc", unit="b1").set(0.4)
        reg.gauge("engine.mean_tick_seconds").set(0.05)
        text = reg.to_prometheus()
        assert "# HELP serve_sessions_created_total sessions created" in text
        assert "# TYPE serve_sessions_created_total counter" in text
        assert "serve_sessions_created_total 2.0" in text
        assert 'bank_soc{unit="b1"} 0.4' in text
        assert "# TYPE engine_mean_tick_seconds gauge" in text
        assert "engine_mean_tick_seconds 0.05" in text

    def test_prometheus_escapes_label_values(self):
        reg = MetricsRegistry()
        reg.counter("decisions_total",
                    kind='say "hi"\nback\\slash').inc()
        text = reg.to_prometheus()
        assert r'kind="say \"hi\"\nback\\slash"' in text
        assert "\nback" not in text.replace("\\nback", "")  # no raw newline

    def test_prometheus_escapes_help_text(self):
        reg = MetricsRegistry()
        reg.counter("ops", "first line\nsecond \\ line").inc()
        text = reg.to_prometheus()
        assert "# HELP ops first line\\nsecond \\\\ line" in text

    def test_prometheus_headers_once_per_family(self):
        # Children of one family (same name, different labels) must yield
        # exactly one HELP and one TYPE line, even when the help text
        # arrives on a later-created (or later-sorted) child.
        reg = MetricsRegistry()
        reg.counter("decisions_total", kind="zz_first_created").inc()
        reg.counter("decisions_total", "decisions recorded per kind",
                    kind="aa_sorted_first").inc()
        reg.gauge("bank.soc", unit="b1").set(0.4)
        reg.gauge("bank.soc", unit="b2").set(0.5)
        text = reg.to_prometheus()
        lines = text.splitlines()
        assert lines.count(
            "# HELP decisions_total decisions recorded per kind") == 1
        assert lines.count("# TYPE decisions_total counter") == 1
        assert lines.count("# TYPE bank_soc gauge") == 1
        assert sum(1 for li in lines
                   if li.startswith("# HELP decisions_total")) == 1

    def test_prometheus_format_conformance(self):
        # Every non-comment line must be `name{labels} value` with a
        # sanitized metric name; every family headed by exactly one TYPE.
        import re

        reg = MetricsRegistry()
        reg.counter("serve.sessions_created_total", "sessions created").inc(2)
        reg.gauge("ledger.edge_wh", "energy per edge",
                  edge="pv.harvest").set(123.4)
        reg.gauge("engine.mean_tick_seconds", "tick wall time").set(0.05)
        sample_re = re.compile(
            r'^[a-zA-Z_:][a-zA-Z0-9_:]*(\{[^{}]*\})? \S+$')
        seen_types: list[str] = []
        for line in reg.to_prometheus().splitlines():
            if line.startswith("# TYPE "):
                seen_types.append(line.split()[2])
            elif not line.startswith("#"):
                assert sample_re.match(line), line
        assert seen_types == sorted(seen_types)  # name-sorted families
        assert len(seen_types) == len(set(seen_types))

    def test_collect_is_name_sorted(self):
        reg = MetricsRegistry()
        reg.counter("zzz")
        reg.counter("aaa")
        names = [s["name"] for s in reg.collect()]
        assert names == sorted(names)
