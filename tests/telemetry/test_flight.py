"""Flight report: run_flight, Markdown/HTML rendering, artifacts,
compare, span profile and cProfile dump."""

import html
import json
import pstats

import pytest

from repro.telemetry.flight import (
    render_html,
    render_markdown,
    run_flight,
    write_flight_report,
)

SHORT_H = 3.0


@pytest.fixture(scope="module")
def flight():
    return run_flight(controller="insure", workload="seismic",
                      weather="cloudy", seed=1, duration_s=SHORT_H * 3600.0)


@pytest.fixture(scope="module")
def flight_with_compare():
    return run_flight(controller="insure", workload="seismic",
                      weather="cloudy", seed=1,
                      duration_s=SHORT_H * 3600.0, compare="baseline")


class TestRunFlight:
    def test_collects_summary_ledger_and_alerts(self, flight):
        assert flight.summary.elapsed_s == pytest.approx(SHORT_H * 3600.0)
        assert flight.ticks == int(SHORT_H * 3600.0 / 5.0)
        assert flight.obs.ledger.closure().ok
        assert flight.ledger_edges["pv.harvest"] > 0
        # The report's alerts are the alert decisions of the run.
        assert flight.alerts == flight.obs.decisions.of_kind("alert")

    def test_collects_span_profile_and_decisions(self, flight):
        assert flight.wall_s > 0
        spans = {row["span"] for row in flight.obs.tracer.report_rows()}
        assert {"insure", "plant", "controller.sense"} <= spans
        hottest = flight.obs.tracer.hottest()
        assert hottest
        assert all(entry["wall_us"] > 0 for entry in hottest)
        assert flight.obs.decisions.counts()

    def test_cprofile_dump_covers_the_primary_run_only(self, tmp_path):
        target = tmp_path / "nested" / "run.pstats"
        run_flight(controller="insure", workload="seismic", weather="sunny",
                   seed=3, duration_s=1800.0, compare="baseline",
                   cprofile_path=target)
        stats = pstats.Stats(str(target))
        assert stats.total_calls > 0
        runs = [calls for (path, _, name), (_, calls, *_) in stats.stats.items()
                if name == "run" and path.endswith("system.py")]
        assert runs == [1]
        # The insure controller ran under the profiler; the baseline did not.
        paths = {path for path, _, _ in stats.stats}
        assert any(p.endswith("energy_manager.py") for p in paths)
        assert not any(p.endswith("baseline.py") for p in paths)

    def test_compare_must_differ(self):
        with pytest.raises(ValueError, match="differ"):
            run_flight(controller="insure", compare="insure",
                       duration_s=600.0)

    def test_compare_runs_same_trace(self, flight_with_compare):
        report = flight_with_compare
        assert report.compare_controller == "baseline"
        assert report.compare_summary is not None
        # identical seed/trace: identical harvest, different usage
        ours = report.ledger_edges["pv.harvest"]
        theirs = report.compare_obs.ledger.edges()["pv.harvest"]
        assert ours == pytest.approx(theirs)


class TestMarkdown:
    def test_sections_present(self, flight):
        text = render_markdown(flight)
        for heading in ("# Flight report — insure / seismic / cloudy",
                        "## Service", "## Energy ledger", "## Alerts",
                        "## Decisions", "## Span profile"):
            assert heading in text
        assert "Closure: ledger closure ok" in text
        assert "| pv.harvest |" in text
        assert "## Comparison" not in text

    def test_span_profile_rows_and_hottest_ticks(self, flight):
        text = render_markdown(flight)
        assert ("| span | calls | self ms | total ms | mean us | max us "
                "| share |") in text
        for row in flight.obs.tracer.report_rows():
            assert (f"| {row['span']} | {row['calls']} | "
                    f"{row['self_s'] * 1e3:.2f} | {row['total_s'] * 1e3:.2f} | "
                    f"{row['mean_us']:.1f} | {row['max_us']:.1f} | ") in text
        assert "### Hottest sampled ticks" in text
        assert "| tick | t (s) | wall us | top spans |" in text
        for entry in flight.obs.tracer.hottest():
            top = ", ".join(f"{name} {self_s * 1e6:.0f} us" for name, self_s
                            in list(entry["breakdown"].items())[:3])
            assert f"| {entry['tick']} | {entry['t']:.1f} | " in text
            assert f" | {top} |" in text

    def test_decision_counts(self, flight):
        text = render_markdown(flight)
        for kind, count in flight.obs.decisions.counts().items():
            assert f"| {kind} | {count} |" in text

    def test_compare_sections(self, flight_with_compare):
        text = render_markdown(flight_with_compare)
        assert "## Comparison" in text
        assert "### Ledger delta" in text
        assert "| flow edge | insure | baseline |" in text


class TestHtml:
    def test_is_self_contained_document(self, flight):
        page = render_html(flight)
        assert page.startswith("<!DOCTYPE html>")
        assert page.endswith("</html>")
        assert "<h2>Energy ledger</h2>" in page
        assert "pv.harvest" in page
        assert ("<th>total ms</th><th>mean us</th><th>max us</th>"
                "<th>share</th>") in page
        assert "<h3>Hottest sampled ticks</h3>" in page

    def test_escapes_content(self, flight):
        # The renderer must escape whatever lands in messages/labels.
        flight_alerts = flight.alerts
        assert flight_alerts, "the seismic/cloudy day fires alerts"
        page = render_html(flight)
        for alert in flight_alerts:
            assert f"<td>{alert.kind.removeprefix('alert.')}</td>" in page
            assert f"<td>{html.escape(alert.data['message'])}</td>" in page


class TestArtifacts:
    def test_write_flight_report(self, flight, tmp_path):
        paths = write_flight_report(flight, tmp_path, with_html=True)
        assert {"flight_md", "flight_html", "ledger_json", "alerts_jsonl",
                "metrics_prom", "decisions_jsonl",
                "spans_folded"} <= set(paths)
        assert paths["flight_md"].read_text().startswith("# Flight report")
        ledger = json.loads(paths["ledger_json"].read_text())
        assert ledger["closure"]["ok"] is True

    def test_writes_the_report_and_every_export_file(self, flight, tmp_path):
        paths = write_flight_report(flight, tmp_path)
        # The rendered report plus every file Observability.export writes.
        assert set(paths) == {"flight_md", "ledger_json", "alerts_jsonl",
                              "metrics_jsonl", "metrics_prom",
                              "decisions_jsonl", "spans_folded"}
        assert all(path.is_file() for path in paths.values())
        text = paths["flight_md"].read_text()
        assert "## Span profile" in text
        assert "### Hottest sampled ticks" in text

    def test_markdown_only_by_default(self, flight, tmp_path):
        paths = write_flight_report(flight, tmp_path)
        assert "flight_html" not in paths
        assert paths["flight_md"].is_file()
