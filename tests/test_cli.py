"""Command-line interface."""

import pstats

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_day_defaults(self):
        args = build_parser().parse_args(["day"])
        assert args.controller == "insure"
        assert args.workload == "video"
        assert args.solar == "sunny"

    def test_invalid_controller(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["day", "--controller", "magic"])

    def test_table_number_validated(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["table", "5"])

    def test_plan_requires_rate(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["plan"])

    def test_report_requires_subcommand(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["report"])

    def test_report_run_defaults(self):
        args = build_parser().parse_args(["report", "run"])
        assert args.controller == "insure"
        assert args.stride == 16
        assert args.out is None and args.cprofile is None

    def test_profile_command_is_gone(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["profile", "run"])

    def test_validate_sweep_flags(self):
        args = build_parser().parse_args(
            ["validate", "--sweep-hours", "36", "--report", "out.json"])
        assert args.sweep_hours == 36.0
        assert args.report == "out.json"


class TestCommands:
    def test_table7(self, capsys):
        assert main(["table", "7"]) == 0
        out = capsys.readouterr().out
        assert "dedup" in out and "GB/kWh" in out

    def test_plan_in_situ_verdict(self, capsys):
        assert main(["plan", "--gb-per-day", "200", "--days", "365"]) == 0
        out = capsys.readouterr().out
        assert "deploy in-situ" in out

    def test_plan_cloud_verdict(self, capsys):
        assert main(["plan", "--gb-per-day", "0.2", "--days", "365"]) == 0
        out = capsys.readouterr().out
        assert "use the cloud" in out

    def test_day_run(self, capsys):
        code = main([
            "day", "--workload", "video", "--solar", "rainy",
            "--mean-w", "300", "--seed", "2",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "uptime" in out and "GB/h" in out

    def test_compare_run(self, capsys):
        code = main([
            "compare", "--workload", "video", "--solar", "cloudy",
            "--mean-w", "450", "--seed", "2",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "[insure]" in out and "[baseline]" in out
        assert "improvement" in out


class TestReportCommand:
    def test_report_run_writes_profile_and_artifacts(self, tmp_path, capsys):
        out_dir = tmp_path / "flight"
        dump = out_dir / "run.pstats"
        code = main([
            "report", "run", "--workload", "seismic", "--solar", "sunny",
            "--mean-w", "900", "--seed", "3", "--duration-h", "0.5",
            "--stride", "4", "--out", str(out_dir), "--cprofile", str(dump),
        ])
        assert code == 0
        out = capsys.readouterr().out
        for artifact in ("flight_report.md", "metrics.jsonl", "metrics.prom",
                         "decisions.jsonl", "spans.folded", "ledger.json",
                         "alerts.jsonl"):
            assert (out_dir / artifact).is_file()
            assert artifact in out
        text = (out_dir / "flight_report.md").read_text()
        assert ("| span | calls | self ms | total ms | mean us | max us "
                "| share |") in text
        assert "### Hottest sampled ticks" in text
        assert "## Decisions" in text
        assert pstats.Stats(str(dump)).total_calls > 0


class TestBadNumbers:
    """A bad number is a usage error: status 2, no traceback."""

    @pytest.mark.parametrize("argv", [
        ["day", "--mean-w", "1e308"],
        ["day", "--mean-w", "nan"],
        ["day", "--initial-soc", "1.5"],
        ["compare", "--mean-w", "inf"],
        ["report", "run", "--duration-h", "0.1", "--mean-w", "nan"],
        ["fleet", "run", "--sites", "2", "--mean-w", "nan"],
    ], ids=" ".join)
    def test_usage_error(self, argv, capsys):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert "repro: error: " in capsys.readouterr().err


class TestValidateSweep:
    def test_sweep_single_cell_clean(self, tmp_path, capsys):
        report = tmp_path / "sweep.json"
        code = main([
            "validate", "--sweep-hours", "0.5",
            "--cell", "insure:video:sunny", "--jobs", "1",
            "--report", str(report),
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "invariant sweep" in out and "all cells clean" in out
        assert report.is_file()
        import json

        payload = json.loads(report.read_text())
        assert payload["sweep_hours"] == 0.5
        assert "insure-video-sunny" in payload["cells"]

    def test_sweep_rejects_nonpositive_hours(self):
        with pytest.raises(SystemExit):
            main(["validate", "--sweep-hours", "0"])


class TestArtifactFlags:
    def test_day_writes_report_and_trace(self, tmp_path, capsys):
        report = tmp_path / "day.md"
        trace = tmp_path / "day.csv"
        code = main([
            "day", "--workload", "video", "--solar", "rainy",
            "--mean-w", "300", "--seed", "2",
            "--report", str(report), "--trace-csv", str(trace),
        ])
        assert code == 0
        assert report.exists() and report.read_text().startswith("#")
        header = trace.read_text().splitlines()[0]
        assert header.startswith("t,")
