"""Trace and summary persistence (``repro.telemetry.io``)."""

import numpy as np
import pytest

from repro.core.system import build_system
from repro.solar.field import ConstantSource
from repro.solar.traces import make_day_trace
from repro.telemetry.io import (
    export_day_trace_csv,
    export_recorder_csv,
    load_day_trace_csv,
    load_summary_json,
    save_summary_json,
)
from repro.workloads import VideoSurveillance


@pytest.fixture(scope="module")
def run():
    system = build_system(
        None, VideoSurveillance(), controller="insure",
        source=ConstantSource("solar", 900.0), initial_soc=0.7, seed=4,
    )
    summary = system.run(2 * 3600.0)
    return system, summary


class TestPersistence:
    def test_recorder_csv_roundtrip(self, run, tmp_path):
        system, _ = run
        path = export_recorder_csv(system.recorder, tmp_path / "trace.csv")
        header = path.read_text().splitlines()[0].split(",")
        assert header[0] == "t"
        assert "solar_w" in header
        body_lines = path.read_text().splitlines()[1:]
        assert len(body_lines) == len(system.recorder)

    def test_summary_json_roundtrip(self, run, tmp_path):
        _, summary = run
        path = save_summary_json(summary, tmp_path / "summary.json",
                                 extra={"seed": 4})
        loaded = load_summary_json(path)
        assert loaded == summary

    def test_extra_keys_cannot_shadow(self, run, tmp_path):
        _, summary = run
        with pytest.raises(ValueError):
            save_summary_json(summary, tmp_path / "x.json",
                              extra={"processed_gb": 0.0})

    def test_summary_missing_fields_rejected(self, tmp_path):
        (tmp_path / "bad.json").write_text('{"elapsed_s": 1.0}')
        with pytest.raises(ValueError):
            load_summary_json(tmp_path / "bad.json")

    def test_day_trace_csv_roundtrip(self, tmp_path):
        trace = make_day_trace("cloudy", seed=6, dt_seconds=30.0)
        path = export_day_trace_csv(trace, tmp_path / "day.csv")
        loaded = load_day_trace_csv(path)
        assert loaded.dt_seconds == trace.dt_seconds
        assert loaded.start_hour == trace.start_hour
        assert np.allclose(loaded.power_w, trace.power_w)

    def test_nan_sample_in_trace_file_rejected(self, tmp_path):
        (tmp_path / "nan.csv").write_text("t_seconds,power_w\n0,1.0\n5,nan\n")
        with pytest.raises(ValueError, match="power sample 1 is nan"):
            load_day_trace_csv(tmp_path / "nan.csv")

    def test_empty_trace_file_rejected(self, tmp_path):
        (tmp_path / "empty.csv").write_text("t_seconds,power_w\n")
        with pytest.raises(ValueError):
            load_day_trace_csv(tmp_path / "empty.csv")
