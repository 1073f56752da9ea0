"""Trace and summary persistence.

Round-trippable export of what a run produced: recorder channels to CSV
(for plotting elsewhere), run summaries to JSON (for archiving paper-vs-
measured records), and solar day traces to CSV (for replaying a measured
day through the simulator — the authors' own methodology).
"""

from __future__ import annotations

import csv
import dataclasses
import json
from pathlib import Path

import numpy as np

from repro.sim.trace import TraceRecorder
from repro.solar.traces import DayTrace
from repro.telemetry.metrics import RunSummary


def export_recorder_csv(recorder: TraceRecorder, path: str | Path) -> Path:
    """Write every recorded channel (plus time) as one CSV."""
    path = Path(path)
    data = recorder.as_dict()
    names = ["t"] + [n for n in data if n != "t"]
    rows = zip(*(data[name] for name in names), strict=True)
    with path.open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(names)
        writer.writerows(rows)
    return path


def save_summary_json(summary: RunSummary, path: str | Path,
                      extra: dict | None = None) -> Path:
    """Persist a run summary (plus free-form metadata) as JSON."""
    path = Path(path)
    payload = dataclasses.asdict(summary)
    if extra:
        overlap = set(payload) & set(extra)
        if overlap:
            raise ValueError(f"extra keys shadow summary fields: {sorted(overlap)}")
        payload.update(extra)
    path.write_text(json.dumps(payload, indent=2, sort_keys=True))
    return path


def load_summary_json(path: str | Path) -> RunSummary:
    """Load a summary saved by :func:`save_summary_json`.

    Unknown (extra) keys are ignored so archived files stay loadable as
    the summary grows new fields.
    """
    payload = json.loads(Path(path).read_text())
    fields = {f.name for f in dataclasses.fields(RunSummary)}
    missing = fields - set(payload)
    if missing:
        raise ValueError(f"summary file missing fields: {sorted(missing)}")
    return RunSummary(**{k: v for k, v in payload.items() if k in fields})


def export_day_trace_csv(trace: DayTrace, path: str | Path) -> Path:
    """Write a solar day trace as (t_seconds, power_w) CSV."""
    path = Path(path)
    with path.open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["t_seconds", "power_w", "start_hour", "dt_seconds"])
        for i, power in enumerate(trace.power_w):
            writer.writerow([i * trace.dt_seconds, float(power),
                             trace.start_hour, trace.dt_seconds])
    return path


def load_day_trace_csv(path: str | Path) -> DayTrace:
    """Load a trace saved by :func:`export_day_trace_csv` (or hand-made
    measurements in the same layout).  A sample that is negative, NaN or
    infinite raises ``ValueError``, as :class:`DayTrace` does."""
    path = Path(path)
    powers: list[float] = []
    start_hour = 7.0
    dt_seconds = 5.0
    with path.open() as fh:
        reader = csv.DictReader(fh)
        for row in reader:
            powers.append(float(row["power_w"]))
            start_hour = float(row.get("start_hour", start_hour))
            dt_seconds = float(row.get("dt_seconds", dt_seconds))
    if not powers:
        raise ValueError(f"no samples in {path}")
    return DayTrace(start_hour=start_hour, dt_seconds=dt_seconds,
                    power_w=np.asarray(powers))
