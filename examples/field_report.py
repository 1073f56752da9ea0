"""Field reporting: archive a day of operation as shareable artefacts.

Runs a full day (InSURE and the baseline for comparison), then writes
the artefacts a field operator would file:

* ``out/day_report.md``    — Markdown operating report
* ``out/comparison.md``    — InSURE-vs-baseline six-metric comparison
* ``out/trace.csv``        — every recorded channel, for plotting
* ``out/summary.json``     — machine-readable run summary
* ``out/solar_day.csv``    — the solar input, replayable via
                             ``repro.telemetry.io.load_day_trace_csv``

Run:  python examples/field_report.py [output_dir]
"""

import sys
from pathlib import Path

from repro.core.system import build_system
from repro.solar.traces import make_day_trace
from repro.telemetry.io import (
    export_day_trace_csv,
    export_recorder_csv,
    save_summary_json,
)
from repro.telemetry.report import render_comparison, render_summary
from repro.workloads import SeismicAnalysis


def main() -> None:
    out = Path(sys.argv[1] if len(sys.argv) > 1 else "out")
    out.mkdir(parents=True, exist_ok=True)

    trace = make_day_trace("cloudy", target_mean_w=650.0, seed=17)
    runs = {}
    systems = {}
    for controller in ("insure", "baseline"):
        system = build_system(trace, SeismicAnalysis(), controller=controller,
                              seed=17, initial_soc=0.55)
        runs[controller] = system.run()
        systems[controller] = system

    insure_system = systems["insure"]
    report_path = out / "day_report.md"
    report_path.write_text(render_summary(runs["insure"],
                                          title="InSURE field day report"))
    (out / "comparison.md").write_text(
        render_comparison(runs["insure"], runs["baseline"])
    )
    export_recorder_csv(insure_system.recorder, out / "trace.csv")
    save_summary_json(runs["insure"], out / "summary.json",
                      extra={"seed": 17, "solar_profile": "cloudy"})
    export_day_trace_csv(trace, out / "solar_day.csv")

    print(f"artefacts written to {out}/")
    for name in ("day_report.md", "comparison.md", "trace.csv",
                 "summary.json", "solar_day.csv"):
        size = (out / name).stat().st_size
        print(f"  {name:16s} {size:8,d} bytes")


if __name__ == "__main__":
    main()
