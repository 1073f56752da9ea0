"""Oil-exploration case study: seismic batch analysis in the field.

The paper's first in-situ application: a geographical survey of a 225 km²
oil field produces 114 GB of micro-seismic data twice a day, processed by
a Madagascar-style velocity analysis.  This example runs the same day
under InSURE and under the unified-buffer baseline and prints the
head-to-head comparison of Figure 20, plus the operating timeline.

Run:  python examples/oil_exploration.py [low|high]
"""

import sys

from repro.core.system import build_system
from repro.solar.traces import make_day_trace
from repro.telemetry.analyzer import all_improvements
from repro.workloads import SeismicAnalysis


def run_day(controller: str, mean_w: float, seed: int = 7):
    trace = make_day_trace(
        "sunny" if mean_w >= 800 else "cloudy",
        target_mean_w=mean_w,
        seed=seed,
    )
    system = build_system(
        trace,
        SeismicAnalysis(),
        controller=controller,
        initial_soc=0.55,
        seed=seed,
    )
    return system, system.run()


def print_timeline(system, label: str) -> None:
    print(f"\n  {label} operating timeline:")
    interesting = ("load.checkpoint_stop", "load.restart", "buffer.online",
                   "power.shed")
    shown = 0
    for decision in system.decisions:
        if decision.kind in interesting and shown < 8:
            hour = 7.0 + decision.t / 3600.0
            detail = ", ".join(f"{k}={v}" for k, v in decision.data.items())
            print(f"    {hour:5.2f}h  {decision.kind:22s} {detail}")
            shown += 1
    if shown == 0:
        print("    (uninterrupted operation)")


def main() -> None:
    level = sys.argv[1] if len(sys.argv) > 1 else "low"
    mean_w = 1000.0 if level == "high" else 500.0
    print(f"Seismic case study at {level} solar generation ({mean_w:.0f} W avg)")
    print("=" * 60)

    systems = {}
    summaries = {}
    for controller in ("insure", "baseline"):
        systems[controller], summaries[controller] = run_day(controller, mean_w)

    print(f"\n{'metric':28s} {'InSURE':>10s} {'baseline':>10s}")
    insure, base = summaries["insure"], summaries["baseline"]
    rows = [
        ("uptime (%)", insure.availability_pct, base.availability_pct),
        ("throughput (GB/h)", insure.throughput_gb_per_hour,
         base.throughput_gb_per_hour),
        ("processed (GB)", insure.processed_gb, base.processed_gb),
        ("mean delay (min)", insure.mean_delay_minutes, base.mean_delay_minutes),
        ("e-Buffer avail (Wh)", insure.energy_availability_wh,
         base.energy_availability_wh),
        ("battery life (days)", insure.projected_life_days,
         base.projected_life_days),
        ("perf per Ah (GB)", insure.perf_per_ah_gb, base.perf_per_ah_gb),
        ("on/off cycles", insure.on_off_cycles, base.on_off_cycles),
    ]
    for name, a, b in rows:
        print(f"{name:28s} {a:10.1f} {b:10.1f}")

    print("\nInSURE improvement over baseline (Figure 20 shape):")
    for metric, value in all_improvements(insure, base).items():
        print(f"  {metric:18s} {value * 100:+6.0f} %")

    print_timeline(systems["insure"], "InSURE")
    print_timeline(systems["baseline"], "baseline")


if __name__ == "__main__":
    main()
