"""Video-surveillance case study: a continuous stream in the wild.

The paper's second in-situ application: 24 cameras at 1280x720/5 fps
stream 0.21 GB of footage per minute to a Hadoop-style pattern
recognition pipeline.  This example runs a cloudy day under InSURE and
reports the day's stream statistics and how closely the VM count tracked
the solar input — the VM-count actuation of the temporal power manager
at work.

Run:  python examples/video_surveillance.py
"""

import numpy as np

from repro.core.system import build_system
from repro.solar.traces import make_day_trace
from repro.workloads import VideoSurveillance


def main() -> None:
    trace = make_day_trace("cloudy", target_mean_w=600.0, seed=11)
    workload = VideoSurveillance()
    system = build_system(trace, workload, controller="insure",
                          initial_soc=0.55, seed=11)

    summary = system.run()
    recorder = system.recorder

    print("Video surveillance on a cloudy day — InSURE")
    print("\nDay summary")
    print("-" * 30)
    print(f"footage arrived        {0.21 * 60 * 13:6.1f} GB")
    print(f"footage processed      {summary.processed_gb:6.1f} GB")
    print(f"uptime                 {summary.availability_pct:6.1f} %")
    print(f"mean chunk delay       {summary.mean_delay_minutes:6.1f} min")
    print(f"end-of-day backlog     {workload.backlog_gb:6.1f} GB")
    print(f"VM control operations  {summary.vm_ctrl_times:6d}")

    # Show how the temporal manager matched VM count to the power budget.
    vms = recorder["running_vms"]
    solar = recorder["solar_w"]
    # Correlation between available power and allocated capacity.
    mask = solar > 1.0
    if mask.sum() > 10:
        corr = float(np.corrcoef(solar[mask], vms[mask])[0, 1])
        print(f"\nsolar-to-VM-count correlation: {corr:+.2f} "
              "(power-aware load matching)")


if __name__ == "__main__":
    main()
