"""In-situ workload models.

Three families, matching the paper's evaluation:

* :mod:`repro.workloads.seismic` — intermittent batch jobs: 114 GB of 3D
  reflection seismic survey data per job, two jobs a day (the oil
  exploration case study).
* :mod:`repro.workloads.video` — continuous data stream: pattern
  recognition over footage from 24 cameras at 0.21 GB/min (the video
  surveillance case study).
* :mod:`repro.workloads.micro` — the PARSEC / HiBench / CloudSuite micro
  benchmarks of Table 5 and Figures 17-19 (dedup, graph, bayesian,
  wordcount, vips, x264, sort, terasort) as iterated kernels with
  per-benchmark power and throughput envelopes.

:func:`make_workload` builds a case-study workload by name, the way cells,
manifests and the CLI refer to them.

All workloads consume *compute-seconds* produced by the rack (VM-count x
DVFS duty x relative speed x wall time), so every power-management action
shows up in their throughput and latency metrics.
"""

from repro.workloads.base import Job, JobQueue, Workload
from repro.workloads.micro import MICRO_BENCHMARKS, MicroBenchmark, MicroWorkload
from repro.workloads.seismic import SeismicAnalysis
from repro.workloads.video import VideoSurveillance

__all__ = [
    "Job",
    "JobQueue",
    "MICRO_BENCHMARKS",
    "MicroBenchmark",
    "MicroWorkload",
    "SeismicAnalysis",
    "VideoSurveillance",
    "Workload",
    "make_workload",
]


def make_workload(kind: str) -> Workload:
    """A fresh case-study workload: ``"video"`` or ``"seismic"``."""
    if kind == "video":
        return VideoSurveillance()
    if kind == "seismic":
        return SeismicAnalysis()
    raise ValueError(f"unknown workload kind {kind!r}")
