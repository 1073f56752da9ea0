"""Experiment runners — one per table/figure of the paper's evaluation.

Each module exposes a ``run_*`` function returning plain dataclasses or
dicts so that benchmarks, tests and examples share the exact same
experiment code.  See DESIGN.md's per-experiment index for the mapping.
"""

from repro.experiments.charging import (
    charging_time_hours,
    run_fig4a_charging,
    run_fig4b_discharge,
)
from repro.experiments.fixed_config import FixedConfigResult, run_fixed_config
from repro.experiments.fullsystem import run_figure20, run_figure21
from repro.experiments.micro_sweep import run_micro_sweep
from repro.experiments.table6 import run_table6
from repro.experiments.table7 import run_table7

__all__ = [
    "FixedConfigResult",
    "charging_time_hours",
    "run_fig4a_charging",
    "run_fig4b_discharge",
    "run_fixed_config",
    "run_figure20",
    "run_figure21",
    "run_micro_sweep",
    "run_table6",
    "run_table7",
]
