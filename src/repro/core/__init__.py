"""InSURE: the paper's contribution.

* :mod:`repro.core.modes` — the operating-mode FSM of Figures 7-8.
* :mod:`repro.core.sensing` — the PLC/transducer sensing path and the
  battery state estimator; controllers only ever see these sensed values.
* :mod:`repro.core.spatial` — SPM: wear-balanced offline screening (Eq. 1,
  Figure 9) and budget-adaptive charge batch sizing (Figure 10).
* :mod:`repro.core.temporal` — TPM: discharge-current capping actuated as
  DVFS duty cycles (batch jobs) or VM scaling (streams), with SoC-triggered
  checkpointing (Figure 11).
* :mod:`repro.core.energy_manager` — the InSURE controller tying it all
  together.
* :mod:`repro.core.baseline` — the unified-buffer baseline ("No-Opt" /
  state-of-the-art green-datacenter manager the paper compares against).
* :mod:`repro.core.system` — full-system assembly used by experiments.
"""

from repro.core.baseline import BaselineController, BaselineParams
from repro.core.energy_manager import InsureController, InsureParams
from repro.core.modes import ModeTransition
from repro.core.sensing import BatterySense, BatteryTelemetry
from repro.core.spatial import SpatialPolicy
from repro.core.system import InSituSystem, build_system
from repro.core.temporal import TemporalAction, TemporalPolicy

__all__ = [
    "BaselineController",
    "BaselineParams",
    "BatterySense",
    "BatteryTelemetry",
    "InSituSystem",
    "InsureController",
    "InsureParams",
    "ModeTransition",
    "SpatialPolicy",
    "TemporalAction",
    "TemporalPolicy",
    "build_system",
]
