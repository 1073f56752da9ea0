"""Standalone solar power supply substrate.

The InSURE prototype drew from a roof-mounted 1.6 kW Grape Solar array with
a Perturb-and-Observe maximum-power-point tracker.  We model the whole
chain: solar geometry and clear-sky irradiance, a Markov cloud-regime
synthesiser that produces the paper's three day archetypes (sunny / cloudy /
rainy), a PV panel I-V model, and a P&O MPPT whose tentative perturbations
reproduce the power surges of Figure 16's Region B.

:mod:`repro.solar.traces` provides the calibrated day traces used by the
experiments: the *high* (~1114 W mean) and *low* (~427 W mean) generation
traces of Figure 15, and the 7.9 / 5.9 / 3.0 kWh days of Table 6.
"""

from repro.solar.clearsky import clearsky_ghi
from repro.solar.clouds import CloudField, CloudRegime
from repro.solar.field import ConstantSource, SolarField, TracePlayer
from repro.solar.geometry import cos_zenith, declination_rad, hour_angle_rad
from repro.solar.mppt import PerturbObserveMPPT
from repro.solar.panel import PVPanel
from repro.solar.traces import DayTrace, make_day_trace

__all__ = [
    "CloudField",
    "CloudRegime",
    "ConstantSource",
    "DayTrace",
    "PVPanel",
    "PerturbObserveMPPT",
    "SolarField",
    "TracePlayer",
    "clearsky_ghi",
    "cos_zenith",
    "declination_rad",
    "hour_angle_rad",
    "make_day_trace",
]
