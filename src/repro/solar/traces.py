"""Calibrated reference day traces.

The paper evaluates against two kinds of solar inputs:

* Figure 15's *high* (~1114 W average) and *low* (~427 W average) daytime
  generation traces, used for the micro-benchmark studies, plus the scaled
  1000 W / 500 W variants of Figures 20-21.
* Table 6's three day archetypes with fixed total energy: sunny 7.9 kWh,
  cloudy 5.9 kWh and rainy 3.0 kWh over an ~13 h operating day.

Traces are synthesised from the clear-sky envelope attenuated by the cloud
process, then *exactly* rescaled to the target mean power or daily energy,
mirroring the authors' method of replaying recorded traces through their
battery charger for comparable experiments.
"""

from __future__ import annotations

import functools
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from repro.sim.rng import RandomStreams
from repro.solar.clearsky import clearsky_ghi
from repro.solar.clouds import CloudField

#: Paper trace constants (Figure 15, Table 6).
HIGH_TRACE_MEAN_W = 1114.0
LOW_TRACE_MEAN_W = 427.0
DAY_ENERGY_KWH = {"sunny": 7.9, "cloudy": 5.9, "rainy": 3.0}
TRACE_START_HOUR = 7.0
TRACE_END_HOUR = 20.0


def power_samples(power_w: Sequence[float] | np.ndarray) -> np.ndarray:
    """``power_w`` as a float64 array, checked as a solar trace's samples.

    A trace is a 1-D sequence of finite, non-negative watts: a PV source
    never draws power, and one NaN or infinite sample would make every
    energy integral downstream NaN or infinite.  Raises ``ValueError``
    naming the first sample that breaks the rule.  A float64 array comes
    back as it is, not copied.
    """
    arr = np.asarray(power_w, dtype=np.float64)
    if arr.ndim != 1:
        raise ValueError(f"power_w must be one-dimensional, got shape {arr.shape}")
    ok = np.isfinite(arr) & (arr >= 0.0)
    if not ok.all():
        index = int(np.argmin(ok))
        raise ValueError(f"power sample {index} is {float(arr[index])} W; solar "
                         "samples must be finite and non-negative")
    return arr


@dataclass(frozen=True)
class DayTrace:
    """A solar power trace sampled on a fixed grid.

    Attributes
    ----------
    start_hour:
        Hour of day of the first sample.
    dt_seconds:
        Sample spacing.
    power_w:
        Power available at the PV bus for each sample, kept as the
        float64 array :func:`power_samples` returns: construction raises
        ``ValueError`` for a sample that is negative, NaN or infinite.
    """

    start_hour: float
    dt_seconds: float
    power_w: np.ndarray

    def __post_init__(self) -> None:
        object.__setattr__(self, "power_w", power_samples(self.power_w))

    @property
    def duration_s(self) -> float:
        return len(self.power_w) * self.dt_seconds

    @property
    def mean_power_w(self) -> float:
        return float(np.mean(self.power_w)) if len(self.power_w) else 0.0

    @property
    def energy_kwh(self) -> float:
        return float(np.sum(self.power_w)) * self.dt_seconds / 3.6e6

    def at(self, t_seconds: float) -> float:
        """Power at ``t_seconds`` after the trace start (zero past the end)."""
        if t_seconds < 0:
            raise ValueError("t_seconds must be non-negative")
        index = int(t_seconds // self.dt_seconds)
        if index >= len(self.power_w):
            return 0.0
        return float(self.power_w[index])


def _raw_day(
    profile: str,
    rated_w: float,
    dt_seconds: float,
    seed: int,
) -> np.ndarray:
    """Clear-sky envelope times the cloud process, on the paper's day window."""
    factories = {
        "sunny": CloudField.sunny,
        "cloudy": CloudField.cloudy,
        "rainy": CloudField.rainy,
    }
    try:
        factory = factories[profile]
    except KeyError:
        raise ValueError(
            f"unknown profile {profile!r}; expected one of {sorted(factories)}"
        ) from None

    rng = RandomStreams(seed).stream(f"solar.{profile}")
    step = factory(rng).step
    envelope = _clearsky_envelope(dt_seconds)
    clearness = np.array([step(dt_seconds) for _ in range(len(envelope))])
    # rated_w * (ghi / 1000.0) * clearness, elementwise in that order.
    return rated_w * envelope * clearness


@functools.lru_cache(maxsize=8)
def _clearsky_envelope(dt_seconds: float) -> np.ndarray:
    """``clearsky_ghi / 1000`` at every sample time of the day window.

    No seed, profile or target changes it, so it is computed once per
    ``dt_seconds`` and shared, as one read-only float64 array.
    """
    hours = np.arange(TRACE_START_HOUR, TRACE_END_HOUR, dt_seconds / 3600.0)
    envelope = np.array([clearsky_ghi(hour) / 1000.0 for hour in hours.tolist()])
    envelope.flags.writeable = False
    return envelope


#: Synthesis is deterministic in its arguments, and experiment matrices
#: request the same few traces repeatedly (e.g. both controllers replay the
#: identical solar day).  Memoise the finished power arrays; entries hand
#: out defensive copies so callers can never alias each other.
_TRACE_MEMO: dict[tuple, np.ndarray] = {}
_TRACE_MEMO_MAX = 32


def make_day_trace(
    profile: str = "sunny",
    rated_w: float = 1600.0,
    dt_seconds: float = 5.0,
    seed: int = 0,
    target_energy_kwh: float | None = None,
    target_mean_w: float | None = None,
) -> DayTrace:
    """Synthesise a day trace, optionally rescaled to an exact target.

    Exactly one of ``target_energy_kwh`` / ``target_mean_w`` may be given;
    with neither, the raw synthetic trace is returned.  Profiles default to
    the Table 6 energies via :data:`DAY_ENERGY_KWH` when
    ``target_energy_kwh`` is the string-selected profile's value.
    """
    if target_energy_kwh is not None and target_mean_w is not None:
        raise ValueError("give at most one of target_energy_kwh / target_mean_w")
    memo_key = (profile, rated_w, dt_seconds, seed, target_energy_kwh, target_mean_w)
    cached = _TRACE_MEMO.get(memo_key)
    if cached is not None:
        return DayTrace(start_hour=TRACE_START_HOUR, dt_seconds=dt_seconds,
                        power_w=cached.copy())
    power = _raw_day(profile, rated_w, dt_seconds, seed)
    if target_energy_kwh is not None:
        power = _rescaled(power, target_energy_kwh, power.sum() * dt_seconds / 3.6e6)
    elif target_mean_w is not None:
        power = _rescaled(power, target_mean_w, power.mean())
    if len(_TRACE_MEMO) >= _TRACE_MEMO_MAX:
        _TRACE_MEMO.pop(next(iter(_TRACE_MEMO)))
    _TRACE_MEMO[memo_key] = power.copy()
    return DayTrace(start_hour=TRACE_START_HOUR, dt_seconds=dt_seconds, power_w=power)


def _rescaled(power: np.ndarray, target: float, current: float) -> np.ndarray:
    """``power`` scaled from its ``current`` mean power or energy to ``target``.

    Raises ``ValueError`` when the trace has no energy to scale, or when
    the scaled trace is not finite: a NaN target, or one too large for a
    float sample (a 1e308 W mean overflows the midday peak).
    """
    if current <= 0:
        raise ValueError("trace has no energy to rescale")
    with np.errstate(over="ignore", invalid="ignore"):
        scaled = power * (target / current)
    if not np.isfinite(scaled).all():
        raise ValueError(f"a target of {target:g} leaves the rescaled trace non-finite")
    return scaled


def paper_high_trace(dt_seconds: float = 5.0, seed: int = 0) -> DayTrace:
    """Figure 15(a): high generation, ~1114 W average over the day window."""
    return make_day_trace("sunny", dt_seconds=dt_seconds, seed=seed,
                          target_mean_w=HIGH_TRACE_MEAN_W)


def paper_low_trace(dt_seconds: float = 5.0, seed: int = 0) -> DayTrace:
    """Figure 15(b): low generation, ~427 W average, heavy variability."""
    return make_day_trace("cloudy", dt_seconds=dt_seconds, seed=seed,
                          target_mean_w=LOW_TRACE_MEAN_W)


def table6_trace(day: str, dt_seconds: float = 5.0, seed: int = 0) -> DayTrace:
    """Table 6 day archetypes with the paper's exact daily energies."""
    return make_day_trace(day, dt_seconds=dt_seconds, seed=seed,
                          target_energy_kwh=DAY_ENERGY_KWH[day])
