"""Deterministic policy input signals.

A :class:`SignalProvider` answers two questions about one external
quantity at simulation time ``t``: its numeric value (``value(t)``) and
the discrete zone that value falls in (``zone(t)`` — the label a ``list``
governor consumes, mirroring ElectricityMaps-style carbon bands).

The synthetic carbon-intensity and energy-price providers are *pure
functions of (seed, t)*: a diurnal base curve plus piecewise-constant
hourly noise, where each hour block's perturbation is derived from
``sha256(f"{seed}:{name}:{hour}")`` — the same child-seeding idiom as
:class:`repro.sim.rng.RandomStreams`.  Purity is what lets the scalar
simulator and the vectorized fleet kernel evaluate the identical signal
without sharing generator state, and what the hypothesis suite pins
(seed-determinism, bounds, 24-hour period-consistency of the noise-free
component).

Two plant-backed providers (battery SoC, solar forecast) read controller
state instead; they must be bound to a manager before use.
"""

from __future__ import annotations

import hashlib
import math
import weakref
from collections.abc import Sequence
from typing import TYPE_CHECKING

if TYPE_CHECKING:  # annotations only; keeps policy importable standalone
    from repro.battery.charger import SolarCharger
    from repro.core.controller_base import PowerManager

TWO_PI = 2.0 * math.pi
HOUR_S = 3600.0
DAY_S = 86400.0


def _hour_noise(seed: int, name: str, hour_index: int) -> float:
    """Deterministic uniform draw in [-1, 1) for one (seed, name, hour)."""
    digest = hashlib.sha256(f"{seed}:{name}:{hour_index}".encode()).digest()
    unit = int.from_bytes(digest[:8], "little") / 2.0**64
    return 2.0 * unit - 1.0


class SignalProvider:
    """Base class for policy input signals.

    Parameters
    ----------
    name:
        Stream name; part of the per-hour noise derivation, so two
        providers with the same seed but different names draw
        independent noise (exactly like named
        :class:`~repro.sim.rng.RandomStreams`).
    zones:
        Ascending ``(label, upper_bound)`` pairs; a value belongs to the
        first zone whose upper bound it does not exceed, and to the last
        zone otherwise (its bound is conventionally ``inf``).
    """

    #: Physical unit of ``value`` (documentation / report labelling).
    unit = ""

    def __init__(self, name: str,
                 zones: Sequence[tuple[str, float]] = ()) -> None:
        self.name = name
        self.zones = tuple(zones)
        if self.zones:
            bounds = [b for _, b in self.zones[:-1]]
            if bounds != sorted(bounds):
                raise ValueError("zone upper bounds must ascend")

    #: Value bounds the provider promises (inclusive).
    bounds: tuple[float, float] = (-math.inf, math.inf)

    def value(self, t: float) -> float:
        raise NotImplementedError

    def zone(self, t: float) -> str:
        """Zone label of ``value(t)`` under the declared thresholds."""
        if not self.zones:
            raise ValueError(f"signal {self.name!r} declares no zones")
        v = self.value(t)
        for label, upper in self.zones[:-1]:
            if v <= upper:
                return label
        return self.zones[-1][0]

    def bind(self, manager: PowerManager,
             charger: SolarCharger | None = None) -> None:
        """Attach plant references; synthetic providers need none."""
        return None


class DiurnalSignal(SignalProvider):
    """Shared machinery for the synthetic day-shaped signals.

    ``value(t) = clamp(diurnal(hour_of_day) + noise_amp * u(hour), lo, hi)``
    where ``u`` is the per-hour uniform draw.  Subclasses implement the
    noise-free ``diurnal`` component, which is 24-hour periodic — the
    property the hypothesis suite checks as *period-consistency*.
    """

    def __init__(self, name: str, seed: int, noise_amp: float,
                 bounds: tuple[float, float],
                 zones: Sequence[tuple[str, float]]) -> None:
        super().__init__(name, zones)
        self.seed = int(seed)
        self.noise_amp = float(noise_amp)
        self.bounds = (float(bounds[0]), float(bounds[1]))

    def diurnal(self, hour_of_day: float) -> float:
        raise NotImplementedError

    def value(self, t: float) -> float:
        if t < 0:
            raise ValueError("t must be non-negative")
        hour_of_day = (t % DAY_S) / HOUR_S
        raw = self.diurnal(hour_of_day)
        if self.noise_amp > 0.0:
            raw += self.noise_amp * _hour_noise(self.seed, self.name,
                                                int(t // HOUR_S))
        lo, hi = self.bounds
        return min(hi, max(lo, raw))


class CarbonIntensitySignal(DiurnalSignal):
    """Synthetic grid carbon intensity (gCO2eq/kWh).

    The diurnal component dips at solar noon (high renewable share) and
    peaks overnight, mimicking the shape of ElectricityMaps zone data:
    ``base - amplitude * cos(2π (h - trough_hour) / 24)``.  Zones follow
    the familiar green/yellow/red/black bands.
    """

    unit = "gCO2/kWh"

    def __init__(self, seed: int = 0, base: float = 420.0,
                 amplitude: float = 180.0, noise_amp: float = 35.0,
                 trough_hour: float = 13.0,
                 bounds: tuple[float, float] = (60.0, 720.0)) -> None:
        super().__init__(
            "carbon", seed, noise_amp, bounds,
            zones=(("green", 250.0), ("yellow", 420.0),
                   ("red", 560.0), ("black", math.inf)),
        )
        self.base = float(base)
        self.amplitude = float(amplitude)
        self.trough_hour = float(trough_hour)

    def diurnal(self, hour_of_day: float) -> float:
        phase = TWO_PI * (hour_of_day - self.trough_hour) / 24.0
        return self.base - self.amplitude * math.cos(phase)


class EnergyPriceSignal(DiurnalSignal):
    """Synthetic day-ahead energy price (cents/kWh).

    A flat base with gaussian morning and evening demand peaks — the
    double-hump shape of real day-ahead markets — plus hourly noise.
    """

    unit = "ct/kWh"

    def __init__(self, seed: int = 0, base: float = 22.0,
                 morning_peak: float = 14.0, evening_peak: float = 20.0,
                 noise_amp: float = 3.0,
                 bounds: tuple[float, float] = (4.0, 75.0)) -> None:
        super().__init__(
            "price", seed, noise_amp, bounds,
            zones=(("cheap", 18.0), ("normal", 30.0),
                   ("expensive", 45.0), ("extreme", math.inf)),
        )
        self.base = float(base)
        self.morning_peak = float(morning_peak)
        self.evening_peak = float(evening_peak)

    def diurnal(self, hour_of_day: float) -> float:
        morning = self.morning_peak * math.exp(
            -((hour_of_day - 8.0) ** 2) / (2.0 * 2.0**2)
        )
        evening = self.evening_peak * math.exp(
            -((hour_of_day - 19.5) ** 2) / (2.0 * 2.5**2)
        )
        return self.base + morning + evening


class BatterySocSignal(SignalProvider):
    """Lowest online-cabinet SoC estimate, read through the sensing chain."""

    unit = "soc"
    bounds = (0.0, 1.0)

    def __init__(self) -> None:
        super().__init__(
            "soc",
            zones=(("critical", 0.25), ("low", 0.45),
                   ("nominal", 0.75), ("full", math.inf)),
        )
        self._manager: PowerManager | None = None

    def bind(self, manager: PowerManager,
             charger: SolarCharger | None = None) -> None:
        self._manager = weakref.proxy(manager)

    def value(self, t: float) -> float:
        if self._manager is None:
            raise RuntimeError("BatterySocSignal used before bind()")
        names = [u.name for u in self._manager.online_units()]
        if not names:
            return 0.0
        return self._manager.telemetry.min_soc(names)


class SolarForecastSignal(SignalProvider):
    """Short-horizon solar forecast: the controller's slow solar EMA (W)."""

    unit = "W"
    bounds = (0.0, math.inf)

    def __init__(self) -> None:
        super().__init__(
            "solar",
            zones=(("dark", 50.0), ("dim", 300.0),
                   ("bright", 700.0), ("peak", math.inf)),
        )
        self._manager: PowerManager | None = None

    def bind(self, manager: PowerManager,
             charger: SolarCharger | None = None) -> None:
        self._manager = weakref.proxy(manager)

    def value(self, t: float) -> float:
        if self._manager is None:
            raise RuntimeError("SolarForecastSignal used before bind()")
        return self._manager.solar_ema_slow_w
