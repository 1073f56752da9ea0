"""Solar field simulation components.

Two interchangeable power sources:

* :class:`SolarField` — live synthesis: clear sky → clouds → panel → P&O
  MPPT, stepped by the engine.  Used when MPPT dynamics matter (Figure 16
  Region B).
* :class:`TracePlayer` — replays a :class:`~repro.solar.traces.DayTrace`,
  the method the paper uses to compare optimisation schemes on identical
  solar budgets ("we reproduce our experiments via collected real solar
  power traces").

Both expose ``available_power_w``, the PV-bus budget the controllers see.
"""

from __future__ import annotations

import numpy as np

from repro.sim.clock import Clock
from repro.sim.component import Component
from repro.solar.clearsky import clearsky_ghi
from repro.solar.clouds import CloudField
from repro.solar.mppt import PerturbObserveMPPT
from repro.solar.panel import PVPanel
from repro.solar.traces import DayTrace


class SolarField(Component):
    """Live solar synthesis chain ending at the MPPT output."""

    def __init__(
        self,
        name: str,
        clouds: CloudField,
        panel: PVPanel | None = None,
        mppt: PerturbObserveMPPT | None = None,
        day_of_year: int = 172,
    ) -> None:
        super().__init__(name)
        self.clouds = clouds
        self.panel = panel or PVPanel()
        self.mppt = mppt or PerturbObserveMPPT(self.panel)
        self.day_of_year = day_of_year
        self.irradiance_wm2 = 0.0
        self.available_power_w = 0.0
        #: Cumulative Wh left on the panel by the P&O tracker hunting
        #: around the knee (Figure 16 Region B) — read by the obs ledger.
        self.e_mppt_loss_wh = 0.0

    def step(self, clock: Clock) -> None:
        clearness = self.clouds.step(clock.dt)
        self.irradiance_wm2 = clearsky_ghi(clock.hour_of_day, self.day_of_year) * clearness
        self.available_power_w = self.mppt.step(self.irradiance_wm2, clock.dt)
        ideal_w = self.panel.max_power(self.irradiance_wm2)
        if ideal_w > self.available_power_w:
            self.e_mppt_loss_wh += (ideal_w - self.available_power_w) * clock.dt / 3600.0


class TracePlayer(Component):
    """Replays a fixed day trace as the PV budget."""

    def __init__(self, name: str, trace: DayTrace) -> None:
        super().__init__(name)
        self.trace = trace
        self.available_power_w = 0.0
        # Plain-list copy for the per-tick lookup: scalar indexing into a
        # numpy array boxes a np.float64 on every access, which is pure
        # overhead at 17k+ ticks per run.  Values are bit-identical.
        self._power: list[float] = trace.power_w.tolist()
        self._dt = float(trace.dt_seconds)
        self._count = len(self._power)

    def step(self, clock: Clock) -> None:
        index = int(clock.t // self._dt)
        self.available_power_w = self._power[index] if index < self._count else 0.0

    @property
    def total_energy_kwh(self) -> float:
        return self.trace.energy_kwh


class ConstantSource(Component):
    """A fixed power budget; handy for unit tests and controlled studies."""

    def __init__(self, name: str, power_w: float) -> None:
        super().__init__(name)
        if power_w < 0:
            raise ValueError("power_w must be non-negative")
        self.available_power_w = float(power_w)

    def step(self, clock: Clock) -> None:  # noqa: ARG002 - uniform interface
        """Constant output; nothing to advance."""


def trace_from_array(power_w: np.ndarray, dt_seconds: float, start_hour: float = 7.0) -> DayTrace:
    """Wrap a raw power array (e.g. from a CSV of measurements) as a trace;
    :class:`DayTrace` checks the samples."""
    return DayTrace(start_hour=start_hour, dt_seconds=dt_seconds, power_w=power_w)
