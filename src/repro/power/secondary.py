"""Secondary power sources.

Figure 6 of the paper notes that, although InSURE targets standalone
operation, the architecture "also supports a secondary power (if
available)".  This module provides a diesel backup generator and a hybrid
source that starts it only when the renewable side is exhausted — so the
benchmarks can quantify what a backup buys (uptime) and costs (fuel,
carbon) on bad-weather days.
"""

from __future__ import annotations

from repro.sim.clock import Clock
from repro.sim.component import Component


class DieselGenerator(Component):
    """Backup genset with startup delay, minimum runtime and fuel ledger.

    Parameters
    ----------
    rated_w:
        Continuous output rating.
    startup_s:
        Crank-to-stable time; output is zero while starting.
    min_runtime_s:
        Once started, the genset must run at least this long (thermal
        cycling protection) before a stop request takes effect.
    litres_per_kwh:
        Specific fuel consumption (small gensets: ~0.4-0.5 l/kWh).
    """

    def __init__(
        self,
        name: str = "genset",
        rated_w: float = 2000.0,
        startup_s: float = 20.0,
        min_runtime_s: float = 900.0,
        litres_per_kwh: float = 0.45,
    ) -> None:
        super().__init__(name)
        if rated_w <= 0:
            raise ValueError("rated_w must be positive")
        if startup_s < 0 or min_runtime_s < 0:
            raise ValueError("times must be non-negative")
        if litres_per_kwh <= 0:
            raise ValueError("litres_per_kwh must be positive")
        self.rated_w = rated_w
        self.startup_s = startup_s
        self.min_runtime_s = min_runtime_s
        self.litres_per_kwh = litres_per_kwh
        self.running = False
        self.requested = False
        self._since_start = 0.0
        self._starting_left = 0.0
        self.output_w = 0.0
        self.fuel_litres = 0.0
        self.starts = 0

    def request(self, on: bool) -> None:
        """Ask the genset to run (or stop); honoured per its constraints."""
        if on and not self.requested:
            self.requested = True
            if not self.running:
                self._starting_left = self.startup_s
                self.starts += 1
        elif not on:
            self.requested = False

    def step(self, clock: Clock) -> None:
        dt = clock.dt
        if self.requested and not self.running:
            self._starting_left -= dt
            if self._starting_left <= 0.0:
                self.running = True
                self._since_start = 0.0
        elif self.running:
            self._since_start += dt
            if not self.requested and self._since_start >= self.min_runtime_s:
                self.running = False

        self.output_w = self.rated_w if self.running else 0.0
        if self.running:
            self.fuel_litres += (
                self.rated_w / 1000.0 * dt / 3600.0
            ) * self.litres_per_kwh

    @property
    def fuel_cost_usd(self) -> float:
        """Fuel spend at the paper's $4/gallon diesel price."""
        return self.fuel_litres / 3.785 * 4.0


class HybridSource(Component):
    """Solar-first source with a diesel backup behind a policy.

    The generator is requested when the *observed* renewable budget falls
    below ``start_below_w`` and released when it recovers past
    ``stop_above_w`` (hysteresis).  Exposes the combined
    ``available_power_w`` so it drops into :func:`build_system` wherever a
    trace player would.
    """

    def __init__(
        self,
        name: str,
        primary,
        generator: DieselGenerator,
        start_below_w: float = 150.0,
        stop_above_w: float = 400.0,
    ) -> None:
        super().__init__(name)
        if stop_above_w <= start_below_w:
            raise ValueError("stop_above_w must exceed start_below_w")
        self.primary = primary
        self.generator = generator
        self.start_below_w = start_below_w
        self.stop_above_w = stop_above_w
        self.available_power_w = 0.0

    def step(self, clock: Clock) -> None:
        self.primary.step(clock)
        solar = self.primary.available_power_w
        if solar < self.start_below_w:
            self.generator.request(True)
        elif solar > self.stop_above_w:
            self.generator.request(False)
        self.generator.step(clock)
        self.available_power_w = solar + self.generator.output_w
