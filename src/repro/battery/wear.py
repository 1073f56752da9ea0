"""Ampere-hour throughput wear model.

The paper's lifetime argument (via its reference [56]) is that the total
electric charge a lead-acid battery can pass before wearing out is roughly
constant across charge/discharge regimes, so balancing Ah throughput across
units extends the *bank's* life.  We extend the plain Ah counter with a
stress weighting: discharging at a high C-rate or at deep depth of
discharge consumes disproportionate life, which is why the temporal power
manager's discharge capping buys the 21-24 % service-life gains of
Figure 19.
"""

from __future__ import annotations

from repro.battery.params import WearParams

_SECONDS_PER_HOUR = 3600.0
#: Shelf life as a multiple of design life (an unused battery still ages).
SHELF_MARGIN = 1.5


class WearModel:
    """Tracks raw and stress-weighted discharge throughput for one unit."""

    def __init__(self, capacity_ah: float, params: WearParams) -> None:
        if capacity_ah <= 0:
            raise ValueError("capacity_ah must be positive")
        params.validate()
        self.capacity_ah = float(capacity_ah)
        self.params = params
        #: Raw discharge throughput (Ah) — the SPM's AhT[i] usage statistic.
        self.discharge_ah = 0.0
        #: Stress-weighted throughput (Ah-equivalent) for life projection.
        self.weighted_ah = 0.0

    def stress_factor(self, amps: float, soc: float) -> float:
        """Wear multiplier for discharging at ``amps`` from ``soc``."""
        if amps <= 0.0:
            return 1.0
        p = self.params
        c_rate = amps / self.capacity_ah
        factor = 1.0
        if c_rate > p.stress_c_rate:
            factor += p.stress_rate_slope * (c_rate - p.stress_c_rate)
        if soc < p.deep_soc:
            factor += p.deep_slope * (p.deep_soc - soc)
        return factor

    def record(self, amps: float, soc: float, dt_seconds: float) -> None:
        """Account one integration step at signed current ``amps``.

        Only discharge wears the battery here; a charging step (negative
        ``amps``) records nothing.
        """
        if dt_seconds <= 0:
            raise ValueError("dt_seconds must be positive")
        ah = abs(amps) * dt_seconds / _SECONDS_PER_HOUR
        if amps > 0.0:
            self.discharge_ah += ah
            self.weighted_ah += ah * self.stress_factor(amps, soc)

    # ------------------------------------------------------------------
    # Life projection
    # ------------------------------------------------------------------
    @property
    def life_fraction_used(self) -> float:
        """Fraction of lifetime throughput consumed (stress-weighted)."""
        return min(1.0, self.weighted_ah / self.params.lifetime_ah)

    def projected_life_days(self, elapsed_seconds: float) -> float:
        """Projected service life (days) if the observed usage continued.

        Capped at the shelf life, ``design_life_days * SHELF_MARGIN``.
        """
        if elapsed_seconds <= 0:
            raise ValueError("elapsed_seconds must be positive")
        shelf_cap = self.params.design_life_days * SHELF_MARGIN
        if self.weighted_ah <= 0.0:
            return shelf_cap
        elapsed_days = elapsed_seconds / 86400.0
        rate_per_day = self.weighted_ah / elapsed_days
        return min(shelf_cap, self.params.lifetime_ah / rate_per_day)
