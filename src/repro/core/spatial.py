"""Spatial power management (SPM) — Figures 9 and 10 of the paper.

Two pure decision procedures operating on *sensed* battery state:

* **Offline screening** (Figure 9): at each coarse control interval the
  discharge threshold is delta_D = D_U + D_L * T / T_L (Eq. 1).  Offline
  cabinets whose aggregated discharge AhT[i] stays below the threshold
  move to the charging group; over-used cabinets rest.  An *elastic* mode
  optionally relaxes the threshold when demand is high, trading a little
  battery life for on-demand processing acceleration (paper §3.3, last
  paragraph).

* **Charge batch sizing** (Figure 10): the optimal number of cabinets to
  batch-charge is N = P_G / P_PC — the green power budget over the peak
  per-cabinet charging power — so a scarce budget is concentrated on few
  cabinets (near-optimal charge rate) while an abundant budget charges
  many in parallel.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from repro.core.sensing import BatterySense
from repro.policy.governors import BudgetRampGovernor


@dataclass
class SpatialParams:
    """SPM tuning knobs."""

    #: Lifetime discharge budget D_L of one cabinet (Ah).
    lifetime_ah: float = 17500.0
    #: Desired service life T_L in days.
    design_life_days: float = 4.0 * 365.0
    #: Charge-to level before a cabinet is brought online (the paper's 90 %).
    charge_to_soc: float = 0.90
    #: Peak charging power P_PC of one cabinet (W at the PV bus).
    peak_charge_power_w: float = 270.0
    #: Solar surplus below which charging is not attempted at all.
    min_charge_surplus_w: float = 40.0
    #: Allow exceeding the discharge threshold when demand requires it.
    elastic: bool = True
    #: Each elastic relaxation step adds this fraction of the day's budget.
    elastic_step: float = 0.25


@dataclass
class SpatialDecision:
    """Outcome of one SPM evaluation."""

    to_charging: list[str] = field(default_factory=list)
    to_standby: list[str] = field(default_factory=list)
    hold_offline: list[str] = field(default_factory=list)
    threshold_ah: float = 0.0
    batch_size: int = 0


class SpatialPolicy:
    """Stateful SPM: Eq. 1's threshold plus the elastic relaxation.

    Eq. 1's prorated term is a
    :class:`~repro.policy.governors.BudgetRampGovernor` over elapsed
    time; only the elastic bonus is SPM state.  The carry-over D_U is
    implicit: each cabinet's cumulative discharge is compared with a
    budget prorated over all elapsed time, so budget a cabinet left
    unused on earlier days is still there.
    """

    def __init__(self, params: SpatialParams | None = None) -> None:
        self.params = params or SpatialParams()
        self._elastic_bonus = 0.0
        self.budget_governor = BudgetRampGovernor(
            self.params.lifetime_ah, self.params.design_life_days
        )

    # ------------------------------------------------------------------
    # Eq. 1
    # ------------------------------------------------------------------
    def discharge_threshold(self, elapsed_seconds: float) -> float:
        """delta_D = D_U + D_L * T / T_L, plus any elastic relaxation.

        D_U needs no term of its own: the prorated budget already covers
        all elapsed time (see the class docstring).
        """
        if elapsed_seconds < 0:
            raise ValueError("elapsed_seconds must be non-negative")
        prorated = self.budget_governor.limit(elapsed_seconds)
        return prorated + self._elastic_bonus

    def daily_budget_ah(self) -> float:
        """One day's worth of lifetime discharge budget."""
        return self.budget_governor.daily()

    # ------------------------------------------------------------------
    # Figure 10
    # ------------------------------------------------------------------
    def batch_size(self, surplus_w: float) -> int:
        """N = P_G / P_PC, at least one cabinet when any surplus exists."""
        if surplus_w < self.params.min_charge_surplus_w:
            return 0
        return max(1, math.floor(surplus_w / self.params.peak_charge_power_w))

    # ------------------------------------------------------------------
    # Figure 9 + 10 combined evaluation
    # ------------------------------------------------------------------
    def evaluate(
        self,
        offline: list[BatterySense],
        charging: list[BatterySense],
        surplus_w: float,
        elapsed_seconds: float,
        demand_pressure: bool = False,
    ) -> SpatialDecision:
        """One coarse-interval SPM pass.

        Parameters
        ----------
        offline / charging:
            Sensed state of cabinets currently in those groups.
        surplus_w:
            Estimated green power budget available for charging, P_G.
        elapsed_seconds:
            Time since the policy epoch (for Eq. 1).
        demand_pressure:
            True when the load side is starved (backlog with no usable
            buffer) — enables elastic threshold relaxation.
        """
        decision = SpatialDecision()
        decision.threshold_ah = self.discharge_threshold(elapsed_seconds)

        # Screening: under-used cabinets are eligible for charging.
        eligible = [s for s in offline if s.discharge_ah < decision.threshold_ah]
        overused = [s for s in offline if s not in eligible]

        if not eligible and overused and demand_pressure and self.params.elastic:
            # On-demand acceleration: relax the threshold one step and
            # retry, rather than starving the load (paper §3.3).
            self._elastic_bonus += self.params.elastic_step * self.daily_budget_ah()
            decision.threshold_ah = self.discharge_threshold(elapsed_seconds)
            eligible = [s for s in offline if s.discharge_ah < decision.threshold_ah]
            overused = [s for s in offline if s not in eligible]

        decision.hold_offline = [s.name for s in overused]

        # Batch sizing: keep already-charging cabinets counted against N.
        n = self.batch_size(surplus_w)
        decision.batch_size = n
        slots = max(0, n - len(charging))
        # Priority: lowest aggregated usage first (balance wear), then
        # lowest SoC (fast-charging prioritises the emptiest — Figure 14a).
        eligible.sort(key=lambda s: (s.discharge_ah, s.soc_estimate))
        picked = eligible[:slots]
        decision.to_charging = [s.name for s in picked]
        decision.hold_offline.extend(s.name for s in eligible[slots:])

        # Charged cabinets go to standby (transitions 2/5).
        decision.to_standby = [
            s.name for s in charging if s.soc_estimate >= self.params.charge_to_soc
        ]
        return decision
