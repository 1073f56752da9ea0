"""Kinetic Battery Model (KiBaM) state integration.

KiBaM (Manwell & McGowan) splits the stored charge into an *available* well
that feeds the terminals directly and a *bound* well that replenishes the
available well through a diffusion term proportional to the head difference
between the wells:

    dy1/dt = -i(t) + k' * (h2 - h1)
    dy2/dt =        - k' * (h2 - h1)

with ``h1 = y1/c``, ``h2 = y2/(1-c)`` and ``k' = k * c * (1-c)``.

Two battery behaviours the paper leans on fall out of this model for free:

* **Rate-capacity effect** — a high discharge current drains the available
  well faster than the bound well can refill it, so the apparent capacity
  collapses and terminal voltage sags (Figure 4b, "super-fast capacity drop
  at high current").
* **Recovery effect** — when the load drops, bound charge diffuses back and
  the apparent capacity recovers (Figure 4b, "capacity recovery").

Charge and time units are ampere-hours and hours internally; the public
interface takes seconds to match the simulation clock.
"""

from __future__ import annotations

import math

from repro.battery.params import KiBaMParams

_SECONDS_PER_HOUR = 3600.0


class KiBaM:
    """Two-well kinetic charge state for one battery cabinet.

    Parameters
    ----------
    capacity_ah:
        Total capacity of the cabinet.
    params:
        KiBaM constants (well split ``c`` and rate ``k``).
    soc:
        Initial state of charge in [0, 1]; both wells start at equal head.
    """

    def __init__(
        self,
        capacity_ah: float,
        params: KiBaMParams,
        soc: float = 1.0,
    ) -> None:
        if capacity_ah <= 0:
            raise ValueError("capacity_ah must be positive")
        if not 0.0 <= soc <= 1.0:
            raise ValueError(f"initial soc must be in [0,1], got {soc}")
        params.validate()
        self.capacity_ah = float(capacity_ah)
        self.params = params
        self.y1 = soc * params.c * capacity_ah
        self.y2 = soc * (1.0 - params.c) * capacity_ah

    # ------------------------------------------------------------------
    # Derived state
    # ------------------------------------------------------------------
    @property
    def charge_ah(self) -> float:
        """Total stored charge (both wells)."""
        return self.y1 + self.y2

    @property
    def soc(self) -> float:
        """Total state of charge in [0, 1]."""
        return self.charge_ah / self.capacity_ah

    @property
    def available_head(self) -> float:
        """Normalised head of the available well, h1 in [0, 1].

        This is what the terminal "sees": EMF tracks the available head, so
        high-rate discharge depresses it below the total SoC.
        """
        return self.y1 / (self.params.c * self.capacity_ah)

    @property
    def bound_head(self) -> float:
        """Normalised head of the bound well, h2 in [0, 1]."""
        return self.y2 / ((1.0 - self.params.c) * self.capacity_ah)

    # ------------------------------------------------------------------
    # Integration
    # ------------------------------------------------------------------
    def apply_current(self, amps: float, dt_seconds: float) -> float:
        """Integrate one forward-Euler step at signed current ``amps``.

        Positive ``amps`` discharges, negative charges (charge enters the
        available well first, then diffuses into the bound well, so a burst
        of charging is also rate-limited — mirroring real acceptance).

        Returns the ampere-hours actually moved (positive for discharge),
        which can be less than requested if a well saturates or empties.
        """
        if dt_seconds <= 0:
            raise ValueError("dt_seconds must be positive")
        dt_h = dt_seconds / _SECONDS_PER_HOUR
        p = self.params
        capacity = self.capacity_ah
        c = p.c
        y1 = self.y1
        y2 = self.y2
        # Classic KiBaM flow: k' * (h2 - h1) with heads in charge units, i.e.
        # k * c * (1-c) * capacity * (normalised head difference), in Ah/h.
        k_eff = p.k_per_hour * c * (1.0 - c) * capacity

        diffusion = k_eff * (y2 / ((1.0 - c) * capacity) - y1 / (c * capacity)) * dt_h
        requested = amps * dt_h  # Ah removed from the available well.

        y1_new = y1 - requested + diffusion
        y2_new = y2 - diffusion
        return self._clamp_wells(y1_new, y2_new, requested)

    def apply_current_exact(self, amps: float, dt_seconds: float) -> float:
        """Integrate one step with the closed-form (exponential) solution.

        The two-well ODE is linear with constant coefficients, so for a
        constant current ``i`` it has an exact solution: total charge drains
        at exactly ``i`` while the head difference ``D = h2 - h1`` relaxes
        exponentially toward its steady state ``i / (k c C)`` at rate ``k``:

            y(t)  = y0 - i t
            D(t)  = D_inf + (D0 - D_inf) e^{-k t},  D_inf = i / (k c C)
            y1(t) = c y(t) - c (1-c) C D(t)

        Unlike forward Euler this is accurate for *any* step size.  The
        simulation steps with :meth:`apply_current`; this closed form is
        the reference the tests hold the Euler step against.  Well
        clamping at empty/full uses the same rules as the Euler step, so
        the ampere-hours reported as moved stay exactly consistent with
        the change in total stored charge.
        """
        if dt_seconds <= 0:
            raise ValueError("dt_seconds must be positive")
        dt_h = dt_seconds / _SECONDS_PER_HOUR
        p = self.params
        capacity = self.capacity_ah
        c = p.c
        k = p.k_per_hour
        y1 = self.y1
        y2 = self.y2

        total0 = y1 + y2
        d0 = y2 / ((1.0 - c) * capacity) - y1 / (c * capacity)
        d_inf = amps / (k * c * capacity)
        d_t = d_inf + (d0 - d_inf) * math.exp(-k * dt_h)
        requested = amps * dt_h
        total_t = total0 - requested

        y1_new = c * total_t - c * (1.0 - c) * capacity * d_t
        y2_new = total_t - y1_new
        return self._clamp_wells(y1_new, y2_new, requested)

    def _clamp_wells(self, y1_new: float, y2_new: float, requested: float) -> float:
        """Clamp both wells to their physical range; report what moved."""
        p = self.params
        y1_cap = p.c * self.capacity_ah
        moved = requested
        if y1_new < 0.0:
            moved = requested + y1_new  # shortfall on discharge
            y1_new = 0.0
        elif y1_new > y1_cap:
            moved = requested + (y1_new - y1_cap)  # overflow on charge
            y1_new = y1_cap

        y2_cap = (1.0 - p.c) * self.capacity_ah
        self.y1 = y1_new
        self.y2 = min(max(y2_new, 0.0), y2_cap)
        return moved

    def rest(self, dt_seconds: float) -> None:
        """Let the wells equalise with no external current (recovery)."""
        self.apply_current(0.0, dt_seconds)

    def set_soc(self, soc: float) -> None:
        """Reset both wells to an equalised state of charge."""
        if not 0.0 <= soc <= 1.0:
            raise ValueError(f"soc must be in [0,1], got {soc}")
        self.y1 = soc * self.params.c * self.capacity_ah
        self.y2 = soc * (1.0 - self.params.c) * self.capacity_ah

    def max_discharge_current(self, dt_seconds: float) -> float:
        """Largest sustainable discharge current for one step of ``dt``."""
        dt_h = dt_seconds / _SECONDS_PER_HOUR
        p = self.params
        k_eff = p.k_per_hour * p.c * (1.0 - p.c) * self.capacity_ah
        diffusion = k_eff * (self.bound_head - self.available_head) * dt_h
        return max(0.0, (self.y1 + diffusion) / dt_h)
