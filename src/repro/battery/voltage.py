"""Terminal voltage model for a lead-acid cabinet.

The open-circuit EMF tracks the *available-well head* of the KiBaM state
rather than total SoC: under heavy discharge the available well runs ahead
of the bound well, so the terminal voltage sags beyond the ohmic drop and
then recovers at rest — reproducing the switch-out / capacity-recovery
traces in Figures 4(b) and 5 of the paper.
"""

from __future__ import annotations

from repro.battery.params import VoltageParams

#: Shape of the EMF curve over the available-well head (mildly convex:
#: lead-acid voltage falls slowly over the mid range, quickly near empty).
EMF_EXPONENT = 0.75


class VoltageModel:
    """Maps electrochemical state and current to terminal voltage."""

    def __init__(self, params: VoltageParams) -> None:
        params.validate()
        self.params = params

    def emf(self, available_head: float) -> float:
        """Open-circuit EMF as a function of the available-well head."""
        head = available_head
        if head < 0.0:
            head = 0.0
        elif head > 1.0:
            head = 1.0
        p = self.params
        shaped = head ** EMF_EXPONENT
        empty = p.emf_empty
        return empty + (p.emf_full - empty) * shaped

    def terminal(self, available_head: float, amps: float) -> float:
        """Terminal voltage at signed current (positive = discharge).

        Charging raises the terminal above EMF; the value is clamped to the
        absorption setpoint ``v_charge_max`` that a CC/CV charger enforces.
        """
        v = self.emf(available_head) - amps * self.params.r_internal_ohm
        if amps < 0.0:
            v = min(v, self.params.v_charge_max)
        return v

    def max_discharge_for_cutoff(self, available_head: float) -> float:
        """Largest discharge current keeping the terminal at/above cutoff."""
        headroom = self.emf(available_head) - self.params.v_cutoff
        return max(0.0, headroom / self.params.r_internal_ohm)
