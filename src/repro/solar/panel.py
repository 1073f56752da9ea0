"""PV panel electrical model.

A normalised single-diode-flavoured P-V curve: given the incident
irradiance the panel has a short-circuit current proportional to
irradiance, an open-circuit voltage weakly (logarithmically) dependent on
it, and a concave power curve in between.  The MPPT searches this curve; a
perfect tracker would always sit at its knee.
"""

from __future__ import annotations

import math


class PVPanel:
    """A PV array scaled to a nameplate rating.

    Parameters
    ----------
    rated_w:
        Array output at standard test conditions (1000 W/m^2).  The
        prototype's installed capacity was 1.6 kW.
    v_oc:
        Open-circuit voltage of the string at STC.
    fill_shape:
        Curvature exponent of the normalised P-V curve; higher values give
        a sharper knee (crystalline silicon is fairly sharp).
    derate:
        Soiling / wiring / temperature derating applied to output.
    """

    def __init__(
        self,
        rated_w: float = 1600.0,
        v_oc: float = 44.0,
        fill_shape: float = 10.0,
        derate: float = 0.93,
    ) -> None:
        if rated_w <= 0:
            raise ValueError("rated_w must be positive")
        if v_oc <= 0:
            raise ValueError("v_oc must be positive")
        if fill_shape <= 1:
            raise ValueError("fill_shape must exceed 1")
        if not 0.0 < derate <= 1.0:
            raise ValueError("derate must be in (0, 1]")
        self.rated_w = rated_w
        self.v_oc_stc = v_oc
        self.fill_shape = fill_shape
        self.derate = derate

    def v_oc(self, irradiance_wm2: float) -> float:
        """Open-circuit voltage at the given irradiance."""
        if irradiance_wm2 <= 0:
            return 0.0
        # Weak logarithmic dependence, clamped for very low light.
        factor = 1.0 + 0.06 * math.log(max(irradiance_wm2, 20.0) / 1000.0)
        return self.v_oc_stc * max(factor, 0.6)

    def max_power(self, irradiance_wm2: float) -> float:
        """Maximum extractable power (W) at the given irradiance."""
        if irradiance_wm2 <= 0:
            return 0.0
        return self.rated_w * self.derate * min(irradiance_wm2 / 1000.0, 1.25)

    def power_at(self, voltage: float, irradiance_wm2: float) -> float:
        """Power delivered when operated at ``voltage`` (the P-V curve).

        The curve rises almost linearly from zero (current-source region),
        peaks at ~0.8 V_oc, and collapses towards V_oc.
        """
        v_oc = self.v_oc(irradiance_wm2)
        if v_oc <= 0 or voltage <= 0 or voltage >= v_oc:
            return 0.0
        x = voltage / v_oc
        n = self.fill_shape
        # P(x) ∝ x * (1 - x^n): linear current-source region with a sharp
        # roll-off near V_oc.  Normalised so the peak equals max_power.
        shape = x * (1.0 - x**n)
        x_mpp = (1.0 / (n + 1.0)) ** (1.0 / n)
        peak = x_mpp * (1.0 - x_mpp**n)
        return self.max_power(irradiance_wm2) * shape / peak
