"""Perturb-and-Observe maximum power point tracking.

The prototype used a P&O tracker ([63] in the paper): every control period
it nudges the operating voltage, observes whether output power rose, and
keeps moving in the improving direction.  Under steady sun it oscillates
in a small band around the knee; after an irradiance jump it walks to the
new knee over several periods.  These tentative probes are the "green
peaks" of Region B in Figure 16.
"""

from __future__ import annotations

from repro.solar.panel import PVPanel


class PerturbObserveMPPT:
    """P&O tracker operating a :class:`PVPanel`.

    Parameters
    ----------
    panel:
        Panel to operate.
    step_fraction:
        Perturbation size as a fraction of STC open-circuit voltage.
    period_s:
        Control period of the tracker in seconds.
    """

    def __init__(
        self,
        panel: PVPanel,
        step_fraction: float = 0.015,
        period_s: float = 5.0,
    ) -> None:
        if step_fraction <= 0:
            raise ValueError("step_fraction must be positive")
        if period_s <= 0:
            raise ValueError("period_s must be positive")
        self.panel = panel
        self.step_v = step_fraction * panel.v_oc_stc
        self.period_s = period_s
        self.v_op = 0.8 * panel.v_oc_stc
        self._direction = 1.0
        self._last_power = 0.0
        self._elapsed = 0.0

    def step(self, irradiance_wm2: float, dt_seconds: float) -> float:
        """Advance the tracker; returns extracted power (W)."""
        if dt_seconds <= 0:
            raise ValueError("dt_seconds must be positive")
        self._elapsed += dt_seconds
        if self._elapsed >= self.period_s:
            self._elapsed = 0.0
            power = self.panel.power_at(self.v_op, irradiance_wm2)
            if power < self._last_power:
                self._direction = -self._direction
            self._last_power = power
            self.v_op += self._direction * self.step_v
            v_oc = self.panel.v_oc(irradiance_wm2)
            if v_oc > 0:
                self.v_op = min(max(self.v_op, 0.3 * v_oc), 0.98 * v_oc)
        return self.panel.power_at(self.v_op, irradiance_wm2)
