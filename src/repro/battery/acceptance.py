"""Charge acceptance and charging-loss model.

Lead-acid charge acceptance is high when the battery is empty and collapses
as it approaches full charge (the paper cites [54]); on top of that, a
roughly constant side-reaction current is consumed whenever a cabinet is
being charged, and gassing diverts a growing fraction of the current near
the top of charge.  Together these make *concentrating* a limited solar
budget on fewer cabinets strictly faster than batch charging — the
mechanism behind Figure 4(a) and the adaptive batch sizing of Figure 10.
"""

from __future__ import annotations

import math

from repro.battery.params import AcceptanceParams


class ChargeAcceptance:
    """SoC-dependent charge acceptance for one cabinet.

    Parameters
    ----------
    capacity_ah:
        Cabinet capacity, used to convert C-rates into amperes.
    params:
        Acceptance constants.
    """

    def __init__(self, capacity_ah: float, params: AcceptanceParams) -> None:
        if capacity_ah <= 0:
            raise ValueError("capacity_ah must be positive")
        params.validate()
        self.capacity_ah = float(capacity_ah)
        self.params = params

    def max_current(self, soc: float) -> float:
        """Maximum current (A) the battery accepts at state of charge ``soc``.

        Constant-current plateau below ``taper_start_soc``, exponential
        taper above it, floored at the float current.
        """
        soc = min(max(soc, 0.0), 1.0)
        p = self.params
        bulk = p.bulk_c_rate * self.capacity_ah
        floor = p.float_c_rate * self.capacity_ah
        if soc <= p.taper_start_soc:
            return bulk
        span = 1.0 - p.taper_start_soc
        frac = (soc - p.taper_start_soc) / span
        tapered = bulk * math.exp(-p.taper_exponent * frac)
        return max(tapered, floor)

    def effective_current(self, applied_amps: float, soc: float) -> float:
        """Current that actually lands in the wells for ``applied_amps``.

        Losses are (1) a constant parasitic side-reaction draw and (2) a
        gassing fraction that grows linearly above ``gassing_soc``.  The
        result is clamped to the acceptance ceiling and never negative.
        """
        if applied_amps <= 0.0:
            return 0.0
        p = self.params
        accepted = min(applied_amps, self.max_current(soc))
        accepted = max(0.0, accepted - p.parasitic_amps)
        if soc > p.gassing_soc:
            frac = (soc - p.gassing_soc) / (1.0 - p.gassing_soc)
            accepted *= 1.0 - p.gassing_fraction * min(frac, 1.0)
        return accepted
