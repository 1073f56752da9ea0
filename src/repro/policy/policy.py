"""Policy = signal × governor × control method.

A :class:`Policy` owns one signal provider, one governor and one control
method, and steps on its own interval exactly like the TPM/SPM periods:
an elapsed accumulator initialised to ``inf`` so the first evaluation
happens on the first tick after attach.  Each evaluation reads the
signal (numeric value or zone label, per the governor's declared input
kind), converts it to a capacity limit, records a ``policy.limit``
decision event when the limit *changed*, and hands the limit to the
control method.

Policies attach to a power manager via
:meth:`repro.core.controller_base.PowerManager.attach_policy`; an empty
policy list costs the controller nothing, which is how the refactor
leaves the 12 golden cells bit-identical.  The manager holds its
policies, so a policy and its bound halves hold the manager through a
``weakref.proxy``: a system with overlays is no reference cycle, and
reference counting frees it when it is dropped.
"""

from __future__ import annotations

import weakref
from typing import TYPE_CHECKING

from repro.policy.controls import ControlMethod
from repro.policy.governors import Governor
from repro.policy.signals import SignalProvider

if TYPE_CHECKING:  # annotations only; keeps policy importable standalone
    from repro.battery.charger import SolarCharger
    from repro.core.controller_base import PowerManager


class Policy:
    """One (signal, governor, control) pairing stepped on an interval."""

    def __init__(
        self,
        name: str,
        signal: SignalProvider,
        governor: Governor,
        control: ControlMethod,
        interval_s: float = 300.0,
    ) -> None:
        if interval_s <= 0:
            raise ValueError("interval_s must be positive")
        self.name = name
        self.signal = signal
        self.governor = governor
        self.control = control
        self.interval_s = float(interval_s)
        self._elapsed = float("inf")
        self._last_limit: float | None = None
        self._manager: PowerManager | None = None
        #: Evaluations performed (observability; not control state).
        self.evaluations = 0

    def bind(self, manager: PowerManager,
             charger: SolarCharger | None = None) -> None:
        """Wire plant references into the signal and control halves."""
        self._manager = weakref.proxy(manager)
        self.signal.bind(manager, charger)
        self.control.bind(manager, charger)
        self.control.source = self.name

    def reading(self, t: float) -> float | str:
        """The signal as the governor wants it: value or zone label."""
        if self.governor.input_kind == "zone":
            return self.signal.zone(t)
        return self.signal.value(t)

    def evaluate(self, t: float) -> float:
        """One governor evaluation + control application at time ``t``."""
        reading = self.reading(t)
        limit = self.governor.limit(reading)
        self.evaluations += 1
        if limit != self._last_limit:
            self._manager.decisions.record(
                t, "policy.limit", self.name,
                signal=self.signal.name, reading=reading, limit=limit,
            )
            self._last_limit = limit
        self.control.apply(limit, t)
        return limit

    def step(self, t: float, dt: float) -> None:
        """Advance the interval accumulator; evaluate when it fires."""
        self._elapsed += dt
        if self._elapsed >= self.interval_s:
            self._elapsed = 0.0
            self.evaluate(t)

    def describe(self) -> str:
        return (f"{self.name}: {self.signal.name} -> "
                f"{self.governor.describe()} -> {self.control.describe()} "
                f"@ {self.interval_s:g}s")
