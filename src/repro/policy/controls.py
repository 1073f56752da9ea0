"""Control methods: how a capacity limit is applied to the plant.

The second half of EcoFreq's decomposition: a :class:`ControlMethod`
receives the governor's capacity fraction and turns exactly one knob —

* :class:`DutyCapControl` — upper-bounds the rack DVFS duty cycle
  (quantized to tenths, matching the fleet kernel's deci-int duty state);
* :class:`VmRetargetControl` — upper-bounds the VM target as a fraction
  of the workload's preferred count;
* :class:`CheckpointShedControl` — checkpoint-and-stop when the limit
  collapses to (near) zero, re-arming once it recovers;
* :class:`ChargeCurrentCapControl` — scales the solar charge budget via
  :attr:`repro.battery.charger.SolarCharger.cap_fraction`.

Contract (enforced by ``tests/policy/conformance.py``): ``apply`` clamps
to hardware bounds, is idempotent (re-applying the same fraction is a
no-op that emits no event), and records a decision event whenever it
changes actuated state.

The module also hosts the :func:`nudge_duty` / :func:`nudge_vm_target`
stepping primitives the TPM actuates through — shared verbatim with the
pre-refactor controller math (the float expressions are identical, which
is what keeps the 12 golden cells bit-exact).
"""

from __future__ import annotations

import math
import weakref
from typing import TYPE_CHECKING

if TYPE_CHECKING:  # annotations only; keeps policy importable standalone
    from repro.battery.charger import SolarCharger
    from repro.core.controller_base import PowerManager

#: Hardware duty quantum: racks actuate DVFS in tenths, and the fleet
#: kernel stores duty as a deci int — caps snap *down* to this grid.
DUTY_QUANTUM = 0.1
#: Duty quanta in full duty: the fleet kernel's duty scale.
DUTY_STEPS = round(1 / DUTY_QUANTUM)
#: Slack when a fraction snaps down to a grid (duty quanta, whole VMs).
GRID_EPSILON = 1e-9


def quantize_duty(fraction: float) -> float:
    """Snap a capacity fraction down to the duty grid, clamped to [0, 1].

    Floor (not round): a cap may never exceed what the governor granted.
    ``GRID_EPSILON`` lets the scalar float path and the fleet's integer
    duty path agree on every grid point.
    """
    fraction = min(1.0, max(0.0, fraction))
    return math.floor(fraction * DUTY_STEPS + GRID_EPSILON) / DUTY_STEPS


def nudge_duty(duty: float, direction: int, step: float,
               floor: float = 0.5, ceiling: float = 1.0) -> float:
    """One duty-cycle actuation step (Figure 11's D_last ± 1).

    ``direction`` < 0 caps, > 0 relaxes, 0 holds.  The expressions are
    the TPM originals, token for token — bit-exactness of the golden
    matrix depends on the ``round(..., 3)`` and clamp order.
    """
    if direction < 0:
        return max(floor, round(duty - step, 3))
    if direction > 0:
        return min(ceiling, round(duty + step, 3))
    return duty


def nudge_vm_target(target: int, direction: int, step: int,
                    preferred: int) -> int:
    """One VM-count actuation step (Figure 11's N_vm ± 1)."""
    if direction < 0:
        return max(0, target - step)
    if direction > 0:
        return min(preferred, target + step)
    return target


class ControlMethod:
    """Base class for limit applicators.

    ``bind`` wires plant references (the power manager, held weakly
    because the manager holds its policies, and the solar charger for
    supply-side controls); ``apply`` pushes one capacity fraction and
    returns True when actuated state changed.
    """

    #: Registry name (``control=`` token in scenario definitions).
    name = "control"

    def __init__(self) -> None:
        self._manager: PowerManager | None = None
        self._charger: SolarCharger | None = None
        #: Decision-event source label; the owning Policy overwrites this
        #: with its own name so events attribute to the policy, not the
        #: mechanism.
        self.source = type(self).__name__

    def bind(self, manager: PowerManager,
             charger: SolarCharger | None = None) -> None:
        self._manager = weakref.proxy(manager)
        self._charger = charger

    def apply(self, fraction: float, t: float) -> bool:
        raise NotImplementedError

    def describe(self) -> str:
        return self.name


class DutyCapControl(ControlMethod):
    """Cap the rack DVFS duty cycle at ``fraction`` (quantized to tenths).

    The cap only ever *lowers* duty; the controller's own TPM stepping
    raises it back once the governor relaxes, so the two write the same
    knob without fighting.
    """

    name = "duty_cap"

    def __init__(self, duty_min: float = DUTY_QUANTUM) -> None:
        super().__init__()
        #: Lowest cap this control will set; never below the hardware
        #: quantum — servers reject duty 0 (shedding load entirely is
        #: CheckpointShedControl's job, not a DVFS setting).
        self.duty_min = max(float(duty_min), DUTY_QUANTUM)
        self._last_cap: float | None = None

    def bind(self, manager: PowerManager, charger: SolarCharger | None = None) -> None:
        if not hasattr(manager, "duty"):
            raise ValueError(f"control {self.name!r} needs a DVFS duty knob, "
                             f"which {type(manager).__name__} lacks")
        super().bind(manager, charger)

    def apply(self, fraction: float, t: float) -> bool:
        cap = max(self.duty_min, quantize_duty(fraction))
        manager = self._manager
        self._last_cap = cap
        if manager.duty <= cap:
            return False
        manager.decisions.record(t, "dvfs.duty", self.source,
                                 from_duty=manager.duty, to_duty=cap,
                                 action="policy-cap")
        manager.duty = cap
        manager.rack.set_duty(cap)
        return True


#: Controls that turn the DVFS duty knob, which only InsureController has.
DVFS_CONTROLS = frozenset({DutyCapControl.name})


class VmRetargetControl(ControlMethod):
    """Cap the VM target at ``floor(fraction * preferred)`` instances."""

    name = "vm_retarget"

    def apply(self, fraction: float, t: float) -> bool:
        manager = self._manager
        preferred = manager.workload.preferred_vms
        fraction = min(1.0, max(0.0, fraction))
        cap = min(preferred, int(math.floor(fraction * preferred + GRID_EPSILON)))
        if manager.vm_target <= cap:
            return False
        manager.vm_target = cap
        manager.allocator.set_target(cap)
        manager.decisions.record(t, "vm.target", self.source,
                                 target=cap, reason="policy-cap")
        return True


class CheckpointShedControl(ControlMethod):
    """Checkpoint-and-stop the load when the limit collapses.

    Fires once when the fraction drops to ``shed_below`` or less, then
    stays quiet until the fraction recovers past ``rearm_above`` —
    hysteresis that makes repeated application idempotent by design.
    """

    name = "checkpoint_shed"

    def __init__(self, shed_below: float = 0.05,
                 rearm_above: float = 0.25) -> None:
        if rearm_above <= shed_below:
            raise ValueError("rearm_above must exceed shed_below")
        super().__init__()
        self.shed_below = float(shed_below)
        self.rearm_above = float(rearm_above)
        self._armed = True

    def apply(self, fraction: float, t: float) -> bool:
        manager = self._manager
        if fraction <= self.shed_below:
            if not self._armed:
                return False
            self._armed = False
            manager.checkpoint_and_stop(t, reason="policy-shed")
            if hasattr(manager, "vm_target"):
                manager.vm_target = 0
            if hasattr(manager, "checkpoint_stops"):
                manager.checkpoint_stops += 1
            return True
        if fraction >= self.rearm_above:
            self._armed = True
        return False


class ChargeCurrentCapControl(ControlMethod):
    """Scale the solar charging budget to ``fraction`` of the surplus.

    Sets :attr:`SolarCharger.cap_fraction`; the unused surplus shows up
    as curtailment, so the energy ledger keeps closing without a new
    flow edge.
    """

    name = "charge_current_cap"

    def apply(self, fraction: float, t: float) -> bool:
        charger = self._charger
        if charger is None:
            raise RuntimeError("ChargeCurrentCapControl bound without a charger")
        fraction = min(1.0, max(0.0, fraction))
        if charger.cap_fraction == fraction:
            return False
        self._manager.decisions.record(
            t, "charge.current_cap", self.source,
            from_fraction=charger.cap_fraction, to_fraction=fraction,
        )
        charger.cap_fraction = fraction
        return True
