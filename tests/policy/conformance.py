"""Policy-conformance kit: the contract every pairing must honour.

Reusable checks run against every built-in (governor, control-method)
pairing — including the governor halves the SPM/TPM refactor extracted —
by ``tests/policy/test_conformance.py``:

* **limit range** — every limit a governor emits lies inside its declared
  :attr:`~repro.policy.governors.Governor.limit_range`;
* **monotonicity** — along a worsening-signal sweep the limits never
  rise;
* **hardware clamping** — after any ``apply()`` the actuated plant state
  sits inside hardware bounds: duty in ``[0, 1]`` on the DVFS deci grid,
  VM target in ``[0, preferred]``, charge-cap fraction in ``[0, 1]`` —
  even when the governor's output is unbounded (the SPM budget ramp
  returns amp-hours);
* **event honesty** — ``apply()`` returns True iff it appended exactly
  one decision event of the control's declared kind;
* **idempotence** — immediately re-applying the same limit is a no-op
  that emits nothing.

Third-party control methods registered via
:func:`repro.policy.registry.register_control` can reuse
:func:`run_pairing` / :func:`run_control_ramp` directly after adding
their decision kind to :data:`CONTROL_EVENT_KINDS`.
"""

from __future__ import annotations

from repro.core.system import build_day_system
from repro.policy.registry import make_control

#: Decision kind each built-in control emits when it actuates state.
CONTROL_EVENT_KINDS = {
    "duty_cap": "dvfs.duty",
    "vm_retarget": "vm.target",
    "checkpoint_shed": "load.checkpoint_stop",
    "charge_current_cap": "charge.current_cap",
}

#: Controls whose events carry the policy's source label directly
#: (checkpoint_shed delegates to ``manager.checkpoint_and_stop``, which
#: attributes its event to the controller).
SOURCE_LABELLED = frozenset({"duty_cap", "vm_retarget", "charge_current_cap"})

#: A full-range descending-then-ascending limit sweep, deliberately
#: poking past both hardware bounds.
FULL_RANGE_RAMP = (
    1.4, 1.0, 0.85, 0.6, 0.45, 0.3, 0.1, 0.04, 0.0, -0.2,
    0.1, 0.3, 0.6, 0.9, 1.0, 1.4,
)


def build_plant(controller: str = "insure"):
    """A small real plant; its decision log records what each control did.

    Caps can only *lower* actuated state, so the load side starts fully
    up (duty 1.0, VM target at the workload's preferred count) to give
    every control headroom to act.
    """
    system = build_day_system(controller, "seismic", "sunny", mean_w=800.0,
                              seed=7, initial_soc=0.6, dt=5.0)
    manager = system.controller
    if hasattr(manager, "duty"):
        manager.duty = 1.0
    manager.vm_target = manager.workload.preferred_vms
    manager.allocator.set_target(manager.vm_target)
    return system


def assert_hardware_bounds(system) -> None:
    """Actuated plant state sits inside its hardware envelope."""
    manager = system.controller
    charger = system.plant.bus.charger
    if hasattr(manager, "duty"):
        assert 0.0 <= manager.duty <= 1.0, f"duty {manager.duty} out of range"
        deci = manager.duty * 10.0
        assert abs(deci - round(deci)) < 1e-6, (
            f"duty {manager.duty} off the DVFS deci grid"
        )
    preferred = manager.workload.preferred_vms
    assert 0 <= manager.vm_target <= preferred, (
        f"vm_target {manager.vm_target} outside [0, {preferred}]"
    )
    assert 0.0 <= charger.cap_fraction <= 1.0, (
        f"charge cap_fraction {charger.cap_fraction} out of range"
    )


def apply_checked(system, control, limit: float, t: float) -> bool:
    """One ``apply()`` under the full contract; returns whether it acted.

    Checks event honesty (True iff exactly one event of the declared
    kind), idempotence of an immediate re-application, and hardware
    clamping of the resulting plant state.
    """
    manager = system.controller
    kind = CONTROL_EVENT_KINDS[control.name]
    before = len(manager.decisions)
    changed = control.apply(limit, t)
    events = list(manager.decisions)[before:]
    if changed:
        assert len(events) == 1, (
            f"{control.name}: apply(True) appended {len(events)} events, "
            f"expected exactly one {kind!r}"
        )
        assert events[0].kind == kind, (
            f"{control.name}: recorded {events[0].kind!r}, declared {kind!r}"
        )
        if control.name in SOURCE_LABELLED:
            assert events[0].source == control.source
    else:
        assert not events, (
            f"{control.name}: apply() returned False but recorded "
            f"{[e.kind for e in events]}"
        )
    # Idempotence: re-applying the very same limit must be a silent no-op.
    assert control.apply(limit, t) is False, (
        f"{control.name}: re-applying limit {limit} was not a no-op"
    )
    assert len(manager.decisions) == before + len(events), (
        f"{control.name}: idempotent re-application emitted events"
    )
    assert_hardware_bounds(system)
    return changed


def run_pairing(governor, readings, control_name: str, *,
                controller: str = "insure"):
    """Conformance sweep of one (governor, control) pairing.

    ``readings`` must be ordered worst-last so the governor's limits are
    non-increasing along the sweep; each evaluated limit is range-checked
    against the governor's declaration and pushed through
    :func:`apply_checked` on a fresh plant.  Returns the plant for extra
    caller assertions.
    """
    system = build_plant(controller)
    control = make_control(control_name)
    control.bind(system.controller, charger=system.plant.bus.charger)
    lo, hi = governor.limit_range
    prev = None
    t = 0.0
    for reading in readings:
        limit = governor.limit(reading)
        assert lo <= limit <= hi, (
            f"{governor.describe()}: limit {limit} for reading {reading!r} "
            f"escapes declared range [{lo}, {hi}]"
        )
        if prev is not None:
            assert limit <= prev, (
                f"{governor.describe()}: limit rose {prev} -> {limit} as "
                f"the signal worsened (reading {reading!r})"
            )
        prev = limit
        apply_checked(system, control, limit, t)
        t += 300.0
    return system


def run_control_ramp(control_name: str, *, controller: str = "insure"):
    """Drive one control through :data:`FULL_RANGE_RAMP`.

    Guarantees every actuation path executes (including the checkpoint
    shed + re-arm hysteresis) and that the one-way caps — duty, VM
    target — never raise what they capped, even while the limit ramp
    recovers.  Returns the plant for extra caller assertions.
    """
    system = build_plant(controller)
    manager = system.controller
    control = make_control(control_name)
    control.bind(manager, charger=system.plant.bus.charger)
    prev_duty = getattr(manager, "duty", None)
    prev_vms = manager.vm_target
    t = 0.0
    for limit in FULL_RANGE_RAMP:
        apply_checked(system, control, limit, t)
        if control.name == "duty_cap":
            assert manager.duty <= prev_duty, (
                f"duty cap raised duty {prev_duty} -> {manager.duty}"
            )
            prev_duty = manager.duty
        elif control.name == "vm_retarget":
            assert manager.vm_target <= prev_vms, (
                f"vm cap raised target {prev_vms} -> {manager.vm_target}"
            )
            prev_vms = manager.vm_target
        t += 300.0
    return system
