"""Every built-in (governor, control) pairing passes the conformance kit.

``pytest -m policy``.  The pairings cross the four governor rule families
(instantiated with the scenario grammar) plus the two governor halves the
SPM/TPM refactor extracted — the TPM's const discharge-current cap and
the SPM's Eq. 1 budget ramp — with all four registered control methods.
The unbounded governors double as the clamping stress case: the controls
must pin their amp/amp-hour outputs back inside hardware bounds.
"""

from __future__ import annotations

import pytest

from repro.core.spatial import SpatialPolicy
from repro.core.temporal import TemporalPolicy
from repro.policy.governors import parse_governor
from repro.policy.policy import Policy
from repro.policy.registry import control_names, make_control, make_signal
from tests.policy import conformance

pytestmark = pytest.mark.policy


def _governor_cases():
    """Name -> (governor, worsening-signal readings)."""
    return {
        "const": (parse_governor("const:80%"),
                  [0.0, 210.0, 420.0, 1000.0]),
        "step": (parse_governor("step:420=80%:560=60%"),
                 [100.0, 419.0, 420.0, 470.0, 560.0, 800.0]),
        "linear": (parse_governor("linear:20:48:max:40%"),
                   [0.0, 20.0, 30.0, 41.0, 48.0, 75.0]),
        # The trailing unknown label exercises the conservative default.
        "list": (parse_governor("list:green=max:yellow=90%:red=70%:black=50%"),
                 ["green", "yellow", "red", "black", "unheard-of"]),
        # Refactored controller halves.  Readings for the budget ramp are
        # *elapsed seconds*, descending so the limits never rise; both
        # emit physical units (A / Ah), so the controls must clamp.
        "tpm-discharge-cap": (TemporalPolicy().cap_governor,
                              [0.0, 900.0, 43200.0]),
        "spm-budget-ramp": (SpatialPolicy().budget_governor,
                            [4 * 86400.0, 86400.0, 3600.0, 0.0]),
    }


CASES = _governor_cases()


def test_every_registered_control_has_conformance_coverage():
    """A control registered without a declared event kind can't dodge
    the kit: the registry and the kit's vocabulary must stay in sync."""
    assert set(control_names()) == set(conformance.CONTROL_EVENT_KINDS)


@pytest.mark.parametrize("control_name",
                         sorted(conformance.CONTROL_EVENT_KINDS))
@pytest.mark.parametrize("gov_name", sorted(CASES))
def test_pairing_conformance(gov_name, control_name):
    governor, readings = CASES[gov_name]
    conformance.run_pairing(governor, readings, control_name)


@pytest.mark.parametrize("control_name",
                         sorted(conformance.CONTROL_EVENT_KINDS))
def test_control_full_range_ramp(control_name):
    system = conformance.run_control_ramp(control_name)
    manager = system.controller
    if control_name == "checkpoint_shed":
        # The ramp dips under shed_below once, recovers past rearm_above,
        # and never dips again: exactly one shed fired.
        assert manager.checkpoint_stops == 1
        assert manager.vm_target == 0


def test_policy_records_limit_event_only_on_change():
    """The Policy wrapper evaluates on its interval and records a
    ``policy.limit`` decision exactly when the evaluated limit changed."""
    system = conformance.build_plant()
    manager = system.controller
    policy = Policy("conf-duty", make_signal("carbon", seed=3),
                    parse_governor("step:420=80%:560=60%"),
                    make_control("duty_cap"), interval_s=300.0)
    manager.attach_policy(policy, charger=system.plant.bus.charger)

    dt, t = 5.0, 0.0
    ticks = int(12 * 3600 / dt)
    for _ in range(ticks):
        policy.step(t, dt)
        t += dt
    # First tick fires immediately (elapsed starts at inf), then every
    # interval_s: 1 + floor((ticks - 1) / (interval / dt)).
    assert policy.evaluations == 1 + (ticks - 1) // 60

    events = manager.decisions.of_kind("policy.limit")
    assert events, "no policy.limit decision was ever recorded"
    assert all(ev.source == "conf-duty" for ev in events)
    # Replay the evaluation sequence independently: one event per change.
    sig = make_signal("carbon", seed=3)
    gov = parse_governor("step:420=80%:560=60%")
    seq = [gov.limit(sig.value(300.0 * i))
           for i in range(policy.evaluations)]
    changes = sum(1 for prev, cur in zip([None, *seq], seq, strict=False) if cur != prev)
    assert len(events) == changes
    conformance.assert_hardware_bounds(system)


def test_tpm_cap_is_const_governor_composition():
    tpm = TemporalPolicy()
    lo, hi = tpm.cap_governor.limit_range
    assert lo == hi == tpm.params.cap_c_rate * tpm.capacity_ah
    assert tpm.cap_amps(3) == tpm.cap_governor.limit() * 3
    assert tpm.cap_amps(-1) == 0.0


def test_spm_threshold_is_budget_ramp_composition():
    spm = SpatialPolicy()
    gov = spm.budget_governor
    assert spm.discharge_threshold(0.0) == 0.0
    assert spm.discharge_threshold(86400.0) == gov.daily()


def test_charge_cap_requires_charger():
    class StandIn:
        """A bare manager; a class instance, so it can be held weakly."""

    manager = StandIn()
    control = make_control("charge_current_cap")
    control.bind(manager, charger=None)
    with pytest.raises(RuntimeError, match="charger"):
        control.apply(0.5, 0.0)
