"""Spatial power management (Figures 9-10, Eq. 1)."""

import pytest

from repro.core.sensing import BatterySense
from repro.core.spatial import SpatialParams, SpatialPolicy

DAY = 86400.0


def sense(name, soc=0.5, discharge_ah=0.0):
    return BatterySense(name=name, soc_estimate=soc, discharge_ah=discharge_ah)


@pytest.fixture
def policy():
    return SpatialPolicy(SpatialParams(elastic=False))


class TestEq1:
    def test_threshold_prorated(self, policy):
        p = policy.params
        expected = p.lifetime_ah / p.design_life_days
        assert policy.discharge_threshold(DAY) == pytest.approx(expected)

    def test_negative_time_rejected(self, policy):
        with pytest.raises(ValueError):
            policy.discharge_threshold(-1.0)


class TestBatchSizing:
    def test_n_equals_budget_over_ppc(self, policy):
        ppc = policy.params.peak_charge_power_w
        assert policy.batch_size(2.5 * ppc) == 2
        assert policy.batch_size(1.2 * ppc) == 1

    def test_scarce_budget_still_one(self, policy):
        assert policy.batch_size(100.0) == 1

    def test_negligible_budget_zero(self, policy):
        assert policy.batch_size(10.0) == 0


class TestScreening:
    def test_underused_selected(self, policy):
        offline = [sense("b1", soc=0.2, discharge_ah=1.0)]
        decision = policy.evaluate(offline, [], surplus_w=300.0,
                                   elapsed_seconds=DAY)
        assert decision.to_charging == ["b1"]

    def test_overused_held_offline(self, policy):
        offline = [sense("b1", soc=0.2, discharge_ah=100.0)]
        decision = policy.evaluate(offline, [], surplus_w=300.0,
                                   elapsed_seconds=DAY)
        assert decision.to_charging == []
        assert decision.hold_offline == ["b1"]

    def test_batch_size_limits_selection(self, policy):
        offline = [sense(f"b{i}", soc=0.2) for i in range(3)]
        decision = policy.evaluate(offline, [], surplus_w=300.0,
                                   elapsed_seconds=DAY)
        assert len(decision.to_charging) == 1

    def test_lowest_usage_prioritised(self, policy):
        offline = [
            sense("worn", soc=0.2, discharge_ah=5.0),
            sense("fresh", soc=0.3, discharge_ah=1.0),
        ]
        decision = policy.evaluate(offline, [], surplus_w=300.0,
                                   elapsed_seconds=30 * DAY)
        assert decision.to_charging[0] == "fresh"

    def test_charged_units_to_standby(self, policy):
        charging = [sense("b1", soc=0.95), sense("b2", soc=0.5)]
        decision = policy.evaluate([], charging, surplus_w=300.0,
                                   elapsed_seconds=DAY)
        assert decision.to_standby == ["b1"]

    def test_existing_charging_counts_against_batch(self, policy):
        offline = [sense("b2", soc=0.2)]
        charging = [sense("b1", soc=0.5)]
        decision = policy.evaluate(offline, charging, surplus_w=300.0,
                                   elapsed_seconds=DAY)
        assert decision.to_charging == []  # batch of 1 already charging

    def test_no_surplus_no_charging(self, policy):
        offline = [sense("b1", soc=0.2)]
        decision = policy.evaluate(offline, [], surplus_w=5.0,
                                   elapsed_seconds=DAY)
        assert decision.to_charging == []


class TestElastic:
    def test_relaxes_under_demand_pressure(self):
        policy = SpatialPolicy(SpatialParams(elastic=True))
        offline = [sense("b1", soc=0.2, discharge_ah=policy.daily_budget_ah() + 1.0)]
        starved = policy.evaluate(offline, [], surplus_w=300.0,
                                  elapsed_seconds=DAY, demand_pressure=True)
        assert starved.to_charging == ["b1"]

    def test_rigid_never_relaxes(self, policy):
        offline = [sense("b1", soc=0.2, discharge_ah=100.0)]
        decision = policy.evaluate(offline, [], surplus_w=300.0,
                                   elapsed_seconds=DAY, demand_pressure=True)
        assert decision.to_charging == []
