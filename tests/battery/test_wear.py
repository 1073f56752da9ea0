"""Ah-throughput wear model."""

import pytest

from repro.battery.params import WearParams
from repro.battery.wear import WearModel

DAY = 86400.0


@pytest.fixture
def wear():
    return WearModel(35.0, WearParams())


class TestThroughputCounting:
    def test_discharge_counted(self, wear):
        wear.record(10.0, 0.8, 3600.0)
        assert wear.discharge_ah == pytest.approx(10.0)

    def test_charge_counted_separately(self, wear):
        wear.record(-5.0, 0.5, 3600.0)
        assert wear.discharge_ah == 0.0

    def test_idle_records_nothing(self, wear):
        wear.record(0.0, 0.5, 3600.0)
        assert wear.discharge_ah == 0.0
        assert wear.weighted_ah == 0.0


class TestStress:
    def test_gentle_discharge_unit_stress(self, wear):
        assert wear.stress_factor(5.0, 0.8) == pytest.approx(1.0)

    def test_high_rate_penalised(self, wear):
        assert wear.stress_factor(20.0, 0.8) > 1.0

    def test_deep_discharge_penalised(self, wear):
        assert wear.stress_factor(5.0, 0.2) > 1.0

    def test_combined_worse_than_either(self, wear):
        combined = wear.stress_factor(20.0, 0.2)
        assert combined > wear.stress_factor(20.0, 0.8)
        assert combined > wear.stress_factor(5.0, 0.2)

    def test_weighted_exceeds_raw_under_stress(self, wear):
        wear.record(20.0, 0.2, 3600.0)
        assert wear.weighted_ah > wear.discharge_ah


class TestLifeProjection:
    def test_unused_battery_shelf_capped(self, wear):
        life = wear.projected_life_days(DAY)
        assert life == pytest.approx(wear.params.design_life_days * 1.5)

    def test_heavier_usage_shorter_life(self, wear):
        gentle = WearModel(35.0, WearParams())
        gentle.record(5.0, 0.8, 4 * 3600.0)
        heavy = WearModel(35.0, WearParams())
        heavy.record(20.0, 0.3, 4 * 3600.0)
        assert heavy.projected_life_days(DAY) < gentle.projected_life_days(DAY)

    def test_life_fraction_used_saturates(self, wear):
        wear.weighted_ah = wear.params.lifetime_ah * 2
        assert wear.life_fraction_used == 1.0

    def test_projection_requires_positive_elapsed(self, wear):
        with pytest.raises(ValueError):
            wear.projected_life_days(0.0)

