"""Solar charger allocation: water-filling, overheads, concentration."""

import pytest

from repro.battery.charger import SolarCharger
from repro.battery.unit import BatteryUnit


def units(*socs):
    return [BatteryUnit(f"u{i}", soc=s) for i, s in enumerate(socs)]


@pytest.fixture
def charger():
    return SolarCharger()


class TestStep:
    def test_no_targets_no_power(self, charger):
        result = charger.step([], 500.0, 5.0)
        assert result.power_used_w == 0.0
        assert result.utilisation == 0.0

    def test_negative_budget_rejected(self, charger):
        with pytest.raises(ValueError):
            charger.step(units(0.5), -1.0, 5.0)

    def test_charging_stores_ah(self, charger):
        target = units(0.3)
        result = charger.step(target, 400.0, 60.0)
        assert result.accepted_ah > 0.0
        assert target[0].soc > 0.3

    def test_power_used_bounded_by_offer(self, charger):
        result = charger.step(units(0.2, 0.2, 0.2), 300.0, 5.0)
        assert result.power_used_w <= 300.0 + 1e-6

    def test_acceptance_limits_draw(self, charger):
        # One nearly-full battery cannot absorb a large budget.
        result = charger.step(units(0.97), 1000.0, 5.0)
        assert result.power_used_w < 300.0

    def test_even_split_across_equal_units(self, charger):
        targets = units(0.3, 0.3)
        charger.step(targets, 300.0, 5.0)
        c0, c1 = (-u.last_current for u in targets)
        assert c0 == pytest.approx(c1, rel=0.05)

    def test_waterfill_redistributes_from_capped_unit(self, charger):
        # A nearly-full unit caps out; the empty unit gets the leftovers.
        full, empty = units(0.98, 0.2)
        charger.step([full, empty], 500.0, 5.0)
        assert -empty.last_current > -full.last_current

    def test_unpayable_strings_idle(self):
        charger = SolarCharger(per_string_overhead_w=50.0)
        targets = units(0.3, 0.3, 0.3)
        charger.step(targets, 110.0, 5.0)  # only 2 overheads payable
        assert sum(1 for u in targets if u.last_current < 0) <= 2


class TestConcentration:
    def test_scarce_budget_favours_fewer_strings(self, charger):
        """The Figure 4(a)/Figure 10 effect at the ops level: one step of
        sequential charging stores more than one step of batch charging
        when the budget is scarce."""
        seq = units(0.3, 0.3, 0.3)
        batch = units(0.3, 0.3, 0.3)
        stored_seq = charger.step(seq[:1], 150.0, 60.0).accepted_ah
        stored_batch = charger.step(batch, 150.0, 60.0).accepted_ah
        assert stored_seq > stored_batch

    def test_abundant_budget_favours_batch(self, charger):
        seq = units(0.3, 0.3, 0.3)
        batch = units(0.3, 0.3, 0.3)
        stored_seq = charger.step(seq[:1], 900.0, 60.0).accepted_ah
        stored_batch = charger.step(batch, 900.0, 60.0).accepted_ah
        assert stored_batch > stored_seq


class TestFloatAndMisc:
    def test_float_step_consumes_power(self, charger):
        used = charger.float_step(units(0.9), 5.0)
        assert used > 0.0

    def test_invalid_efficiency(self):
        with pytest.raises(ValueError):
            SolarCharger(efficiency=0.0)
        with pytest.raises(ValueError):
            SolarCharger(per_string_overhead_w=-1.0)
