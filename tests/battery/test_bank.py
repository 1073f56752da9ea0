"""Battery bank aggregation and group queries."""

import pytest

from repro.battery.bank import BatteryBank
from repro.battery.unit import BatteryMode, BatteryUnit


@pytest.fixture
def bank():
    return BatteryBank.build(count=3, soc=0.8)


class TestConstruction:
    def test_build_names(self, bank):
        assert [u.name for u in bank] == ["battery-1", "battery-2", "battery-3"]

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            BatteryBank([])

    def test_rejects_duplicates(self):
        units = [BatteryUnit("a"), BatteryUnit("a")]
        with pytest.raises(ValueError):
            BatteryBank(units)

    def test_rejects_zero_count(self):
        with pytest.raises(ValueError):
            BatteryBank.build(count=0)

    def test_by_name(self, bank):
        assert bank.by_name("battery-2") is bank[1]
        with pytest.raises(KeyError):
            bank.by_name("nope")


class TestGroups:
    def test_in_mode(self, bank):
        bank[0].set_mode(BatteryMode.CHARGING)
        bank[1].set_mode(BatteryMode.OFFLINE)
        bank[2].set_mode(BatteryMode.STANDBY)
        assert bank.in_mode(BatteryMode.CHARGING) == [bank[0]]
        assert len(bank.in_mode(BatteryMode.CHARGING, BatteryMode.STANDBY)) == 2

    def test_online(self, bank):
        for unit in bank:
            unit.set_mode(BatteryMode.OFFLINE)
        assert bank.online() == []
        bank[1].set_mode(BatteryMode.DISCHARGING)
        assert bank.online() == [bank[1]]

    def test_where(self, bank):
        bank[0].kibam.set_soc(0.2)
        low = bank.where(lambda u: u.soc < 0.5)
        assert low == [bank[0]]


class TestAggregates:
    def test_stored_energy_sums_units(self, bank):
        expected = sum(u.stored_energy_wh for u in bank)
        assert bank.stored_energy_wh == pytest.approx(expected)

    def test_capacity(self, bank):
        assert bank.capacity_wh == pytest.approx(3 * 35.0 * 24.0)

    def test_mean_soc(self, bank):
        assert bank.mean_soc == pytest.approx(0.8, abs=1e-6)

    def test_voltage_stats(self, bank):
        bank[0].kibam.set_soc(0.2)
        voltages = [u.terminal_voltage for u in bank]
        assert bank.mean_voltage == pytest.approx(sum(voltages) / 3)
        assert min(voltages) < bank.mean_voltage < max(voltages)

    def test_discharge_imbalance(self, bank):
        bank[0].apply_discharge(10.0, 3600.0)
        assert bank.discharge_imbalance() == pytest.approx(10.0, rel=0.02)


class TestManufacturingSpread:
    def test_spread_varies_capacities(self):
        import numpy as np

        rng = np.random.default_rng(3)
        bank = BatteryBank.build(count=4, capacity_spread=0.08, rng=rng)
        capacities = {round(u.params.capacity_ah, 3) for u in bank}
        assert len(capacities) > 1
        for unit in bank:
            assert 35.0 * 0.92 <= unit.params.capacity_ah <= 35.0 * 1.08

    def test_spread_requires_rng(self):
        with pytest.raises(ValueError):
            BatteryBank.build(count=2, capacity_spread=0.1)

    def test_spread_bounds(self):
        import numpy as np

        rng = np.random.default_rng(0)
        with pytest.raises(ValueError):
            BatteryBank.build(count=2, capacity_spread=1.0, rng=rng)

    def test_zero_spread_identical(self):
        bank = BatteryBank.build(count=3)
        assert len({u.params.capacity_ah for u in bank}) == 1
