"""DC/DC converter, PDU, and power-bus resolution."""

import pytest

from repro.battery.bank import BatteryBank
from repro.battery.unit import BatteryMode
from repro.power.bus import PowerBus
from repro.power.converters import DCDCConverter, PowerDistributionUnit


class TestConverter:
    def test_efficiency_peaks_mid_load(self):
        conv = DCDCConverter(rated_w=2000.0)
        light = conv.efficiency(50.0)
        mid = conv.efficiency(1000.0)
        assert mid > light

    def test_input_exceeds_output(self):
        conv = DCDCConverter()
        assert conv.input_for(1000.0) > 1000.0

    def test_no_load_draws_fixed_loss(self):
        conv = DCDCConverter(fixed_loss_w=12.0)
        assert conv.input_for(0.0) == 12.0

    def test_negative_output_rejected(self):
        with pytest.raises(ValueError):
            DCDCConverter().input_for(-1.0)

    def test_validation(self):
        with pytest.raises(ValueError):
            DCDCConverter(rated_w=0.0)
        with pytest.raises(ValueError):
            DCDCConverter(peak_efficiency=1.5)


class TestPDU:
    def test_port_overhead_counts_active_only(self):
        pdu = PowerDistributionUnit(port_overhead_w=2.0)
        assert pdu.draw([100.0, 0.0]) == pytest.approx(102.0)

    def test_over_capacity_raises(self):
        pdu = PowerDistributionUnit(capacity_w=100.0)
        with pytest.raises(ValueError):
            pdu.draw([60.0, 60.0])

    def test_too_many_servers(self):
        pdu = PowerDistributionUnit(ports=1)
        with pytest.raises(ValueError):
            pdu.draw([10.0, 10.0])


def bank_in_mode(mode, count=3, soc=0.9):
    bank = BatteryBank.build(count=count, soc=soc)
    for unit in bank:
        unit.set_mode(mode)
    return bank


class TestBusResolution:
    def test_solar_covers_load_directly(self):
        bank = bank_in_mode(BatteryMode.STANDBY)
        bus = PowerBus(bank)
        report = bus.resolve(solar_w=1500.0, server_demand_w=1000.0, dt_seconds=5.0)
        assert report.solar_to_load_w > 1000.0  # includes conversion loss
        assert report.battery_to_load_w == 0.0
        assert report.unserved_w == 0.0

    def test_battery_covers_deficit(self):
        bank = bank_in_mode(BatteryMode.DISCHARGING)
        bus = PowerBus(bank)
        report = bus.resolve(solar_w=200.0, server_demand_w=900.0, dt_seconds=5.0)
        assert report.battery_to_load_w > 0.0
        assert report.unserved_w == pytest.approx(0.0, abs=1.0)

    def test_unserved_when_bank_offline(self):
        bank = bank_in_mode(BatteryMode.OFFLINE)
        bus = PowerBus(bank)
        report = bus.resolve(solar_w=100.0, server_demand_w=900.0, dt_seconds=5.0)
        assert report.unserved_w > 500.0

    def test_surplus_charges_charging_units(self):
        bank = bank_in_mode(BatteryMode.CHARGING, soc=0.3)
        bus = PowerBus(bank)
        report = bus.resolve(solar_w=800.0, server_demand_w=100.0, dt_seconds=5.0)
        assert report.charge_power_w > 0.0

    def test_curtailment_when_everything_full(self):
        bank = bank_in_mode(BatteryMode.OFFLINE, soc=1.0)
        bus = PowerBus(bank)
        report = bus.resolve(solar_w=1000.0, server_demand_w=0.0, dt_seconds=5.0)
        assert report.curtailed_w == pytest.approx(1000.0, abs=1.0)

    def test_power_conservation(self):
        bank = bank_in_mode(BatteryMode.CHARGING, soc=0.4)
        bus = PowerBus(bank)
        report = bus.resolve(solar_w=600.0, server_demand_w=300.0, dt_seconds=5.0)
        total = report.solar_to_load_w + report.charge_power_w + report.curtailed_w
        assert total == pytest.approx(600.0, abs=1.0)

    def test_every_unit_stepped_once(self):
        """Charging units and idle units must both see time pass."""
        bank = BatteryBank.build(count=3, soc=0.5)
        bank[0].set_mode(BatteryMode.CHARGING)
        bank[1].set_mode(BatteryMode.DISCHARGING)
        bank[2].set_mode(BatteryMode.OFFLINE)
        bus = PowerBus(bank)
        # Surplus tick: the charging unit draws, others idle or serve.
        bus.resolve(solar_w=500.0, server_demand_w=100.0, dt_seconds=5.0)
        assert bank[0].last_current < 0.0
        assert bank[2].last_current == 0.0
        # Deficit tick: the discharging unit serves the gap.
        bus.resolve(solar_w=200.0, server_demand_w=700.0, dt_seconds=5.0)
        assert bank[1].last_current > 0.0
        assert bank[2].last_current == 0.0

    def test_input_validation(self):
        bus = PowerBus(bank_in_mode(BatteryMode.STANDBY))
        with pytest.raises(ValueError):
            bus.resolve(-1.0, 100.0, 5.0)
        with pytest.raises(ValueError):
            bus.resolve(100.0, -1.0, 5.0)
