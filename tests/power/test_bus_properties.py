"""Power-bus invariants under randomised operating points."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.battery.bank import BatteryBank
from repro.battery.unit import BatteryMode
from repro.power.bus import PowerBus

MODES = (
    BatteryMode.OFFLINE,
    BatteryMode.CHARGING,
    BatteryMode.STANDBY,
    BatteryMode.DISCHARGING,
)


def build_bus(socs, modes):
    bank = BatteryBank.build(count=len(socs), soc=1.0)
    for unit, soc, mode in zip(bank, socs, modes, strict=True):
        unit.kibam.set_soc(soc)
        unit.set_mode(mode)
    return bank, PowerBus(bank)


@given(
    socs=st.lists(st.floats(0.05, 1.0), min_size=3, max_size=3),
    mode_idx=st.lists(st.integers(0, 3), min_size=3, max_size=3),
    solar=st.floats(0.0, 2000.0),
    demand=st.floats(0.0, 2000.0),
)
@settings(max_examples=120, deadline=None)
def test_bus_resolution_invariants(socs, mode_idx, solar, demand):
    bank, bus = build_bus(socs, [MODES[i] for i in mode_idx])
    energy_before = bank.stored_energy_wh

    report = bus.resolve(solar, demand, dt_seconds=5.0)

    # All flows are non-negative.
    assert report.solar_to_load_w >= 0.0
    assert report.battery_to_load_w >= -1e-9
    assert report.charge_power_w >= -1e-9
    assert report.curtailed_w >= -1e-9
    assert report.unserved_w >= -1e-9

    # Solar is split, never created: direct + charging + curtailed = solar.
    solar_split = report.solar_to_load_w + report.charge_power_w + report.curtailed_w
    assert solar_split == pytest.approx(solar, abs=max(1.0, solar * 0.02))

    # Demand is met or declared unserved, never silently dropped.
    served = report.solar_to_load_w + report.battery_to_load_w
    assert served + report.unserved_w == pytest.approx(
        report.demand_w, abs=1.0
    )

    # Battery power only flows when the converter-side demand needs it.
    if report.demand_w <= solar:
        assert report.battery_to_load_w == pytest.approx(0.0, abs=1e-6)

    # Physical sanity: no battery exceeds full charge; big energy swings
    # in one 5 s tick are impossible.
    for unit in bank:
        assert unit.soc <= 1.0 + 1e-9
    assert abs(bank.stored_energy_wh - energy_before) < 10.0


@given(
    solar=st.floats(0.0, 1500.0),
    demand=st.floats(0.0, 1500.0),
    steps=st.integers(1, 30),
)
@settings(max_examples=40, deadline=None)
def test_repeated_resolution_monotone_energy(solar, demand, steps):
    """Discharging banks only lose charge; charging banks only gain."""
    bank, bus = build_bus([0.6, 0.6, 0.6],
                          [BatteryMode.DISCHARGING] * 3)
    start = bank.stored_energy_wh
    for _ in range(steps):
        bus.resolve(solar, demand, 5.0)
    if demand > solar:
        assert bank.stored_energy_wh <= start + 1e-6
    # A discharging-only bank can never gain beyond self-discharge noise.
    assert bank.stored_energy_wh <= start + 1.0
