"""Unit tests for the physics-invariant checker.

Each invariant must (a) stay silent on the healthy models and (b) trip —
with a structured record naming tick, component and observed/expected —
when the corresponding law is broken.  Healthy full-matrix coverage lives
in the golden suite (``pytest -m golden``); here we rig states by hand.
"""

import hashlib

import pytest

from repro.battery.bank import BatteryBank
from repro.core.system import build_system
from repro.power.bus import BusReport
from repro.power.relays import SwitchNetwork
from repro.sim.clock import Clock
from repro.solar.traces import make_day_trace
from repro.validate import InvariantChecker, InvariantError
from repro.workloads import VideoSurveillance

HOUR = 3600.0


class FakeBus:
    """The energy integrals (Wh) of :class:`~repro.power.bus.PowerBus`."""

    def __init__(self):
        self.e_solar_wh = self.e_solar_to_load_wh = 0.0
        self.e_battery_to_load_wh = self.e_unserved_wh = 0.0
        self.e_charge_bus_wh = self.e_charge_terminal_wh = 0.0
        self.e_curtailed_wh = self.e_demand_bus_wh = 0.0
        self.e_server_wall_wh = 0.0

    def integrate(self, report, dt, solar_leak_w=0.0):
        """One tick of ``report``'s flows, as ``PowerBus.resolve`` adds
        them; ``solar_leak_w`` of harvest reaches no sink."""
        dt_h = dt / 3600.0
        self.e_solar_wh += (report.solar_available_w + solar_leak_w) * dt_h
        self.e_solar_to_load_wh += report.solar_to_load_w * dt_h
        self.e_battery_to_load_wh += report.battery_to_load_w * dt_h
        self.e_unserved_wh += report.unserved_w * dt_h
        self.e_charge_bus_wh += report.charge_power_w * dt_h
        self.e_curtailed_wh += report.curtailed_w * dt_h
        self.e_demand_bus_wh += report.demand_w * dt_h


class FakePlant:
    def __init__(self, report):
        self.last_report = report
        self.bus = FakeBus()


def healthy_report(**overrides):
    fields = dict(
        demand_w=500.0, solar_available_w=800.0, solar_to_load_w=500.0,
        battery_to_load_w=0.0, unserved_w=0.0, charge_power_w=250.0,
        curtailed_w=50.0,
    )
    fields.update(overrides)
    return BusReport(**fields)


def make_checker(report=None, stride=1, **kwargs):
    bank = BatteryBank.build(count=2, soc=0.5)
    switchnet = SwitchNetwork([u.name for u in bank])
    plant = FakePlant(report if report is not None else healthy_report())
    checker = InvariantChecker(bank=bank, switchnet=switchnet, plant=plant,
                               stride=stride, **kwargs)
    return checker, bank, switchnet, plant


def tick(checker, index=0, dt=5.0, solar_leak_w=0.0):
    """Step the plant's bus through tick ``index``, then run the checker."""
    plant = checker.plant
    if plant.last_report is not None:
        plant.bus.integrate(plant.last_report, dt, solar_leak_w)
    clock = Clock(dt=dt)
    clock.step_index = index
    clock.t = index * dt
    checker(clock)


class TestHealthyState:
    def test_balanced_report_is_clean(self):
        checker, _, _, _ = make_checker()
        tick(checker)
        assert checker.ok
        assert checker.checks_run == 1
        checker.assert_clean()  # must not raise
        assert "ok" in checker.report()

    def test_stride_skips_between_windows(self):
        checker, _, _, _ = make_checker(stride=5)
        for index in range(12):
            tick(checker, index)
        # Windows at ticks 0, 5 and 10.
        assert checker.checks_run == 3

    def test_stride_must_be_positive(self):
        with pytest.raises(ValueError):
            make_checker(stride=0)


class TestBusInvariants:
    def test_solar_leak_trips_energy_conservation(self):
        # 100 W of PV vanishes: split says 700 of 800 available.
        checker, _, _, _ = make_checker(
            healthy_report(charge_power_w=150.0))
        tick(checker)
        assert not checker.ok
        violation = checker.violations[0]
        assert violation.invariant == "energy_conservation"
        assert violation.component == "bus.solar"
        assert violation.tick == 0

    def test_unserved_mismatch_trips_load_identity(self):
        checker, _, _, _ = make_checker(
            healthy_report(demand_w=900.0, unserved_w=0.0))
        tick(checker)
        assert any(v.component == "bus.load" for v in checker.violations)

    def test_negative_flow_detected(self):
        checker, _, _, _ = make_checker(
            healthy_report(curtailed_w=-25.0, charge_power_w=325.0))
        tick(checker)
        assert any(v.invariant == "nonnegative_flow" for v in checker.violations)

    def test_accumulated_residual_tracks_leak(self):
        # A 0.6 mW systematic leak stays below the 1 mW per-tick gate, but
        # the bus integrates it every tick and the integral trips.
        checker, _, _, _ = make_checker(
            healthy_report(solar_available_w=800.0006))
        for index in range(1500):
            tick(checker, index, dt=300.0)
        assert not any(v.component == "bus.solar" for v in checker.violations)
        first = next(v for v in checker.violations
                     if v.component == "bus.accumulated")
        assert first.observed > 0.0
        assert "solar-side" in first.message
        # Past the 1 mWh floor the leak outgrows the 0.5 mWh/h slack.
        assert first.t < 3 * HOUR

    def test_leak_between_sampled_ticks_trips_the_integral(self):
        # Every sampled report balances; the bus loses about 0.6 mW of
        # harvest on every tick.  Only the integrals can see it.
        checker, _, _, _ = make_checker(stride=12)
        for index in range(1500):
            tick(checker, index, dt=300.0, solar_leak_w=0.0006)
        assert checker.checks_run == 125
        assert {v.component for v in checker.violations} == {"bus.accumulated"}
        assert all(v.observed > 0.0 for v in checker.violations)

    def test_missing_report_is_ignored(self):
        checker, _, _, plant = make_checker()
        plant.last_report = None
        tick(checker)
        assert checker.ok


class TestBatteryInvariants:
    def test_overfull_available_well_detected(self):
        checker, bank, _, _ = make_checker()
        bank[0].kibam.y1 = bank[0].kibam.capacity_ah  # > c * C
        tick(checker)
        assert any(v.invariant == "well_bounds" and "y1" in v.component
                   for v in checker.violations)

    def test_negative_bound_well_detected(self):
        checker, bank, _, _ = make_checker()
        bank[1].kibam.y2 = -0.5
        tick(checker)
        assert any(v.invariant == "well_bounds" and "y2" in v.component
                   for v in checker.violations)

    def test_charge_above_acceptance_ceiling_detected(self):
        checker, bank, _, _ = make_checker()
        unit = bank[0]
        ceiling = unit.acceptance.max_current(unit.soc)
        unit.last_current = -(ceiling * 2.0)
        tick(checker)
        violation = next(v for v in checker.violations
                         if v.invariant == "charge_acceptance")
        assert violation.component == unit.name
        assert violation.observed == pytest.approx(ceiling * 2.0)
        assert violation.expected == pytest.approx(ceiling)

    def test_charge_at_ceiling_is_clean(self):
        checker, bank, _, _ = make_checker()
        unit = bank[0]
        unit.last_current = -unit.acceptance.max_current(unit.soc)
        tick(checker)
        assert checker.ok

    def test_wear_counter_decrease_detected(self):
        checker, bank, _, _ = make_checker()
        bank[0].wear.discharge_ah = 5.0
        tick(checker)           # records the new high-water mark
        assert checker.ok
        bank[0].wear.discharge_ah = 4.0
        tick(checker, index=1)
        assert any(v.invariant == "wear_monotone" for v in checker.violations)


class TestRelayInvariants:
    def test_bridged_pair_detected(self):
        checker, _, switchnet, _ = make_checker()
        pair = switchnet.pairs["battery-1"]
        pair.charge.closed = True       # bypass actuation-time validation
        pair.discharge.closed = True
        tick(checker)
        violation = next(v for v in checker.violations
                         if v.invariant == "relay_exclusivity")
        assert violation.component == "battery-1"


class TestReporting:
    def test_assert_clean_raises_with_structured_records(self):
        checker, _, switchnet, _ = make_checker()
        pair = switchnet.pairs["battery-2"]
        pair.charge.closed = pair.discharge.closed = True
        tick(checker)
        with pytest.raises(InvariantError) as excinfo:
            checker.assert_clean()
        assert excinfo.value.violations
        assert "relay_exclusivity" in str(excinfo.value)

    def test_raise_mode_raises_at_the_offending_tick(self):
        checker, _, switchnet, _ = make_checker(raise_on_violation=True)
        pair = switchnet.pairs["battery-1"]
        pair.charge.closed = pair.discharge.closed = True
        with pytest.raises(InvariantError):
            tick(checker, index=7)
        assert checker.violations[0].tick == 7

    def test_violation_list_is_bounded(self):
        checker, _, switchnet, _ = make_checker(max_violations=3)
        pair = switchnet.pairs["battery-1"]
        pair.charge.closed = pair.discharge.closed = True
        for index in range(10):
            tick(checker, index)
        assert len(checker.violations) == 3

    def test_counts_group_by_invariant(self):
        checker, bank, switchnet, _ = make_checker()
        switchnet.pairs["battery-1"].charge.closed = True
        switchnet.pairs["battery-1"].discharge.closed = True
        bank[0].kibam.y2 = -1.0
        tick(checker)
        counts = checker.counts()
        assert counts["relay_exclusivity"] == 1
        assert counts["well_bounds"] == 1


class TestFullSystemWiring:
    """The checker rides along a real run without perturbing it."""

    @staticmethod
    def run_system(invariants, stride=1, seed=5):
        trace = make_day_trace("sunny", seed=seed, target_mean_w=900.0)
        system = build_system(trace, VideoSurveillance(), seed=seed,
                              initial_soc=0.6, invariants=invariants,
                              invariant_stride=stride)
        summary = system.run(3 * HOUR)
        return system, summary

    @staticmethod
    def trace_hash(system):
        digest = hashlib.sha256()
        for name in ("t",) + system.recorder.names:
            digest.update(system.recorder[name].tobytes())
        return digest.hexdigest()

    def test_checker_is_attached_and_clean_on_healthy_run(self):
        system, _ = self.run_system(invariants=True)
        assert system.checker is not None
        assert system.checker.checks_run > 0
        system.checker.assert_clean()

    def test_disabled_by_default(self):
        system, _ = self.run_system(invariants=False)
        assert system.checker is None

    def test_enabling_checker_leaves_same_seed_trace_bit_identical(self):
        plain, summary_plain = self.run_system(invariants=False)
        checked, summary_checked = self.run_system(invariants=True)
        assert self.trace_hash(plain) == self.trace_hash(checked)
        assert summary_plain == summary_checked

    def test_stride_reduces_check_count(self):
        dense, _ = self.run_system(invariants=True, stride=1)
        sparse, _ = self.run_system(invariants=True, stride=24)
        assert sparse.checker.checks_run < dense.checker.checks_run
        assert sparse.checker.checks_run >= dense.checker.checks_run // 24
        sparse.checker.assert_clean()
