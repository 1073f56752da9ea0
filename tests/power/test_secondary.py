"""Diesel backup generator and the hybrid source."""

import pytest

from repro.power.secondary import DieselGenerator, HybridSource
from repro.sim.clock import Clock
from repro.solar.field import ConstantSource


def run_steps(component, steps, dt=5.0, clock=None):
    clock = clock or Clock(dt=dt)
    for _ in range(steps):
        component.step(clock)
        clock.advance()
    return clock


class TestGenerator:
    def test_startup_delay(self):
        genset = DieselGenerator(startup_s=20.0)
        genset.request(True)
        run_steps(genset, 2)  # 10 s: still cranking
        assert genset.output_w == 0.0
        run_steps(genset, 3)
        assert genset.output_w == genset.rated_w

    def test_minimum_runtime_enforced(self):
        genset = DieselGenerator(startup_s=0.0, min_runtime_s=600.0)
        genset.request(True)
        clock = run_steps(genset, 2)
        genset.request(False)
        run_steps(genset, 10, clock=clock)  # only 50 s after stop request
        assert genset.running
        run_steps(genset, 120, clock=clock)
        assert not genset.running

    def test_fuel_ledger(self):
        genset = DieselGenerator(rated_w=2000.0, startup_s=0.0,
                                 litres_per_kwh=0.5)
        genset.request(True)
        run_steps(genset, 720)  # one hour
        assert genset.fuel_litres == pytest.approx(1.0, rel=0.02)
        assert genset.fuel_cost_usd > 0.0

    def test_start_counted_once_per_request(self):
        genset = DieselGenerator()
        genset.request(True)
        genset.request(True)
        assert genset.starts == 1

    def test_validation(self):
        with pytest.raises(ValueError):
            DieselGenerator(rated_w=0.0)
        with pytest.raises(ValueError):
            DieselGenerator(litres_per_kwh=0.0)


class TestHybridSource:
    def test_genset_starts_when_solar_collapses(self):
        genset = DieselGenerator(startup_s=0.0)
        hybrid = HybridSource("h", ConstantSource("s", 50.0), genset)
        run_steps(hybrid, 5)
        assert genset.running
        assert hybrid.available_power_w == pytest.approx(50.0 + genset.rated_w)

    def test_genset_stays_off_with_good_solar(self):
        genset = DieselGenerator(startup_s=0.0)
        hybrid = HybridSource("h", ConstantSource("s", 900.0), genset)
        run_steps(hybrid, 5)
        assert not genset.running
        assert hybrid.available_power_w == pytest.approx(900.0)

    def test_hysteresis_band(self):
        genset = DieselGenerator(startup_s=0.0, min_runtime_s=0.0)
        # Solar in the dead band between start and stop thresholds.
        hybrid = HybridSource("h", ConstantSource("s", 250.0), genset,
                              start_below_w=150.0, stop_above_w=400.0)
        run_steps(hybrid, 5)
        assert not genset.running  # never requested

    def test_bad_band_rejected(self):
        genset = DieselGenerator()
        with pytest.raises(ValueError):
            HybridSource("h", ConstantSource("s", 100.0), genset,
                         start_below_w=500.0, stop_above_w=400.0)
