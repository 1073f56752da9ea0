"""Solar field components."""

import numpy as np
import pytest

from repro.sim.engine import Engine
from repro.sim.rng import RandomStreams
from repro.solar.clouds import CloudField
from repro.solar.field import ConstantSource, SolarField, TracePlayer, trace_from_array
from repro.solar.traces import make_day_trace


class TestTracePlayer:
    def test_follows_trace(self):
        trace = make_day_trace("sunny", dt_seconds=5.0, seed=1)
        player = TracePlayer("solar", trace)
        engine = Engine(dt=5.0, start_hour=trace.start_hour)
        engine.add(player)
        engine.run(50.0)
        assert player.available_power_w == trace.at(45.0)

    def test_energy_passthrough(self):
        trace = make_day_trace("sunny", target_energy_kwh=5.0)
        assert TracePlayer("solar", trace).total_energy_kwh == pytest.approx(5.0)


class TestSolarField:
    def test_produces_power_during_day(self):
        clouds = CloudField.sunny(RandomStreams(0).stream("c"))
        field = SolarField("solar", clouds)
        engine = Engine(dt=5.0, start_hour=12.0)
        engine.add(field)
        engine.run(600.0)
        assert field.available_power_w > 200.0

    def test_dark_at_night(self):
        clouds = CloudField.sunny(RandomStreams(0).stream("c"))
        field = SolarField("solar", clouds)
        engine = Engine(dt=5.0, start_hour=1.0)
        engine.add(field)
        engine.run(600.0)
        assert field.available_power_w == 0.0


class TestConstantSource:
    def test_constant(self):
        source = ConstantSource("s", 400.0)
        engine = Engine(dt=1.0)
        engine.add(source)
        engine.run(10.0)
        assert source.available_power_w == 400.0

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            ConstantSource("s", -1.0)


class TestTraceFromArray:
    def test_wraps_array(self):
        trace = trace_from_array(np.array([1.0, 2.0, 3.0]), dt_seconds=5.0)
        assert trace.at(6.0) == 2.0

    def test_rejects_negative_values(self):
        with pytest.raises(ValueError):
            trace_from_array(np.array([1.0, -2.0]), dt_seconds=5.0)

    @pytest.mark.parametrize("bad", [float("nan"), float("inf")])
    def test_rejects_non_finite_values(self, bad):
        with pytest.raises(ValueError, match="finite and non-negative"):
            trace_from_array(np.array([1.0, bad]), dt_seconds=5.0)

    def test_rejects_matrix(self):
        with pytest.raises(ValueError):
            trace_from_array(np.ones((2, 2)), dt_seconds=5.0)
