"""Solar field components."""

import pytest

from repro.sim.engine import Engine
from repro.sim.rng import RandomStreams
from repro.solar.clouds import CloudField
from repro.solar.field import ConstantSource, SolarField, TracePlayer
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
        # Stepped over the whole trace, the player hands over all of its
        # energy: one sample per tick, none skipped or repeated.
        trace = make_day_trace("sunny", target_energy_kwh=5.0)
        player = TracePlayer("solar", trace)
        engine = Engine(dt=trace.dt_seconds, start_hour=trace.start_hour)
        engine.add(player)
        wh = 0.0
        for _ in range(len(trace.power_w)):
            engine.run(trace.dt_seconds)
            wh += player.available_power_w * trace.dt_seconds / 3600.0
        assert wh / 1000.0 == pytest.approx(trace.energy_kwh, rel=1e-12)
        assert trace.energy_kwh == pytest.approx(5.0)


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
