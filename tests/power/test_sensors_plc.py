"""Transducers and the PLC scan cycle."""

import pytest

from repro.power.modbus import decode_fixed
from repro.power.plc import AnalogInputModule, ProgrammableLogicController
from repro.power.sensors import CurrentTransducer, Transducer, VoltageTransducer
from repro.sim.clock import Clock
from repro.sim.rng import RandomStreams


class TestTransducer:
    def test_ideal_passthrough_with_quantisation(self):
        sensor = Transducer(lambda: 25.4, lo=0.0, hi=50.0)
        assert sensor.read() == pytest.approx(25.4, abs=0.02)

    def test_range_clipping(self):
        sensor = Transducer(lambda: 99.0, lo=0.0, hi=50.0)
        assert sensor.read() == 50.0
        negative = Transducer(lambda: -5.0, lo=0.0, hi=50.0)
        assert negative.read() == 0.0

    def test_quantisation_levels(self):
        sensor = Transducer(lambda: 25.0, lo=0.0, hi=50.0, resolution_bits=4)
        step = 50.0 / 15
        assert sensor.read() % step == pytest.approx(0.0, abs=1e-9)

    def test_noise_applied(self):
        rng = RandomStreams(0).stream("noise")
        sensor = Transducer(lambda: 25.0, lo=0.0, hi=50.0, noise_std=0.5, rng=rng)
        readings = {round(sensor.read(), 3) for _ in range(20)}
        assert len(readings) > 1

    def test_gain_error(self):
        sensor = Transducer(lambda: 10.0, lo=0.0, hi=50.0, gain_error=0.1)
        assert sensor.read() == pytest.approx(11.0, abs=0.02)

    def test_validation(self):
        with pytest.raises(ValueError):
            Transducer(lambda: 0.0, lo=10.0, hi=5.0)
        with pytest.raises(ValueError):
            Transducer(lambda: 0.0, lo=0.0, hi=1.0, resolution_bits=0)

    def test_specialised_ranges(self):
        v = VoltageTransducer(lambda: 28.8)
        i = CurrentTransducer(lambda: -19.0)
        assert v.read() == pytest.approx(28.8, abs=0.1)
        assert i.read() == pytest.approx(-19.0, abs=0.15)


class TestAnalogModule:
    def test_binding_and_scan(self):
        plc = ProgrammableLogicController(scan_period_s=0.5)
        module = plc.add_module(AnalogInputModule(base_address=0))
        module.bind(0, Transducer(lambda: 12.5, lo=0.0, hi=50.0))
        clock = Clock(dt=1.0)
        plc.step(clock)
        assert decode_fixed(plc.slave.input[0]) == pytest.approx(12.5, abs=0.02)

    def test_channels_bound_or_added_after_a_scan_are_scanned(self):
        # The scan plan is derived once; binding a channel to an added
        # module, or adding a module, must drop it.
        plc = ProgrammableLogicController(scan_period_s=0.5)
        module = plc.add_module(AnalogInputModule(base_address=0))
        module.bind(0, Transducer(lambda: 12.5, lo=0.0, hi=50.0))
        clock = Clock(dt=1.0)
        plc.step(clock)
        module.bind(1, Transducer(lambda: 7.5, lo=0.0, hi=50.0))
        plc.step(clock)
        assert decode_fixed(plc.slave.input[1]) == pytest.approx(7.5, abs=0.02)
        later = AnalogInputModule(base_address=4)
        later.bind(0, Transducer(lambda: 3.0, lo=0.0, hi=50.0))
        plc.add_module(later)
        plc.step(clock)
        assert decode_fixed(plc.slave.input[4]) == pytest.approx(3.0, abs=0.02)

    def test_duplicate_channel_rejected(self):
        module = AnalogInputModule(base_address=0)
        module.bind(0, Transducer(lambda: 0.0, lo=0.0, hi=1.0))
        with pytest.raises(ValueError):
            module.bind(0, Transducer(lambda: 0.0, lo=0.0, hi=1.0))

    def test_channel_out_of_range(self):
        module = AnalogInputModule(base_address=0, channels=2)
        with pytest.raises(ValueError):
            module.bind(5, Transducer(lambda: 0.0, lo=0.0, hi=1.0))

    def test_overlapping_modules_rejected(self):
        plc = ProgrammableLogicController()
        plc.add_module(AnalogInputModule(base_address=0, channels=4))
        with pytest.raises(ValueError):
            plc.add_module(AnalogInputModule(base_address=2, channels=4))


class TestScanCycle:
    def test_scan_period_respected(self):
        plc = ProgrammableLogicController(scan_period_s=2.0)
        clock = Clock(dt=1.0)
        for _ in range(6):
            plc.step(clock)
            clock.advance()
        # First step always scans, then every 2 s: t=0, 2, 4.
        assert plc.scan_count == 3

    def test_program_executed_on_scan(self):
        plc = ProgrammableLogicController(scan_period_s=1.0)
        calls = []
        plc.set_program(lambda clock, p: calls.append(clock.t))
        clock = Clock(dt=1.0)
        for _ in range(3):
            plc.step(clock)
            clock.advance()
        assert len(calls) == 3

    def test_validation(self):
        with pytest.raises(ValueError):
            ProgrammableLogicController(scan_period_s=0.0)
