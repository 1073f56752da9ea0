"""Modbus register map and fixed-point codec."""

from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.battery.bank import BatteryBank
from repro.core.sensing import I_SCALE, V_SCALE, BatteryTelemetry
from repro.power.modbus import ModbusError, ModbusSlave, decode_fixed, encode_fixed
from repro.power.plc import AnalogInputModule, ProgrammableLogicController
from repro.sim.clock import Clock


class TestFixedPoint:
    def test_roundtrip(self):
        assert decode_fixed(encode_fixed(25.43)) == pytest.approx(25.43)

    def test_negative_values(self):
        assert decode_fixed(encode_fixed(-8.5)) == pytest.approx(-8.5)

    def test_overflow_rejected(self):
        with pytest.raises(ModbusError):
            encode_fixed(400.0, scale=100.0)

    def test_decode_range_checked(self):
        with pytest.raises(ModbusError):
            decode_fixed(70000)

    @given(value=st.floats(-300.0, 300.0))
    @settings(max_examples=60, deadline=None)
    def test_roundtrip_property(self, value):
        # Half an LSB of quantisation error, plus float epsilon.
        assert decode_fixed(encode_fixed(value)) == pytest.approx(value, abs=0.0051)


class TestValidation:
    def test_bad_size(self):
        with pytest.raises(ValueError):
            ModbusSlave(size=0)

    def test_address_bounds(self):
        slave = ModbusSlave(size=8)
        with pytest.raises(ModbusError):
            slave.set_holding(8, 0)


class TestCodecInTheLoops:
    """The PLC scan packs and the telemetry refresh unpacks registers
    inline; both must agree with the module codec bit for bit."""

    @staticmethod
    def _scan(value, scale=100.0):
        plc = ProgrammableLogicController()
        module = AnalogInputModule(base_address=0, channels=1)
        module.bind(0, SimpleNamespace(read=lambda: value), scale)
        plc.add_module(module)
        plc.step(Clock(dt=1.0))
        return plc.slave.input[0]

    @given(value=st.floats(-300.0, 300.0), scale=st.sampled_from([V_SCALE, I_SCALE, 10.0]))
    @settings(max_examples=60, deadline=None)
    def test_scan_packs_as_encode_fixed(self, value, scale):
        assert self._scan(value, scale) == encode_fixed(value, scale)

    def test_scan_range_checks_every_write(self):
        with pytest.raises(ModbusError, match="does not fit"):
            self._scan(400.0)

    @given(v_reg=st.integers(0, 0xFFFF), i_reg=st.integers(0, 0xFFFF))
    @settings(max_examples=60, deadline=None)
    def test_refresh_unpacks_as_decode_fixed(self, v_reg, i_reg):
        telemetry = BatteryTelemetry(BatteryBank.build(count=1))
        telemetry.plc.slave.input[0:2] = [v_reg, i_reg]
        sense = telemetry.refresh(5.0)["battery-1"]
        assert sense.voltage == decode_fixed(v_reg, V_SCALE)
        assert sense.current == decode_fixed(i_reg, I_SCALE)

    def test_refresh_range_checks_registers(self):
        telemetry = BatteryTelemetry(BatteryBank.build(count=1))
        telemetry.plc.slave.input[1] = 70000
        with pytest.raises(ModbusError, match="out of range"):
            telemetry.refresh(5.0)
