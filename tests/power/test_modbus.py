"""Modbus register map and fixed-point codec."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.power.modbus import ModbusError, ModbusSlave, decode_fixed, encode_fixed


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
            slave.set_input(8, 0)
