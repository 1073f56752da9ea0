"""Modbus-style register map.

The prototype's control panel spoke Modbus TCP between the PLC and the
coordination server.  What the controllers act on is the register map
itself: a :class:`ModbusSlave` holds bounds-checked 16-bit holding and
input registers, the PLC scan writes quantised readings into the input
bank, and the coordination node reads that bank in place.  The
fixed-point helpers mirror how analog readings are packed into signed
16-bit registers.  The PLC scan and the telemetry refresh apply the same
packing inline in their loops, a call per register being a third of the
sensing chain's calls; ``tests/power/test_modbus.py`` holds both loops to
these helpers bit for bit.
"""

from __future__ import annotations


class ModbusError(RuntimeError):
    """Register violation: out-of-range value or address."""


def encode_fixed(value: float, scale: float = 100.0) -> int:
    """Pack a float into a signed 16-bit register with fixed-point scale."""
    raw = round(value * scale)
    if not -32768 <= raw <= 32767:
        raise ModbusError(f"value {value} does not fit a 16-bit register at scale {scale}")
    return raw & 0xFFFF

def decode_fixed(register: int, scale: float = 100.0) -> float:
    """Unpack a signed 16-bit fixed-point register."""
    if not 0 <= register <= 0xFFFF:
        raise ModbusError(f"register value out of range: {register}")
    raw = register - 0x10000 if register >= 0x8000 else register
    return raw / scale


class ModbusSlave:
    """The PLC's register bank: holding and input registers."""

    def __init__(self, size: int = 256) -> None:
        if size <= 0:
            raise ValueError("size must be positive")
        self.holding = [0] * size
        self.input = [0] * size

    def set_holding(self, address: int, value: int) -> None:
        self._check(address, self.holding)
        self.holding[address] = value & 0xFFFF

    def get_holding(self, address: int) -> int:
        self._check(address, self.holding)
        return self.holding[address]

    def _check(self, address: int, bank: list[int]) -> None:
        if not 0 <= address < len(bank):
            raise ModbusError(f"register address out of range: {address}")
