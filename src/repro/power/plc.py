"""Programmable logic controller host.

The PLC scans its analog input modules on a fixed cycle, stores readings
in input registers (fixed-point encoded), and executes a control program
that may drive the relay network and update holding registers.  The
coordination node reads those registers in place.
"""

from __future__ import annotations

from collections.abc import Callable

from repro.power.modbus import ModbusError, ModbusSlave
from repro.power.sensors import Transducer
from repro.sim.clock import Clock
from repro.sim.component import Component

ControlProgram = Callable[[Clock, "ProgrammableLogicController"], None]


class AnalogInputModule:
    """One PLC extension module mapping transducers to input registers."""

    def __init__(self, base_address: int, channels: int = 4) -> None:
        if base_address < 0:
            raise ValueError("base_address must be non-negative")
        if channels <= 0:
            raise ValueError("channels must be positive")
        self.base_address = base_address
        self.capacity = channels
        self._channels: list[tuple[int, Transducer, float]] = []
        #: The scan-plan drop of the PLC this module is added to.
        self._on_bind: Callable[[], None] | None = None

    def bind(self, channel: int, transducer: Transducer, scale: float = 100.0) -> None:
        """Wire a transducer to a channel slot."""
        if not 0 <= channel < self.capacity:
            raise ValueError(f"channel {channel} out of range (0..{self.capacity - 1})")
        if any(c == channel for c, _, _ in self._channels):
            raise ValueError(f"channel {channel} already bound")
        self._channels.append((channel, transducer, scale))
        if self._on_bind is not None:
            self._on_bind()


class ProgrammableLogicController(Component):
    """Scan-cycle PLC with analog modules and an optional control program.

    Parameters
    ----------
    name:
        Component name.
    scan_period_s:
        Scan cycle length; readings and program execution happen at this
        cadence, not every simulation tick.
    """

    def __init__(self, name: str = "plc", scan_period_s: float = 0.5) -> None:
        super().__init__(name)
        if scan_period_s <= 0:
            raise ValueError("scan_period_s must be positive")
        self.scan_period_s = scan_period_s
        self.slave = ModbusSlave()
        self.modules: list[AnalogInputModule] = []
        self.program: ControlProgram | None = None
        self._since_scan = float("inf")  # force a scan on the first step
        self.scan_count = 0
        #: Flattened (address, read, scale) scan plan over all modules;
        #: None once a module is added or a channel bound.
        self._scan_plan: tuple[tuple[int, Callable[[], float], float], ...] | None = None

    def add_module(self, module: AnalogInputModule) -> AnalogInputModule:
        for existing in self.modules:
            overlap = range(
                max(existing.base_address, module.base_address),
                min(
                    existing.base_address + existing.capacity,
                    module.base_address + module.capacity,
                ),
            )
            if len(overlap) > 0:
                raise ValueError("analog module register ranges overlap")
        self.modules.append(module)
        module._on_bind = self._drop_scan_plan
        self._scan_plan = None
        return module

    def _drop_scan_plan(self) -> None:
        self._scan_plan = None

    def _build_scan_plan(self) -> tuple[tuple[int, Callable[[], float], float], ...]:
        plan = tuple(
            (module.base_address + channel, transducer.read, scale)
            for module in self.modules
            for channel, transducer, scale in module._channels
        )
        # Validate the (static) register addresses once, so the scan
        # loop can write to the input bank directly.
        for address, _, _ in plan:
            self.slave._check(address, self.slave.input)
        return plan

    def set_program(self, program: ControlProgram) -> None:
        self.program = program

    def step(self, clock: Clock) -> None:
        self._since_scan += clock.dt
        if self._since_scan < self.scan_period_s:
            return
        self._since_scan = 0.0
        self.scan_count += 1
        plan = self._scan_plan
        if plan is None:
            plan = self._scan_plan = self._build_scan_plan()
        # Each reading packed as by repro.power.modbus.encode_fixed,
        # range check included.
        registers = self.slave.input
        for address, read, scale in plan:
            value = read()
            raw = round(value * scale)
            if not -32768 <= raw <= 32767:
                raise ModbusError(f"value {value} does not fit a 16-bit register "
                                  f"at scale {scale}")
            registers[address] = raw & 0xFFFF
        if self.program is not None:
            self.program(clock, self)
