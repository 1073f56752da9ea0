"""PLC-resident battery switching program.

Figure 12 of the paper shows a three-tier hierarchy: the coordination
node decides *policy*, but the battery switching itself is executed by
the Siemens PLC, which owns the relay network and the raw sensor
registers.  This module is that bottom tier: the coordinator writes a
requested bus attachment per cabinet into holding registers, and the
PLC's scan cycle applies them through local safety interlocks:

* **Break-before-make** — moving a cabinet between the charge and load
  buses passes through an open state for one scan, so the two buses are
  never bridged through a cabinet.
* **Low-voltage lockout** — a request to put a cabinet on the load bus is
  refused while its sensed terminal voltage sits at/below the LVD
  threshold; the coordinator's request stays pending until the cabinet
  recovers.

The electrical truth always follows the relays (see
:class:`repro.power.bus.PowerBus`), so a coordinator bug cannot bypass
these interlocks.
"""

from __future__ import annotations

from repro.power.modbus import decode_fixed
from repro.power.relays import SwitchNetwork
from repro.sim.clock import Clock
from repro.power.plc import ProgrammableLogicController

#: Holding-register encoding of the requested bus.
BUS_CODES = {"offline": 0, "charge": 1, "load": 2}
_CODE_TO_BUS = {code: bus for bus, code in BUS_CODES.items()}

#: Holding registers for requests start here (input regs hold sensors).
REQUEST_BASE_ADDRESS = 100


class BatterySwitchProgram:
    """The PLC control program driving the relay network.

    Parameters
    ----------
    switchnet:
        Relay network to actuate.
    battery_names:
        Cabinet order; cabinet *i*'s request register is
        ``REQUEST_BASE_ADDRESS + i``.
    v_cutoff:
        LVD threshold for the load-bus lockout.
    regs_per_battery:
        Input-register stride of the sensing layout (voltage first).
    """

    def __init__(
        self,
        switchnet: SwitchNetwork,
        battery_names: list[str],
        v_cutoff: float = 23.3,
        regs_per_battery: int = 2,
    ) -> None:
        if not battery_names:
            raise ValueError("need at least one battery")
        self.switchnet = switchnet
        self.battery_names = list(battery_names)
        self.v_cutoff = v_cutoff
        self.regs_per_battery = regs_per_battery
        #: Cabinets mid-way through a break-before-make sequence.
        self._pending: dict[str, str] = {}
        self.lockout_refusals = 0

    # ------------------------------------------------------------------
    # Coordinator-side API
    # ------------------------------------------------------------------
    def request(self, plc: ProgrammableLogicController, battery_name: str,
                bus: str) -> None:
        """Write a bus request into the PLC's holding registers."""
        if bus not in BUS_CODES:
            raise ValueError(f"unknown bus {bus!r}")
        index = self._index(battery_name)
        plc.slave.set_holding(REQUEST_BASE_ADDRESS + index, BUS_CODES[bus])

    def requested_bus(self, plc: ProgrammableLogicController,
                      battery_name: str) -> str:
        index = self._index(battery_name)
        code = plc.slave.get_holding(REQUEST_BASE_ADDRESS + index)
        try:
            return _CODE_TO_BUS[code]
        except KeyError:
            raise ValueError(f"corrupt request register: {code}") from None

    def _index(self, battery_name: str) -> int:
        try:
            return self.battery_names.index(battery_name)
        except ValueError:
            raise KeyError(f"unknown battery {battery_name!r}") from None

    # ------------------------------------------------------------------
    # PLC scan-cycle body
    # ------------------------------------------------------------------
    def __call__(self, clock: Clock, plc: ProgrammableLogicController) -> None:
        for index, name in enumerate(self.battery_names):
            target = self.requested_bus(plc, name)
            current = self.switchnet.state_of(name)
            current_bus = {"charging": "charge", "load": "load",
                           "offline": "offline"}[current]
            if target == current_bus:
                self._pending.pop(name, None)
                continue

            # Low-voltage lockout for the load bus.
            if target == "load":
                voltage = self._sensed_voltage(plc, index)
                if voltage <= self.v_cutoff:
                    self.lockout_refusals += 1
                    continue

            # Break-before-make: bus-to-bus moves pass through offline.
            if target != "offline" and current_bus != "offline":
                self.switchnet.attach(name, "offline")
                self._pending[name] = target
                continue

            self.switchnet.attach(name, target)
            self._pending.pop(name, None)

    def _sensed_voltage(self, plc: ProgrammableLogicController,
                        index: int) -> float:
        register = plc.slave.input[index * self.regs_per_battery]
        return decode_fixed(register)
