"""Power-delivery substrate: the path from PV bus to server PSUs.

Models the prototype's electrical plumbing: IDEC relay pairs and the
reconfigurable switch network, CR Magnetics voltage/current transducers
sampled by Siemens PLC analog modules into a Modbus-style register map,
DC/DC conversion losses, and the power bus that resolves solar / battery /
server flows every tick.

Controllers never touch the true plant state directly: they read sensed,
quantised values from the PLC's input registers, read in place, as the
prototype's coordination node read them over Modbus.
"""

from repro.power.bus import BusReport, PowerBus
from repro.power.converters import DCDCConverter, PowerDistributionUnit
from repro.power.modbus import ModbusError, ModbusSlave
from repro.power.plc import AnalogInputModule, ProgrammableLogicController
from repro.power.relays import Relay, RelayPair, SwitchNetwork
from repro.power.secondary import DieselGenerator, HybridSource
from repro.power.sensors import CurrentTransducer, VoltageTransducer

__all__ = [
    "AnalogInputModule",
    "BusReport",
    "CurrentTransducer",
    "DCDCConverter",
    "DieselGenerator",
    "HybridSource",
    "ModbusError",
    "ModbusSlave",
    "PowerBus",
    "PowerDistributionUnit",
    "ProgrammableLogicController",
    "Relay",
    "RelayPair",
    "SwitchNetwork",
    "VoltageTransducer",
]
