"""Power bus: per-tick resolution of solar / battery / server flows.

Order of precedence each tick (matching the prototype's wiring):

1. Solar serves the server load directly (through the DC/DC converter).
2. Any deficit is drawn from the cabinets attached to the load bus,
   split across them in proportion to their deliverable current.
3. Any surplus goes to the charger for the cabinets attached to the
   charge bus; leftover is curtailed.
4. If the online cabinets cannot cover the deficit, the shortfall is
   reported as *unserved* power — the condition that forces emergency
   load shedding upstream.
"""

from __future__ import annotations

from collections.abc import Sequence
from typing import NamedTuple

from repro.battery.bank import BatteryBank
from repro.battery.charger import SolarCharger
from repro.battery.unit import ONLINE_MODES, BatteryMode, BatteryUnit
from repro.power.converters import DCDCConverter
from repro.power.relays import SwitchNetwork


class BusReport(NamedTuple):
    """Outcome of one bus resolution tick (all in watts at the PV bus).

    A named tuple, built once per tick: constructing one costs well under
    half of a frozen slotted dataclass's per-field ``__setattr__``.
    """

    demand_w: float
    solar_available_w: float
    solar_to_load_w: float
    battery_to_load_w: float
    unserved_w: float
    charge_power_w: float
    curtailed_w: float


#: Controller modes that put a cabinet on each bus, for a bus built
#: without a switch network.
_BUS_MODES = {"load": ONLINE_MODES, "charge": (BatteryMode.CHARGING,)}


class PowerBus:
    """Resolves power flows between the solar field, e-Buffer and servers."""

    def __init__(
        self,
        bank: BatteryBank,
        charger: SolarCharger | None = None,
        converter: DCDCConverter | None = None,
        switchnet: SwitchNetwork | None = None,
    ) -> None:
        """With a ``switchnet``, bus attachment follows the *relay*
        contacts — the electrical truth — so a stuck relay overrides
        whatever mode the controller believes a cabinet is in.  Without
        one, controller modes are trusted directly (unit-test shortcut).
        """
        self.bank = bank
        self.charger = charger or SolarCharger()
        self.converter = converter or DCDCConverter()
        self.switchnet = switchnet
        self.last_report = BusReport(0, 0, 0, 0, 0, 0, 0)
        self._units_by_name = {unit.name: unit for unit in bank}
        #: bus -> (the switch network's name tuple, its units), remapped
        #: only when the network hands out a new tuple.
        self._bus_units: dict[str, tuple[tuple[str, ...], tuple[BatteryUnit, ...]]] = {
            "load": ((), ()), "charge": ((), ()),
        }
        #: Cumulative energy accounting (Wh at the PV bus unless noted).
        #: Pure bookkeeping read by the obs energy ledger — nothing feeds
        #: back into the resolution, so same-seed traces are unaffected.
        self.e_solar_wh = 0.0
        self.e_solar_to_load_wh = 0.0
        self.e_battery_to_load_wh = 0.0
        self.e_unserved_wh = 0.0
        self.e_charge_bus_wh = 0.0
        #: Charge energy measured at the battery terminals (after charger
        #: conversion and per-string overhead; float trickle approximated
        #: at the charger's conversion efficiency).
        self.e_charge_terminal_wh = 0.0
        self.e_curtailed_wh = 0.0
        #: Bus-side server demand (wall demand through the DC/DC converter).
        self.e_demand_bus_wh = 0.0
        #: Wall-side server demand as requested from the bus.
        self.e_server_wall_wh = 0.0

    def _units_on(self, bus: str) -> Sequence[BatteryUnit]:
        """The cabinets attached to ``bus`` (``"load"`` or ``"charge"``)."""
        if self.switchnet is None:
            return self.bank.in_mode(*_BUS_MODES[bus])
        names = self.switchnet.on_bus(bus)
        mapped, units = self._bus_units[bus]
        if names is not mapped:
            units = tuple(self._units_by_name[n] for n in names)
            self._bus_units[bus] = (names, units)
        return units

    def resolve(
        self,
        solar_w: float,
        server_demand_w: float,
        dt_seconds: float,
        float_standby: bool = True,
    ) -> BusReport:
        """Resolve one tick of power flow; steps every battery exactly once."""
        if solar_w < 0:
            raise ValueError("solar_w must be non-negative")
        if server_demand_w < 0:
            raise ValueError("server_demand_w must be non-negative")

        demand_bus = self.converter.input_for(server_demand_w) if server_demand_w > 0 else 0.0

        solar_to_load = min(solar_w, demand_bus)
        deficit = demand_bus - solar_to_load
        surplus = solar_w - solar_to_load

        # --- Discharge path -------------------------------------------------
        discharging = self._units_on("load")
        battery_to_load = 0.0
        touched: set[BatteryUnit] = set()
        if deficit > 0 and discharging:
            battery_to_load = self._discharge(discharging, deficit, dt_seconds)
            touched.update(discharging)
        unserved = max(0.0, deficit - battery_to_load)

        # --- Charge path ----------------------------------------------------
        charging = self._units_on("charge")
        charge_power = 0.0
        charge_terminal = 0.0
        if charging:
            result = self.charger.step(charging, surplus, dt_seconds)
            charge_power = result.power_used_w
            charge_terminal = result.terminal_power_w
            touched.update(charging)
        curtailed = max(0.0, surplus - charge_power)

        # --- Float / idle ---------------------------------------------------
        for unit in self.bank.units:
            if unit in touched:
                continue
            if float_standby and unit.mode is BatteryMode.STANDBY and curtailed > 1.0:
                used = self.charger.float_step([unit], dt_seconds)
                take = min(used, curtailed)
                curtailed -= take
                charge_power += take
                charge_terminal += take * self.charger.efficiency
            else:
                unit.idle(dt_seconds)

        dt_h = dt_seconds / 3600.0
        self.e_solar_wh += solar_w * dt_h
        self.e_solar_to_load_wh += solar_to_load * dt_h
        self.e_battery_to_load_wh += battery_to_load * dt_h
        self.e_unserved_wh += unserved * dt_h
        self.e_charge_bus_wh += charge_power * dt_h
        self.e_charge_terminal_wh += charge_terminal * dt_h
        self.e_curtailed_wh += curtailed * dt_h
        self.e_demand_bus_wh += demand_bus * dt_h
        self.e_server_wall_wh += server_demand_w * dt_h

        self.last_report = BusReport(
            demand_w=demand_bus,
            solar_available_w=solar_w,
            solar_to_load_w=solar_to_load,
            battery_to_load_w=battery_to_load,
            unserved_w=unserved,
            charge_power_w=charge_power,
            curtailed_w=curtailed,
        )
        return self.last_report

    def _discharge(
        self,
        units: Sequence[BatteryUnit],
        deficit_w: float,
        dt_seconds: float,
    ) -> float:
        """Split ``deficit_w`` across parallel units by deliverable current."""
        capabilities = []
        total_capability = 0.0
        for unit in units:
            amps = unit.max_discharge_current(dt_seconds)
            volts = unit.terminal_voltage
            watts = amps * volts
            capabilities.append((unit, amps, volts, watts))
            total_capability += watts
        if total_capability <= 0.0:
            for unit in units:
                unit.idle(dt_seconds)
            return 0.0

        target = min(deficit_w, total_capability)
        delivered = 0.0
        for unit, amps, volts, watts in capabilities:
            share_w = target * (watts / total_capability)
            if share_w <= 0.0 or volts <= 0.0:
                unit.idle(dt_seconds)
                continue
            request_amps = min(share_w / volts, amps)
            got_amps = unit.apply_discharge(request_amps, dt_seconds)
            delivered += got_amps * volts
        return delivered
