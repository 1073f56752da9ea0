"""Battery sensing and state estimation.

The controller's view of the plant, built the way the prototype built it:
each cabinet's voltage and current transducers are scanned by PLC analog
modules into input registers; the coordination node reads the registers in
place and maintains per-battery estimates — coulomb-counted state of charge
(re-anchored from open-circuit voltage when the cabinet has rested) and the
aggregated discharge statistic AhT[i] that drives the spatial manager's
screening (Figure 9).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial

from repro.battery.bank import BatteryBank
from repro.battery.voltage import EMF_EXPONENT
from repro.power.modbus import ModbusError
from repro.power.plc import AnalogInputModule, ProgrammableLogicController
from repro.power.sensors import CurrentTransducer, VoltageTransducer
from repro.sim.rng import RandomStreams

#: Register layout: two registers per battery (voltage, current).
_REGS_PER_BATTERY = 2
V_SCALE = 100.0   # 0.01 V resolution
I_SCALE = 100.0   # 0.01 A resolution
#: PLC analog scan period (s).
PLC_SCAN_PERIOD_S = 0.5
#: Current magnitude (A) below which a cabinet counts as resting.
REST_AMPS = 0.25
#: Rest (s) before the OCV re-anchors the SoC estimate, and the OCV's weight.
OCV_REST_S = 300.0
OCV_WEIGHT = 0.1


@dataclass
class BatterySense:
    """Sensed and estimated state of one cabinet."""

    name: str
    voltage: float = 0.0
    current: float = 0.0  # positive = discharging
    soc_estimate: float = 1.0
    discharge_ah: float = 0.0  # the SPM usage statistic AhT[i]
    rest_seconds: float = 0.0


class BatteryTelemetry:
    """Sensing chain: transducers -> PLC registers -> estimates."""

    def __init__(
        self,
        bank: BatteryBank,
        plc: ProgrammableLogicController | None = None,
        streams: RandomStreams | None = None,
        initial_soc_known: bool = True,
        gain_error: float = 0.0,
    ) -> None:
        """``gain_error`` injects an uncalibrated-sensor fault: every
        transducer reads consistently high/low by that fraction."""
        self.bank = bank
        self.plc = plc or ProgrammableLogicController(scan_period_s=PLC_SCAN_PERIOD_S)
        streams = streams or RandomStreams(0)
        #: Every transducer in register order, for fault injection
        #: (:meth:`set_gain_error`) without rebuilding the chain.
        self._sensors: list[VoltageTransducer | CurrentTransducer] = []

        for index, unit in enumerate(bank):
            module = AnalogInputModule(
                base_address=index * _REGS_PER_BATTERY, channels=_REGS_PER_BATTERY
            )
            rng_v = streams.stream(f"sense.{unit.name}.v")
            rng_i = streams.stream(f"sense.{unit.name}.i")
            # The true values are read through C-level partials, not
            # lambdas: a scan then adds no Python frame per channel.
            v_sensor = VoltageTransducer(partial(getattr, unit, "terminal_voltage"),
                                         rng=rng_v)
            i_sensor = CurrentTransducer(partial(getattr, unit, "last_current"),
                                         rng=rng_i)
            v_sensor.gain = 1.0 + gain_error
            i_sensor.gain = 1.0 + gain_error
            module.bind(0, v_sensor, V_SCALE)
            module.bind(1, i_sensor, I_SCALE)
            self._sensors.extend((v_sensor, i_sensor))
            self.plc.add_module(module)

        self.senses = {
            unit.name: BatterySense(
                name=unit.name,
                soc_estimate=unit.soc if initial_soc_known else 1.0,
            )
            for unit in bank
        }
        #: (unit, sense) pairs in register order, for the refresh hot loop.
        self._rows = [(unit, self.senses[unit.name]) for unit in bank]

    def set_gain_error(self, gain_error: float) -> None:
        """Recalibrate every transducer to read off by ``gain_error``.

        The supported fault-injection path
        (:class:`repro.core.faults.SensorGainFault`): noise streams,
        register bindings and estimator state all stay in place.
        """
        for sensor in self._sensors:
            sensor.gain = 1.0 + gain_error

    # ------------------------------------------------------------------
    # Estimation
    # ------------------------------------------------------------------
    def refresh(self, dt_seconds: float) -> dict[str, BatterySense]:
        """Read all registers and update estimates for one control period.

        Per cabinet: decode the voltage and current registers (the
        register codec of :func:`repro.power.modbus.decode_fixed`), then
        coulomb-count the SoC estimate and the discharge statistic AhT[i],
        and re-anchor the estimate from open-circuit voltage after a
        sustained rest -- the standard lead-acid practice: OCV is a
        reliable SoC proxy only at equilibrium, where head ~= SoC, so the
        EMF curve is inverted there.
        """
        if dt_seconds <= 0:
            raise ValueError("dt_seconds must be positive")
        registers = self.plc.slave.input
        base = 0
        for unit, sense in self._rows:
            v_reg = registers[base]
            i_reg = registers[base + 1]
            if not (0 <= v_reg <= 0xFFFF and 0 <= i_reg <= 0xFFFF):
                raise ModbusError(f"register value out of range: {v_reg}, {i_reg}")
            voltage = (v_reg - 0x10000 if v_reg >= 0x8000 else v_reg) / V_SCALE
            current = (i_reg - 0x10000 if i_reg >= 0x8000 else i_reg) / I_SCALE
            sense.voltage = voltage
            sense.current = current
            base += _REGS_PER_BATTERY

            delta_ah = current * dt_seconds / 3600.0
            estimate = sense.soc_estimate - delta_ah / unit.params.capacity_ah
            if estimate < 0.0:
                estimate = 0.0
            elif estimate > 1.0:
                estimate = 1.0
            sense.soc_estimate = estimate
            if current > REST_AMPS:
                sense.discharge_ah += delta_ah

            if -REST_AMPS < current < REST_AMPS:
                sense.rest_seconds += dt_seconds
                if sense.rest_seconds >= OCV_REST_S:
                    p = unit.params.voltage
                    frac = (voltage - p.emf_empty) / (p.emf_full - p.emf_empty)
                    if frac < 0.0:
                        frac = 0.0
                    elif frac > 1.0:
                        frac = 1.0
                    ocv_soc = frac ** (1.0 / EMF_EXPONENT)
                    sense.soc_estimate = ((1.0 - OCV_WEIGHT) * estimate
                                          + OCV_WEIGHT * ocv_soc)
            else:
                sense.rest_seconds = 0.0
        return self.senses

    # ------------------------------------------------------------------
    # Aggregates the controllers use
    # ------------------------------------------------------------------
    def total_discharge_current(self, names: list[str] | None = None) -> float:
        selected = names if names is not None else list(self.senses)
        return sum(max(0.0, self.senses[n].current) for n in selected)

    def min_soc(self, names: list[str]) -> float:
        if not names:
            return 0.0
        return min(self.senses[n].soc_estimate for n in names)

    def sense(self, name: str) -> BatterySense:
        try:
            return self.senses[name]
        except KeyError:
            raise KeyError(f"no telemetry for battery {name!r}") from None
