"""Per-run metric collection.

The collector is a trailing component: registered after the plant coupler,
it samples true plant state each tick (it is the experimenter's logger,
not part of the control loop, so it may read the plant directly) and
produces a :class:`RunSummary` with the paper's measurement metrics.
"""

from __future__ import annotations

import statistics
from dataclasses import dataclass
from typing import TYPE_CHECKING

from repro.battery.bank import BatteryBank
from repro.battery.unit import ONLINE_MODES
from repro.cluster.rack import ServerRack
from repro.sim.clock import Clock
from repro.sim.component import Component
from repro.workloads.base import Workload

if TYPE_CHECKING:  # circular at runtime: repro.core imports this module
    from repro.core.controller_base import PowerManager

#: Seconds between the bank-voltage samples behind the voltage sigma.
VOLTAGE_SAMPLE_S = 60.0


@dataclass(frozen=True)
class RunSummary:
    """Everything the paper's tables and figures report about one run."""

    elapsed_s: float
    # Service-related metrics.
    uptime_fraction: float
    throughput_gb_per_hour: float
    mean_delay_minutes: float
    processed_gb: float
    # System-related metrics.
    energy_availability_wh: float
    projected_life_days: float
    perf_per_ah_gb: float
    # Energy accounting (Table 6).
    load_energy_kwh: float
    effective_energy_kwh: float
    solar_energy_kwh: float
    solar_used_kwh: float
    curtailed_kwh: float
    # Battery statistics (Table 6).
    min_battery_voltage: float
    end_battery_voltage: float
    battery_voltage_sigma: float
    total_discharge_ah: float
    discharge_imbalance_ah: float
    # Control activity (Table 6).
    power_ctrl_times: int
    on_off_cycles: int
    vm_ctrl_times: int
    crash_count: int
    dropped_gb: float
    deadline_miss_rate: float

    @property
    def availability_pct(self) -> float:
        return 100.0 * self.uptime_fraction

    @property
    def effective_fraction(self) -> float:
        """Effective energy as a share of total load energy."""
        if self.load_energy_kwh <= 0:
            return 0.0
        return self.effective_energy_kwh / self.load_energy_kwh


class MetricsCollector(Component):
    """Samples the plant every tick; produces a :class:`RunSummary`."""

    def __init__(
        self,
        name: str,
        bank: BatteryBank,
        rack: ServerRack,
        workload: Workload,
        controller: PowerManager,
        plant,
    ) -> None:
        super().__init__(name)
        self.bank = bank
        self.rack = rack
        self.workload = workload
        self.controller = controller
        self.plant = plant
        self._elapsed = 0.0
        self._uptime_s = 0.0
        self._stored_wh_integral = 0.0
        self._load_energy_wh = 0.0
        self._effective_energy_wh = 0.0
        self._checkpoint_energy_wh = 0.0
        self._solar_used_wh = 0.0
        self._min_voltage = float("inf")
        self._voltage_samples: list[float] = []
        self._since_voltage_sample = float("inf")

    def step(self, clock: Clock) -> None:
        dt = clock.dt
        dt_h = dt / 3600.0
        self._elapsed += dt

        # The rack record is rebuilt only if a shed changed the servers
        # since the coupler read its demand this tick.
        rack = self.rack.record
        if rack.running_vms:
            self._uptime_s += dt

        # Energy availability counts *reachable* energy: cabinets on the
        # load bus.  A unified bank parked on the charge bus can absorb no
        # emergency, whatever it stores (paper §6.3).
        online_wh = 0
        for u in self.bank.units:
            if u.mode in ONLINE_MODES:
                online_wh += u.stored_energy_wh
        self._stored_wh_integral += online_wh * dt

        self._load_energy_wh += rack.demand_w * dt_h
        self._effective_energy_wh += rack.effective_w * dt_h
        self._checkpoint_energy_wh += rack.transition_w * dt_h

        report = self.plant.last_report
        if report is not None:
            self._solar_used_wh += (report.solar_to_load_w + report.charge_power_w) * dt_h

        min_v = self._min_voltage
        for u in self.bank.units:
            tv = u.terminal_voltage
            if tv < min_v:
                min_v = tv
        self._min_voltage = min_v
        self._since_voltage_sample += dt
        if self._since_voltage_sample >= VOLTAGE_SAMPLE_S:
            self._since_voltage_sample = 0.0
            self._voltage_samples.append(self.bank.mean_voltage)

    # ------------------------------------------------------------------
    # Cumulative accumulators (read by the obs energy ledger)
    # ------------------------------------------------------------------
    @property
    def load_energy_wh(self) -> float:
        """Wall-side server energy drawn so far (Wh)."""
        return self._load_energy_wh

    @property
    def effective_energy_wh(self) -> float:
        """Energy spent by servers actually running VMs (Wh)."""
        return self._effective_energy_wh

    @property
    def checkpoint_energy_wh(self) -> float:
        """Energy spent booting or checkpoint-saving — power drawn while
        producing no compute (the On/Off cycle overhead of Table 6)."""
        return self._checkpoint_energy_wh

    # ------------------------------------------------------------------
    # Summary
    # ------------------------------------------------------------------
    def summary(self) -> RunSummary:
        if self._elapsed <= 0:
            raise RuntimeError("no samples collected yet")
        elapsed = self._elapsed
        stats = self.workload.stats
        discharge_ah = self.bank.total_discharge_ah()
        life_days = statistics.mean(
            unit.wear.projected_life_days(elapsed) for unit in self.bank
        )
        sigma = (
            statistics.pstdev(self._voltage_samples)
            if len(self._voltage_samples) > 1
            else 0.0
        )
        # The harvest and curtailment totals are the bus's own integrals.
        bus = self.plant.bus
        return RunSummary(
            elapsed_s=elapsed,
            uptime_fraction=self._uptime_s / elapsed,
            throughput_gb_per_hour=stats.throughput_gb_per_hour(elapsed),
            mean_delay_minutes=self.workload.mean_delay_minutes(elapsed),
            processed_gb=stats.processed_gb,
            energy_availability_wh=self._stored_wh_integral / elapsed,
            projected_life_days=life_days,
            perf_per_ah_gb=(stats.processed_gb / discharge_ah) if discharge_ah > 0 else 0.0,
            load_energy_kwh=self._load_energy_wh / 1000.0,
            effective_energy_kwh=self._effective_energy_wh / 1000.0,
            solar_energy_kwh=bus.e_solar_wh / 1000.0,
            solar_used_kwh=self._solar_used_wh / 1000.0,
            curtailed_kwh=bus.e_curtailed_wh / 1000.0,
            min_battery_voltage=self._min_voltage,
            end_battery_voltage=self.bank.mean_voltage,
            battery_voltage_sigma=sigma,
            total_discharge_ah=discharge_ah,
            discharge_imbalance_ah=self.bank.discharge_imbalance(),
            power_ctrl_times=self.controller.power_ctrl_times,
            on_off_cycles=self.rack.total_on_off_cycles(),
            vm_ctrl_times=self.controller.vm_ctrl_times,
            crash_count=stats.crash_count,
            dropped_gb=stats.dropped_gb,
            deadline_miss_rate=stats.deadline_miss_rate,
        )
