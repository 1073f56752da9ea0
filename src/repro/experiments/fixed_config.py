"""Fixed-configuration energy-budget runs (Tables 2 and 3).

The paper's §2.3 motivation experiments hold the VM count fixed and give
every configuration the same stored-energy budget (2 kWh), then measure
availability, throughput and delay.  A minimal protection controller is
used: when a cabinet's loaded voltage approaches the LVD, the servers are
checkpointed and the system rests until the recovery effect lifts the
voltage back, then restarts — mirroring the prototype's emergency
handling without any spatio-temporal optimisation.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.battery.bank import BatteryBank
from repro.battery.charger import SolarCharger
from repro.battery.unit import BatteryMode
from repro.cluster.allocator import NodeAllocator
from repro.cluster.rack import ServerRack
from repro.power.bus import PowerBus
from repro.sim.clock import Clock
from repro.workloads.base import Workload

#: Default experiment energy budget (Tables 2 and 3).
BUDGET_KWH = 2.0


@dataclass
class FixedConfigResult:
    """Outcome of one fixed-VM-count budget run."""

    vm_count: int
    avg_power_w: float
    availability: float
    throughput_gb_per_hour: float
    mean_delay_minutes: float
    processed_gb: float
    elapsed_h: float
    protection_stops: int


def run_fixed_config(
    workload: Workload,
    vm_count: int,
    budget_kwh: float = BUDGET_KWH,
    solar_w: float = 0.0,
    dt: float = 5.0,
    max_hours: float = 12.0,
    battery_count: int = 3,
) -> FixedConfigResult:
    """Run ``workload`` at a fixed VM count until the budget is spent."""
    if vm_count < 1:
        raise ValueError("vm_count must be >= 1")
    if budget_kwh <= 0:
        raise ValueError("budget_kwh must be positive")

    bank = BatteryBank.build(count=battery_count, soc=1.0)
    # Scale initial charge so the bank holds exactly the budget.
    start_soc = min(1.0, budget_kwh * 1000.0 / bank.capacity_wh)
    for unit in bank:
        unit.kibam.set_soc(start_soc)
        unit.set_mode(BatteryMode.DISCHARGING)
    bus = PowerBus(bank, charger=SolarCharger())

    rack = ServerRack("rack", server_count=4)
    allocator = NodeAllocator(rack, cpu_share=workload.cpu_share)
    allocator.set_target(vm_count)

    clock = Clock(dt=dt, start_hour=8.0)
    cutoff = bank[0].params.voltage.v_cutoff
    serving_s = 0.0
    power_integral = 0.0
    protection_stops = 0
    resting = False
    rest_elapsed = 0.0

    while clock.t < max_hours * 3600.0:
        rack.step(clock)
        demand = rack.demand_w
        report = bus.resolve(solar_w, demand, dt)

        compute = rack.last_compute_seconds
        if report.unserved_w > 5.0:
            rack.emergency_shed()
            workload.on_crash()
            compute = 0.0
        workload.step(clock.t, dt, compute)

        if rack.serving():
            serving_s += dt
            power_integral += demand * dt

        min_loaded_v = min(u.terminal_voltage for u in bank)
        if not resting and min_loaded_v <= cutoff + 0.1 and demand > solar_w:
            # Protection: checkpoint, rest, wait for recovery.
            workload.checkpoint_all()
            allocator.set_target(0)
            rack.graceful_stop_all()
            protection_stops += 1
            resting = True
            rest_elapsed = 0.0
            # If even the fully-equalised OCV cannot reach the restart
            # threshold, the remaining charge is stranded by the
            # rate-capacity effect: the usable budget is exhausted.
            equalised = min(
                u.voltage_model.emf(u.soc) for u in bank
            )
            if equalised < cutoff + 0.8:
                break
        elif resting:
            rest_elapsed += dt
            rested_v = min(u.open_circuit_voltage for u in bank)
            if rested_v >= cutoff + 0.8:
                allocator.set_target(vm_count)
                resting = False
            elif rest_elapsed > 2700.0 or bank.mean_soc < 0.12:
                # Recovery has plateaued below the restart threshold: the
                # usable budget is exhausted.
                break
        if bank.mean_soc < 0.08:
            break

        clock.advance()

    elapsed_h = clock.t / 3600.0
    stats = workload.stats
    return FixedConfigResult(
        vm_count=vm_count,
        avg_power_w=power_integral / serving_s if serving_s > 0 else 0.0,
        availability=serving_s / clock.t if clock.t > 0 else 0.0,
        throughput_gb_per_hour=stats.processed_gb / elapsed_h if elapsed_h > 0 else 0.0,
        mean_delay_minutes=stats.mean_delay_minutes,
        processed_gb=stats.processed_gb,
        elapsed_h=elapsed_h,
        protection_stops=protection_stops,
    )


def run_energy_window(
    workload: Workload,
    vm_count: int,
    budget_kwh: float = BUDGET_KWH,
    dt: float = 5.0,
    battery_count: int = 6,
) -> FixedConfigResult:
    """Run at a fixed VM count until the load has consumed ``budget_kwh``.

    Table 3's framing: every configuration gets the same energy, so a
    lighter configuration runs proportionally longer.  A six-cabinet bank
    provides enough headroom that the configuration itself (not battery
    protection) is what's being measured.
    """
    if vm_count < 1:
        raise ValueError("vm_count must be >= 1")
    if budget_kwh <= 0:
        raise ValueError("budget_kwh must be positive")

    bank = BatteryBank.build(count=battery_count, soc=1.0)
    for unit in bank:
        unit.set_mode(BatteryMode.DISCHARGING)
    bus = PowerBus(bank, charger=SolarCharger())
    rack = ServerRack("rack", server_count=4)
    allocator = NodeAllocator(rack, cpu_share=workload.cpu_share)
    allocator.set_target(vm_count)

    clock = Clock(dt=dt, start_hour=8.0)
    serving_s = 0.0
    power_integral_wh = 0.0
    power_while_serving = 0.0
    warm = False

    while power_integral_wh < budget_kwh * 1000.0 and clock.t < 24 * 3600.0:
        rack.step(clock)
        demand = rack.demand_w
        report = bus.resolve(0.0, demand, dt)
        compute = rack.last_compute_seconds
        if report.unserved_w > 5.0:
            rack.emergency_shed()
            workload.on_crash()
            compute = 0.0
        # Warm start: data only begins arriving once the cluster serves,
        # so the boot transient does not pollute the delay measurement.
        if not warm and rack.serving():
            warm = True
        if warm:
            workload.step(clock.t, dt, compute)
            power_integral_wh += demand * dt / 3600.0
        if rack.serving():
            serving_s += dt
            power_while_serving += demand * dt
        clock.advance()

    elapsed_h = clock.t / 3600.0
    stats = workload.stats
    return FixedConfigResult(
        vm_count=vm_count,
        avg_power_w=power_while_serving / serving_s if serving_s > 0 else 0.0,
        availability=serving_s / clock.t if clock.t > 0 else 0.0,
        throughput_gb_per_hour=stats.processed_gb / elapsed_h if elapsed_h > 0 else 0.0,
        mean_delay_minutes=stats.mean_delay_minutes,
        processed_gb=stats.processed_gb,
        elapsed_h=elapsed_h,
        protection_stops=0,
    )
