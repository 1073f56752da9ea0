"""The InSURE controller: joint spatio-temporal power management.

Every fine-grained period the temporal policy (Figure 11) caps discharge
current and protects SoC; every coarse period the spatial policy (Figures
9-10) rebalances which cabinets charge, rest or serve.  Between the two,
the controller performs power-aware load matching: the VM target follows
what the solar EMA plus the *safe* battery power can sustain, and server
restarts happen as soon as charged cabinets come back online.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

from repro.battery.unit import BatteryMode
from repro.core.controller_base import PowerManager
from repro.core.spatial import SpatialParams, SpatialPolicy
from repro.core.temporal import TemporalAction, TemporalParams, TemporalPolicy
from repro.sim.clock import Clock

#: Rack demand (W) each additional reserve cabinet covers.
RESERVE_STEP_W = 500.0


@dataclass
class InsureParams:
    """All InSURE tuning knobs in one place."""

    tpm_interval_s: float = 30.0
    spm_interval_s: float = 300.0
    spatial: SpatialParams = field(default_factory=SpatialParams)
    temporal: TemporalParams = field(default_factory=TemporalParams)
    #: Margin (in SoC) above the floor a cabinet needs to count as usable.
    usable_margin: float = 0.05
    #: Minimum VMs worth restarting the cluster for.
    min_restart_vms: int = 2
    #: Keep at least this many usable cabinets on the load bus while the
    #: cluster serves — the buffer is the shock absorber for cloud
    #: transients ("maintain a favorable amount of usable online battery
    #: units", paper §3.4).  The reconfigurable buffer makes this possible
    #: even while other cabinets charge.
    min_online_units: int = 1
    #: Derating applied to the solar EMA when sizing load (cloud margin).
    solar_margin: float = 0.9
    #: Minimum seconds between successive VM-count *increases*.  Every
    #: scale-up risks a 15-minute On/Off cycle later, so upscaling is
    #: heavily damped; safety downscaling (CAP) is never delayed.
    upscale_holdoff_s: float = 600.0
    #: Minimum seconds between sizing-driven (non-safety) downscales.
    downscale_holdoff_s: float = 180.0
    #: Minimum seconds between VM-count reconfigurations of a *batch*
    #: (duty-actuated) workload; batch reconfiguration means checkpointing
    #: VMs and resuming with a different instance count, so it is rare.
    batch_reconfig_holdoff_s: float = 900.0
    #: Restart back-off after an uncontrolled power loss.
    crash_backoff_s: float = 420.0


class InsureController(PowerManager):
    """Joint spatio-temporal power manager (the paper's design)."""

    def __init__(self, *args: Any, params: InsureParams | None = None,
                 **kwargs: Any) -> None:
        super().__init__(*args, **kwargs)
        self.params = params or InsureParams()
        capacity = self.bank[0].params.capacity_ah
        self.spatial = SpatialPolicy(self.params.spatial)
        self.temporal = TemporalPolicy(self.params.temporal, capacity_ah=capacity)
        self._tpm_elapsed = float("inf")
        self._spm_elapsed = float("inf")
        self._since_upscale = float("inf")
        self._since_downscale = float("inf")
        self._since_batch_reconfig = float("inf")
        self._since_crash = float("inf")
        self._seen_crashes = 0
        #: Units awaiting protective switch-out once the servers finish
        #: saving state (pulling them mid-save would destroy the very
        #: checkpoint the stop was for).
        self._protect_pending: set[str] = set()
        self.duty = 1.0
        self.vm_target = 0
        self.checkpoint_stops = 0

    @property
    def discharge_cap_amps(self) -> float | None:
        """The TPM's safe total discharge current for the online cabinets
        (Figure 11's current cap; ``None`` while nothing is online)."""
        online = len(self.online_units())
        if online == 0:
            return None
        return self.temporal.cap_amps(online)

    # ------------------------------------------------------------------
    # Component lifecycle
    # ------------------------------------------------------------------
    def start(self, clock: Clock) -> None:
        # Units above the charge-to level start online; empty ones offline.
        for unit in self.bank:
            sense = self.telemetry.sense(unit.name)
            if sense.soc_estimate >= self.params.spatial.charge_to_soc:
                unit.set_mode(BatteryMode.STANDBY)
                self.switchnet.attach(unit.name, "load")
            else:
                unit.set_mode(BatteryMode.OFFLINE)
                self.switchnet.attach(unit.name, "offline")

    def step(self, clock: Clock) -> None:
        # Sub-spans open only on the tracer's sampled ticks.
        tracer = self.tracer
        sampling = tracer.sampling
        if sampling:
            tracer.push("controller.sense")
        self.telemetry.plc.step(clock)
        self.telemetry.refresh(clock.dt)
        self._update_solar_ema(clock.dt)
        if sampling:
            tracer.pop()

        self._tpm_elapsed += clock.dt
        if self._tpm_elapsed >= self.params.tpm_interval_s:
            self._tpm_elapsed = 0.0
            if sampling:
                tracer.push("controller.decide.tpm")
            self._temporal_period(clock)
            if sampling:
                tracer.pop()

        self._spm_elapsed += clock.dt
        if self._spm_elapsed >= self.params.spm_interval_s:
            self._spm_elapsed = 0.0
            if sampling:
                tracer.push("controller.decide.spm")
            self._spatial_period(clock)
            if sampling:
                tracer.pop()

        # Policy overlays (carbon/price/SoC caps) run last so their
        # limits bound whatever the TPM/SPM periods just decided.
        self._step_policies(clock)

    # ------------------------------------------------------------------
    # TPM (fine-grained)
    # ------------------------------------------------------------------
    def _temporal_period(self, clock: Clock) -> None:
        t = clock.t
        self._since_upscale += self.params.tpm_interval_s
        self._since_downscale += self.params.tpm_interval_s
        self._since_batch_reconfig += self.params.tpm_interval_s
        self._since_crash += self.params.tpm_interval_s
        crashes = sum(server.crashes for server in self.rack.servers)
        if crashes > self._seen_crashes:
            self._seen_crashes = crashes
            self._since_crash = 0.0
            self.vm_target = 0
            self.allocator.set_target(0)
            self.decisions.record(t, "vm.target", self.name, target=0,
                                  reason="crash-backoff")
        self._ensure_online_reserve(t)
        online = self.online_units()
        online_names = [u.name for u in online]
        battery_needed = self.battery_needed()

        decision = self.temporal.evaluate(
            total_discharge_a=self.telemetry.total_discharge_current(online_names),
            online_units=len(online),
            min_online_soc=self.telemetry.min_soc(online_names) if online else 0.0,
            battery_needed=battery_needed,
        )

        if decision.action is TemporalAction.CHECKPOINT:
            if not self._protect_pending:
                self.checkpoint_and_stop(t, reason="soc-floor")
                self.checkpoint_stops += 1
                self.vm_target = 0
                # Keep the cabinets on the load bus until the save
                # completes; they are switched out in _drain_protect.
                self._protect_pending.update(u.name for u in online)
        else:
            self._match_load(decision.action, t)
        self._drain_protect(t)

        self._mode_bookkeeping(t, battery_needed)
        self._maybe_restart(t)
        # Keep allocation converging after saves/boots complete.
        if not self.allocator.running_matches_target():
            self.allocator.sync()

    def _drain_protect(self, t: float) -> None:
        """Complete deferred protective switch-outs once servers are off."""
        if not self._protect_pending:
            return
        if self.rack.active_servers():
            return
        for name in sorted(self._protect_pending):
            unit = self.bank.by_name(name)
            if unit.mode in (BatteryMode.STANDBY, BatteryMode.DISCHARGING):
                reason = (
                    "soc-floor" if unit.mode is BatteryMode.DISCHARGING
                    else "protect"
                )
                self.transition(unit, BatteryMode.OFFLINE, reason, t)
        self._protect_pending.clear()

    def _ensure_online_reserve(self, t: float) -> None:
        """Keep ``min_online_units`` usable cabinets on the load bus.

        The reconfigurable buffer lets InSURE map a fraction of the stored
        energy to the servers while the rest charges, so the load side is
        never one cloud away from a brown-out.
        """
        floor = self.params.temporal.soc_floor + self.params.usable_margin
        # Reserve scales with the load the buffer may need to absorb.
        want = max(
            self.params.min_online_units,
            min(len(self.bank), int(self.rack.demand_w // RESERVE_STEP_W) + 1),
        )
        if len(self.usable_online_units(floor)) >= want:
            return
        candidates = self.bank.in_mode(BatteryMode.OFFLINE, BatteryMode.CHARGING)
        candidates = [
            u for u in candidates
            if self.telemetry.sense(u.name).soc_estimate > floor + self.params.usable_margin
        ]
        candidates.sort(
            key=lambda u: self.telemetry.sense(u.name).soc_estimate, reverse=True
        )
        for unit in candidates[: want - len(self.usable_online_units(floor))]:
            if unit.mode is BatteryMode.CHARGING:
                self.transition(unit, BatteryMode.STANDBY, "reserve", t)
            else:
                self.transition(unit, BatteryMode.CHARGING, "reserve-stage", t)
                self.transition(unit, BatteryMode.STANDBY, "reserve", t)

    def _safe_battery_power(self) -> float:
        usable = self.usable_online_units(
            self.params.temporal.soc_floor + self.params.usable_margin
        )
        return sum(
            self.temporal.cap_amps(1) * u.params.nominal_voltage for u in usable
        )

    def _sizing_target(self) -> int:
        """VM count the derated solar plus safe battery power sustains.

        Sizing commits servers for many minutes (boot + save overheads),
        so it uses the slow solar EMA, not the instantaneous budget.
        """
        supportable = (
            self.solar_ema_slow_w * self.params.solar_margin
            + self._safe_battery_power()
        )
        return max(0, min(self.workload.preferred_vms,
                          int(supportable // self.per_vm_w)))

    def _match_load(self, action: TemporalAction, t: float) -> None:
        """Power-aware load matching via duty cycle or VM scaling."""
        cap_target = self._sizing_target()

        if getattr(self.workload, "actuation", "vms") == "duty":
            # Batch jobs: modulate DVFS first; reconfigure the VM count
            # only rarely (checkpoint + resume with different instances).
            new_duty = self.temporal.next_duty(self.duty, action)
            if new_duty != self.duty:
                self.decisions.record(t, "dvfs.duty", self.name,
                                      from_duty=self.duty, to_duty=new_duty,
                                      action=action.name.lower())
                self.duty = new_duty
                self.rack.set_duty(new_duty)
            if (
                action is TemporalAction.RELAX
                and self.duty >= 1.0
                and cap_target >= self.vm_target + 2
                and self._since_batch_reconfig >= self.params.batch_reconfig_holdoff_s
            ):
                self._since_batch_reconfig = 0.0
                self.vm_target = cap_target
                self.allocator.set_target(cap_target)
                self.decisions.record(t, "vm.target", self.name,
                                      target=cap_target,
                                      reason="batch-upscale")
            elif (
                action is TemporalAction.CAP
                and self.duty <= self.params.temporal.duty_min
                and self.vm_target > self.params.temporal.vm_step
                and self._since_batch_reconfig >= self.params.batch_reconfig_holdoff_s
            ):
                # Duty floor reached and the buffer is still over-drawn:
                # shed a machine (checkpointing its VMs) instead of dying.
                self._since_batch_reconfig = 0.0
                self.vm_target -= self.params.temporal.vm_step
                self.allocator.set_target(self.vm_target)
                self.decisions.record(t, "vm.target", self.name,
                                      target=self.vm_target,
                                      reason="duty-floor-shed")
        else:
            new_target = self.temporal.next_vm_target(
                self.vm_target, self.workload.preferred_vms, action
            )
            new_target = min(new_target, max(cap_target, 0))
            if new_target > self.vm_target:
                if (
                    self._since_upscale < self.params.upscale_holdoff_s
                    or self._since_crash < self.params.crash_backoff_s
                ):
                    return
                self._since_upscale = 0.0
            elif new_target < self.vm_target and action is not TemporalAction.CAP:
                # Sizing-driven shrink (not safety): damp it too.
                if self._since_downscale < self.params.downscale_holdoff_s:
                    return
                self._since_downscale = 0.0
            if new_target != self.vm_target:
                reason = ("safety-cap" if action is TemporalAction.CAP
                          else "sizing")
                self.vm_target = new_target
                self.allocator.set_target(new_target)
                self.decisions.record(t, "vm.target", self.name,
                                      target=new_target, reason=reason)

    # ------------------------------------------------------------------
    # Mode bookkeeping (transitions 3/6/7)
    # ------------------------------------------------------------------
    def _mode_bookkeeping(self, t: float, battery_needed: bool) -> None:
        for unit in self.online_units():
            if battery_needed and unit.mode is BatteryMode.STANDBY:
                self.transition(unit, BatteryMode.DISCHARGING, "green-inadequate", t)
            elif not battery_needed and unit.mode is BatteryMode.DISCHARGING:
                self.transition(unit, BatteryMode.STANDBY, "green-exceeds-demand", t)

    # ------------------------------------------------------------------
    # Restart after a protective stop
    # ------------------------------------------------------------------
    def _maybe_restart(self, t: float) -> None:
        if self.vm_target > 0 or self.rack.active_servers():
            return
        if self._since_crash < self.params.crash_backoff_s:
            return
        floor = self.params.temporal.soc_floor + self.params.usable_margin
        if len(self.usable_online_units(floor)) < self.params.min_online_units:
            return
        target = self._sizing_target()
        if target >= self.params.min_restart_vms:
            self.vm_target = target
            self.duty = 1.0
            self.rack.set_duty(1.0)
            self.allocator.set_target(target)
            self.decisions.record(t, "load.restart", self.name, vms=target)

    # ------------------------------------------------------------------
    # SPM (coarse-grained)
    # ------------------------------------------------------------------
    def _spatial_period(self, clock: Clock) -> None:
        t = clock.t
        offline = [
            self.telemetry.sense(u.name)
            for u in self.bank.in_mode(BatteryMode.OFFLINE)
        ]
        charging = [
            self.telemetry.sense(u.name)
            for u in self.bank.in_mode(BatteryMode.CHARGING)
        ]
        surplus = max(0.0, self.solar_ema_w - self.rack.demand_w)
        starving = (
            len(self.workload.queue) > 0
            and not self.usable_online_units(self.params.temporal.soc_floor)
        )
        decision = self.spatial.evaluate(
            offline=offline,
            charging=charging,
            surplus_w=surplus,
            elapsed_seconds=t,
            demand_pressure=starving,
        )
        for name in decision.to_charging:
            self.transition(self.bank.by_name(name), BatteryMode.CHARGING,
                            "spm-select", t)
        for name in decision.to_standby:
            self.transition(self.bank.by_name(name), BatteryMode.STANDBY,
                            "capacity-goal", t)

        # Sunset release: with no surplus to charge from, a cabinet parked
        # on the charge bus is just stranded energy.  Put usable ones on
        # the load bus; the 90 % gate only makes sense while charging can
        # actually proceed.
        if surplus < self.params.spatial.min_charge_surplus_w:
            floor = self.params.temporal.soc_floor + 2 * self.params.usable_margin
            for unit in self.bank.in_mode(BatteryMode.CHARGING):
                if self.telemetry.sense(unit.name).soc_estimate > floor:
                    self.transition(unit, BatteryMode.STANDBY,
                                    "no-surplus-release", t)
