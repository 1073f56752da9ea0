"""Baseline power manager: unified energy buffer, no spatio-temporal control.

This is the comparison point of Figures 17-21 and the "No-Opt" rows of
Table 6: a solar-powered in-situ system that adopts today's grid-connected
green-datacenter management (à la Parasol / Oasis).  It tracks the variable
renewable budget for VM sizing and shaves peaks by checkpointing when the
buffer protection trips — but its buffer is *unified*:

* all cabinets charge or discharge together (batch charging regardless of
  the solar budget);
* the whole bank disconnects from the load once any unit's terminal
  voltage approaches the protection threshold, shutting the servers down
  (the Figure 5 trace);
* servers stay down until the entire bank recharges to the capacity goal;
* no discharge-current capping, no wear balancing, full duty at all times.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

from repro.battery.unit import BatteryMode
from repro.core.controller_base import PowerManager
from repro.sim.clock import Clock

#: Discharge current (A) above which a low cell voltage trips protection.
TRIP_AMPS = 0.5


@dataclass
class BaselineParams:
    """Baseline tuning knobs."""

    control_interval_s: float = 30.0
    #: Voltage margin above the LVD at which the bank is pulled for charge.
    protect_margin_v: float = 0.15
    #: SoC floor backstop (the prototype's protection relay).
    soc_floor: float = 0.08
    #: The bank returns online only when every unit reaches this level.
    charge_to_soc: float = 0.90
    #: Unconstrained per-cabinet discharge power assumed when sizing VMs.
    bank_power_per_unit_w: float = 420.0
    #: Minimum seconds between successive VM-count increases.
    upscale_holdoff_s: float = 120.0
    #: SoC above which yesterday's bank starts the day online (the 90 %
    #: capacity goal only gates *re*-entry after a protection trip).
    start_min_soc: float = 0.25


class BaselineController(PowerManager):
    """Unified-buffer, renewable-tracking baseline."""

    def __init__(self, *args: Any, params: BaselineParams | None = None,
                 **kwargs: Any) -> None:
        super().__init__(*args, **kwargs)
        self.params = params or BaselineParams()
        self._elapsed = float("inf")
        self._since_upscale = float("inf")
        self.buffer_online = True
        #: A protection trip waits for the servers to finish saving
        #: before the bank is pulled to the charge bus.
        self._trip_pending = False
        self.vm_target = 0
        self.checkpoint_stops = 0

    @property
    def discharge_cap_amps(self) -> None:
        """The unified buffer never caps discharge current (paper §2.3) —
        the near-miss alert rule is inert for this controller."""
        return None

    def _retarget(self, target: int, t: float) -> None:
        """Apply a VM target with damped upscaling."""
        if target > self.vm_target:
            if self._since_upscale < self.params.upscale_holdoff_s:
                return
            self._since_upscale = 0.0
        if target != self.vm_target:
            self.vm_target = target
            self.allocator.set_target(target)
            self.decisions.record(t, "vm.target", self.name, target=target,
                                  reason="renewable-tracking")

    def start(self, clock: Clock) -> None:
        min_soc = min(
            self.telemetry.sense(u.name).soc_estimate for u in self.bank
        )
        self.buffer_online = min_soc >= self.params.start_min_soc
        mode = BatteryMode.STANDBY if self.buffer_online else BatteryMode.CHARGING
        bus = "load" if self.buffer_online else "charge"
        for unit in self.bank:
            unit.set_mode(mode)
            self.switchnet.attach(unit.name, bus)

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
        # Policy overlays step every tick on their own intervals; they
        # must not be gated by the baseline's control interval.
        self._step_policies(clock)
        self._elapsed += clock.dt
        if self._elapsed < self.params.control_interval_s:
            return
        self._elapsed = 0.0
        self._since_upscale += self.params.control_interval_s
        if sampling:
            tracer.push("controller.decide")
        if self.buffer_online:
            self._online_period(clock)
        else:
            self._charging_period(clock)
        if sampling:
            tracer.pop()
        if not self.allocator.running_matches_target():
            self.allocator.sync()

    # ------------------------------------------------------------------
    # Bank online: serve the load, watch the protection threshold
    # ------------------------------------------------------------------
    def _online_period(self, clock: Clock) -> None:
        t = clock.t
        p = self.params
        cutoff = self.bank[0].params.voltage.v_cutoff
        senses = [self.telemetry.sense(u.name) for u in self.bank]
        tripping = any(
            s.voltage <= cutoff + p.protect_margin_v and s.current > TRIP_AMPS
            for s in senses
        ) or min(s.soc_estimate for s in senses) <= p.soc_floor

        if tripping or self._trip_pending:
            # Peak shaving, grid-datacenter style: checkpoint, then pull the
            # whole bank for charging (the unified buffer cannot split).
            # The pull waits for the save to finish — cutting supply
            # mid-save would destroy the checkpoint.
            if not self._trip_pending:
                self.checkpoint_and_stop(t, reason="bank-protection")
                self.checkpoint_stops += 1
                self.vm_target = 0
                self._trip_pending = True
                self.decisions.record(t, "buffer.trip", self.name,
                                      reason="bank-protection")
            if not self.rack.active_servers():
                for unit in self.bank:
                    self.transition(unit, BatteryMode.OFFLINE, "protect", t)
                    self.transition(unit, BatteryMode.CHARGING,
                                    "unified-recharge", t)
                self.buffer_online = False
                self._trip_pending = False
            return

        # Renewable tracking: size VMs to solar plus the (uncapped) bank.
        bank_w = p.bank_power_per_unit_w * len(self.bank)
        self._retarget(
            self.supportable_vms(bank_w, self.workload.preferred_vms), t
        )

        # Mode label bookkeeping for traces.
        battery_needed = self.battery_needed()
        for unit in self.bank:
            if battery_needed and unit.mode is BatteryMode.STANDBY:
                self.transition(unit, BatteryMode.DISCHARGING, "green-inadequate", t)
            elif not battery_needed and unit.mode is BatteryMode.DISCHARGING:
                self.transition(unit, BatteryMode.STANDBY, "green-exceeds-demand", t)

    # ------------------------------------------------------------------
    # Bank charging: everything waits for the full-bank capacity goal
    # ------------------------------------------------------------------
    def _charging_period(self, clock: Clock) -> None:
        t = clock.t
        # The unified architecture feeds the servers *through* the battery
        # bus, so with the bank on the charge bus the whole InS is down
        # ("InS has to be shut down and its solar energy utilization drops
        # to zero", paper §2.3).  All solar goes to batch-charging the bank.
        self._retarget(0, t)

        senses = [self.telemetry.sense(u.name) for u in self.bank]
        all_charged = all(
            s.soc_estimate >= self.params.charge_to_soc for s in senses
        )
        if all_charged:
            for unit in self.bank:
                self.transition(unit, BatteryMode.STANDBY, "capacity-goal", t)
            self.buffer_online = True
            self.decisions.record(t, "buffer.online", self.name,
                                  reason="charged")
