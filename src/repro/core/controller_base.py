"""Shared machinery for InSURE and baseline power managers.

A power manager is a simulation component that, each control period,
reads the sensed plant state and actuates three things: battery modes
(through the relay switch network), the VM allocation, and the rack's
DVFS duty cycle.  The InSURE and baseline controllers differ only in the
*policies* driving those actuations.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.battery.bank import BatteryBank
from repro.battery.unit import BatteryMode, BatteryUnit
from repro.cluster.allocator import NodeAllocator
from repro.cluster.rack import ServerRack
from repro.core.modes import ModeTransition, bus_for_mode
from repro.core.sensing import BatteryTelemetry
from repro.obs.decisions import DecisionLog
from repro.obs.spans import NULL_TRACER
from repro.power.relays import SwitchNetwork
from repro.sim.clock import Clock
from repro.sim.component import Component
from repro.workloads.base import Workload

if TYPE_CHECKING:  # imported for annotations only; avoids a runtime cycle
    from repro.battery.charger import SolarCharger
    from repro.policy.policy import Policy

#: Solar EMA time constant (s), and the slow sizing EMA's multiple of it.
SOLAR_EMA_TAU_S = 120.0
SLOW_EMA_FACTOR = 3.0
#: The battery is needed once demand exceeds the solar EMA by this factor.
BATTERY_NEEDED_MARGIN = 1.02


class PowerSource:
    """Minimal protocol for power sources (duck-typed)."""

    available_power_w: float


class PowerManager(Component):
    """Base class for supply/load coordinating controllers.

    Parameters
    ----------
    name:
        Component name.
    bank / switchnet / telemetry:
        The e-Buffer, its relay network, and the sensing chain.
    rack / allocator / workload:
        The load side.
    source:
        Object exposing ``available_power_w`` (solar field or trace player).
    decisions:
        The system's decision log; every mode change, retarget, duty
        change, stop and restart is recorded there.
    """

    def __init__(
        self,
        name: str,
        bank: BatteryBank,
        switchnet: SwitchNetwork,
        telemetry: BatteryTelemetry,
        rack: ServerRack,
        allocator: NodeAllocator,
        workload: Workload,
        source: PowerSource,
        decisions: DecisionLog,
        per_vm_w: float,
    ) -> None:
        super().__init__(name)
        self.bank = bank
        self.switchnet = switchnet
        self.telemetry = telemetry
        self.rack = rack
        self.allocator = allocator
        self.workload = workload
        self.source = source
        self.decisions = decisions
        self.per_vm_w = per_vm_w
        self.solar_ema_w = 0.0
        #: Slow EMA used for sizing decisions (minutes-scale commitment).
        self.solar_ema_slow_w = 0.0
        #: Optional PLC-resident switch program (Fig. 12's bottom tier);
        #: when set, mode changes are *requested* through PLC registers
        #: and applied by the scan cycle under its safety interlocks.
        self.plc_program = None
        #: Span tracer; a no-op unless an Observability bundle replaces
        #: it.  Like the decision log it only records — neither feeds
        #: back into control decisions.
        self.tracer = NULL_TRACER
        #: Attached :class:`repro.policy.policy.Policy` overlays, stepped
        #: once per tick after the controller's own logic.  Empty by
        #: default — an empty list adds zero float operations, so runs
        #: without policies stay bit-identical to the pre-policy code.
        self.policies: list[Policy] = []

    # ------------------------------------------------------------------
    # Policy overlays (repro.policy)
    # ------------------------------------------------------------------
    def attach_policy(self, policy: Policy,
                      charger: SolarCharger | None = None) -> None:
        """Bind a policy overlay to this manager and start stepping it."""
        policy.bind(self, charger)
        self.policies.append(policy)

    def _step_policies(self, clock: Clock) -> None:
        for policy in self.policies:
            policy.step(clock.t, clock.dt)

    # ------------------------------------------------------------------
    # Sensing helpers
    # ------------------------------------------------------------------
    def _update_solar_ema(self, dt: float) -> None:
        solar_w = self.source.available_power_w
        alpha = dt / SOLAR_EMA_TAU_S
        if alpha > 1.0:
            alpha = 1.0
        self.solar_ema_w += alpha * (solar_w - self.solar_ema_w)
        alpha_slow = dt / (SOLAR_EMA_TAU_S * SLOW_EMA_FACTOR)
        if alpha_slow > 1.0:
            alpha_slow = 1.0
        self.solar_ema_slow_w += alpha_slow * (solar_w - self.solar_ema_slow_w)

    def battery_needed(self) -> bool:
        """Whether the rack draws more than the solar EMA covers."""
        return self.rack.demand_w > self.solar_ema_w * BATTERY_NEEDED_MARGIN

    def online_units(self) -> list[BatteryUnit]:
        return self.bank.in_mode(BatteryMode.STANDBY, BatteryMode.DISCHARGING)

    def usable_online_units(self, soc_floor: float) -> list[BatteryUnit]:
        floor = soc_floor
        return [
            u for u in self.online_units()
            if self.telemetry.sense(u.name).soc_estimate > floor
        ]

    # ------------------------------------------------------------------
    # Actuation helpers
    # ------------------------------------------------------------------
    def transition(self, unit: BatteryUnit, to_mode: BatteryMode, reason: str,
                   t: float) -> bool:
        """Validated mode change: updates the unit and drives the relays
        (directly, or as a request to the PLC switch program).

        Constructing the :class:`ModeTransition` checks the change against
        the legal transitions (it raises on an illegal one).
        """
        if unit.mode is to_mode:
            return False
        change = ModeTransition(unit.name, unit.mode, to_mode, reason)
        unit.set_mode(to_mode)
        if self.plc_program is not None:
            self.plc_program.request(self.telemetry.plc, unit.name,
                                     bus_for_mode(to_mode))
        else:
            self.switchnet.attach(unit.name, bus_for_mode(to_mode))
        self.decisions.record(t, "buffer.mode", unit.name,
                              from_mode=change.from_mode.value,
                              to_mode=to_mode.value, reason=reason)
        return True

    def checkpoint_and_stop(self, t: float, reason: str) -> None:
        """Graceful load shedding: durable checkpoint, then power down."""
        self.workload.checkpoint_all()
        self.allocator.set_target(0)
        self.rack.graceful_stop_all()
        self.decisions.record(t, "load.checkpoint_stop", self.name, reason=reason)

    def supportable_vms(self, battery_power_w: float, preferred: int) -> int:
        """VM count the current power situation can sustain."""
        supportable = self.solar_ema_w + battery_power_w
        return max(0, min(preferred, int(supportable // self.per_vm_w)))

    # ------------------------------------------------------------------
    # Observables surfaced to the alert engine
    # ------------------------------------------------------------------
    @property
    def discharge_cap_amps(self) -> float | None:
        """Total discharge-current cap this controller enforces, if any.

        Read-only: the alert engine compares the observed bank discharge
        against it (near-miss rule).  ``None`` means uncapped.
        """
        return None

    # ------------------------------------------------------------------
    # Counters surfaced to the log analysis (Table 6 columns)
    # ------------------------------------------------------------------
    @property
    def power_ctrl_times(self) -> int:
        """Relay switching operations performed so far."""
        return self.switchnet.switch_operations

    @property
    def vm_ctrl_times(self) -> int:
        return self.allocator.vm_ctrl_ops
