"""Per-server power state machine.

States: OFF → BOOTING → ON → SAVING → OFF, plus an emergency crash edge
from any powered state straight to OFF.  The BOOTING and SAVING dwell
times come from the profile and add up to the paper's ~15-minute service
interruption per On/Off power cycle; during those states the server draws
power but produces no useful work — the "effective energy usage" gap
quantified in Table 6.
"""

from __future__ import annotations

import enum
from collections.abc import Callable

from repro.cluster.profiles import ServerProfile
from repro.cluster.vm import VirtualMachine

#: Utilisation a SAVING server draws power at while it checkpoints.
SAVING_UTILISATION = 0.15


class ServerState(enum.Enum):
    OFF = "off"
    BOOTING = "booting"
    ON = "on"
    SAVING = "saving"


def _unowned() -> None:
    """Change hook of a server outside a rack: nothing derives from it."""


class Server:
    """One physical machine hosting up to ``profile.vm_slots`` VMs.

    Every mutator of the state, the hosted VMs or the duty calls
    ``on_change`` last, so an owner that derives figures from the server
    (the rack's record) can drop them.  A VM's running flag counts as
    hosted state: start it before placing it on a server, never after.
    """

    def __init__(self, name: str, profile: ServerProfile,
                 on_change: Callable[[], None] = _unowned) -> None:
        self.name = name
        self.profile = profile
        self.on_change = on_change
        self.state = ServerState.OFF
        self.vms: list[VirtualMachine] = []
        #: DVFS duty cycle in [duty_floor, 1]: fraction of time at full speed.
        self.duty = 1.0
        self._transition_left = 0.0
        self.on_off_cycles = 0
        self.crashes = 0

    # ------------------------------------------------------------------
    # VM hosting
    # ------------------------------------------------------------------
    def place_vm(self, vm: VirtualMachine) -> None:
        if len(self.vms) >= self.profile.vm_slots:
            raise ValueError(f"{self.name}: no free VM slot")
        self.vms.append(vm)
        self.on_change()

    def evict_vm(self, vm: VirtualMachine) -> None:
        try:
            self.vms.remove(vm)
        except ValueError:
            raise ValueError(f"{vm.vm_id} is not hosted on {self.name}") from None
        self.on_change()

    @property
    def free_slots(self) -> int:
        return self.profile.vm_slots - len(self.vms)

    def running_vms(self) -> list[VirtualMachine]:
        if self.state is not ServerState.ON:
            return []
        return [vm for vm in self.vms if vm.running]

    def running_vm_count(self) -> int:
        """Number of running VMs, without building a list (hot path)."""
        if self.state is not ServerState.ON:
            return 0
        count = 0
        for vm in self.vms:
            if vm.running:
                count += 1
        return count

    # ------------------------------------------------------------------
    # Power state machine
    # ------------------------------------------------------------------
    def power_on(self) -> bool:
        """Begin booting; returns True if a transition started."""
        if self.state is not ServerState.OFF:
            return False
        self.state = ServerState.BOOTING
        self._transition_left = self.profile.boot_s
        self.on_change()
        return True

    def power_off(self) -> bool:
        """Begin a graceful checkpoint-save shutdown."""
        if self.state not in (ServerState.ON, ServerState.BOOTING):
            return False
        for vm in self.vms:
            if vm.running:
                vm.checkpoint()
        self.state = ServerState.SAVING
        self._transition_left = self.profile.save_s
        self.on_change()
        return True

    def emergency_off(self) -> bool:
        """Immediate power loss: VM states are lost, not checkpointed."""
        if self.state is ServerState.OFF:
            return False
        for vm in self.vms:
            if vm.running:
                vm.crash()
        self.state = ServerState.OFF
        self._transition_left = 0.0
        self.crashes += 1
        self.on_off_cycles += 1
        self.on_change()
        return True

    def set_duty(self, duty: float) -> None:
        """Set the DVFS duty cycle (fraction of time at full speed)."""
        if not 0.1 <= duty <= 1.0:
            raise ValueError(f"duty must be in [0.1, 1], got {duty}")
        self.duty = duty
        self.on_change()

    def step(self, dt_seconds: float) -> None:
        """Advance boot/save transitions."""
        if self.state is ServerState.BOOTING:
            self._transition_left -= dt_seconds
            if self._transition_left <= 0.0:
                self.state = ServerState.ON
                for vm in self.vms:
                    vm.start()
                self.on_change()
        elif self.state is ServerState.SAVING:
            self._transition_left -= dt_seconds
            if self._transition_left <= 0.0:
                self.state = ServerState.OFF
                self.on_off_cycles += 1
                self.on_change()

    # ------------------------------------------------------------------
    # Electrical / computational output
    # ------------------------------------------------------------------
    @property
    def utilisation(self) -> float:
        if self.state is not ServerState.ON:
            return 0.0
        share = 0.0
        for vm in self.vms:
            if vm.running:
                share += vm.cpu_share
        return min(1.0, share * self.duty)

    @property
    def power_w(self) -> float:
        """Instantaneous wall power draw."""
        state = self.state
        if state is ServerState.ON:
            return self.profile.power_at(self.utilisation)
        if state is ServerState.OFF:
            return 0.0
        if state is ServerState.BOOTING:
            return self.profile.idle_w
        return self.profile.power_at(SAVING_UTILISATION)

    def compute_seconds(self, dt_seconds: float) -> float:
        """Useful VM-compute-seconds produced this tick.

        Scales with running VM count, DVFS duty and the profile's relative
        speed; zero during boot/save — that is the checkpoint overhead.
        """
        if self.state is not ServerState.ON:
            return 0.0
        n_running = self.running_vm_count()
        return n_running * self.duty * self.profile.relative_speed * dt_seconds
