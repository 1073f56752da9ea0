"""Node and VM allocation.

The allocator turns a *target VM count* into server power states and VM
placements: servers host up to two VMs, so six target VMs means three
powered machines.  Scaling down checkpoints VMs and gracefully stops the
emptied servers; scaling up boots machines and restores VMs once they are
up.  Every change is an event (``vm.ctrl`` / ``server.on`` / ``server.off``)
so control activity is auditable, as in Table 6.
"""

from __future__ import annotations

import math

from repro.cluster.rack import ServerRack
from repro.cluster.server import Server, ServerState


def check_vm_capacity(server_count: int, vm_slots: int, preferred_vms: int) -> None:
    """Refuse a rack too small for the VMs its workload scales to.

    The controllers scale up to ``preferred_vms``, and the allocator
    refuses a target past the rack's capacity, so such a run would fail
    mid-day at its first large scale-up.  Both kernels refuse it at build.
    """
    if server_count * vm_slots < preferred_vms:
        raise ValueError(
            f"{server_count} servers of {vm_slots} VM slots hold fewer than "
            f"the {preferred_vms} VMs the workload scales to"
        )


class NodeAllocator:
    """Maps VM-count targets onto a rack."""

    def __init__(self, rack: ServerRack, cpu_share: float = 0.2) -> None:
        self.rack = rack
        self.cpu_share = cpu_share
        self.target_vms = 0
        self.vm_ctrl_ops = 0

    def set_target(self, vm_count: int, t: float = 0.0) -> bool:
        """Request ``vm_count`` running VMs; returns True if this changed
        the target (and therefore counts as a VM control operation)."""
        if vm_count < 0 or vm_count > self.rack.vm_capacity:
            raise ValueError(
                f"vm_count must be in [0, {self.rack.vm_capacity}], got {vm_count}"
            )
        if vm_count == self.target_vms:
            return False
        self.target_vms = vm_count
        self.vm_ctrl_ops += 1
        self.rack.events.emit(t, "vm.ctrl", "allocator", op="retarget", vms=vm_count)
        self._reconcile(t)
        return True

    def _servers_needed(self) -> int:
        slots = self.rack.profile.vm_slots
        return math.ceil(self.target_vms / slots) if self.target_vms else 0

    def _reconcile(self, t: float) -> None:
        """Adjust server power states and VM placement towards the target."""
        servers = self.rack.servers
        needed = self._servers_needed()

        # Order: already-powered servers first so we prefer keeping them.
        powered = [s for s in servers if s.state in (ServerState.ON, ServerState.BOOTING)]
        unpowered = [s for s in servers if s not in powered]
        keep = (powered + unpowered)[:needed]
        drop = [s for s in servers if s not in keep]

        for server in drop:
            self._strip_vms(server, t)
            if server.power_off():
                self.rack.events.emit(t, "server.off", server.name)

        remaining = self.target_vms
        for server in keep:
            if server.state is ServerState.OFF:
                server.power_on()
                self.rack.events.emit(t, "server.on", server.name)
            elif server.state is ServerState.SAVING:
                # Will be turned back on once the save completes (next sync).
                continue
            want = min(server.profile.vm_slots, remaining)
            self._fit_vms(server, want, t)
            remaining -= want

    def _fit_vms(self, server: Server, want: int, t: float) -> None:
        while len(server.vms) > want:
            vm = server.vms[-1]
            if vm.running:
                vm.checkpoint()
            server.evict_vm(vm)
            self.vm_ctrl_ops += 1
            self.rack.events.emit(t, "vm.ctrl", server.name, op="remove", vm=vm.vm_id)
        while len(server.vms) < want:
            vm = self.rack.new_vm(self.cpu_share)
            # Start before placing: placing tells the rack the server changed.
            if server.state is ServerState.ON:
                vm.start()
            server.place_vm(vm)
            self.vm_ctrl_ops += 1
            self.rack.events.emit(t, "vm.ctrl", server.name, op="add", vm=vm.vm_id)

    def _strip_vms(self, server: Server, t: float) -> None:
        self._fit_vms(server, 0, t)

    def sync(self, t: float = 0.0) -> None:
        """Re-run reconciliation (e.g. after saves complete or crashes)."""
        self._reconcile(t)

    def running_matches_target(self) -> bool:
        return self.rack.running_vm_count() == self.target_vms
