"""Node and VM allocation.

The allocator turns a *target VM count* into server power states and VM
placements: servers host up to two VMs, so six target VMs means three
powered machines.  Scaling down checkpoints VMs and gracefully stops the
emptied servers; scaling up boots machines and restores VMs once they are
up.  Every retarget and every VM placed or evicted counts in
``vm_ctrl_ops``, Table 6's VM control operations.
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

    def set_target(self, vm_count: int) -> bool:
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
        self._reconcile()
        return True

    def _servers_needed(self) -> int:
        slots = self.rack.profile.vm_slots
        return math.ceil(self.target_vms / slots) if self.target_vms else 0

    def _reconcile(self) -> None:
        """Adjust server power states and VM placement towards the target."""
        servers = self.rack.servers
        needed = self._servers_needed()

        # Order: already-powered servers first so we prefer keeping them.
        powered = [s for s in servers if s.state in (ServerState.ON, ServerState.BOOTING)]
        unpowered = [s for s in servers if s not in powered]
        keep = (powered + unpowered)[:needed]
        drop = [s for s in servers if s not in keep]

        for server in drop:
            self._fit_vms(server, 0)
            server.power_off()

        remaining = self.target_vms
        for server in keep:
            if server.state is ServerState.OFF:
                server.power_on()
            elif server.state is ServerState.SAVING:
                # Will be turned back on once the save completes (next sync).
                continue
            want = min(server.profile.vm_slots, remaining)
            self._fit_vms(server, want)
            remaining -= want

    def _fit_vms(self, server: Server, want: int) -> None:
        while len(server.vms) > want:
            vm = server.vms[-1]
            if vm.running:
                vm.checkpoint()
            server.evict_vm(vm)
            self.vm_ctrl_ops += 1
        while len(server.vms) < want:
            vm = self.rack.new_vm(self.cpu_share)
            # Start before placing: placing tells the rack the server changed.
            if server.state is ServerState.ON:
                vm.start()
            server.place_vm(vm)
            self.vm_ctrl_ops += 1

    def sync(self) -> None:
        """Re-run reconciliation (e.g. after saves complete or crashes)."""
        self._reconcile()

    def running_matches_target(self) -> bool:
        return self.rack.running_vm_count() == self.target_vms
