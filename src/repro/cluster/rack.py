"""The server rack simulation component.

Aggregates servers into one schedulable unit: total demand for the power
bus, total compute-seconds for the workload, and rack-wide actuation
(duty cycles, emergency shedding).  Table 6's on/off cycles and crashes
are the servers' own counters (``Server.on_off_cycles``,
``Server.crashes``).

The figures a tick reads (PDU demand, running VMs, effective and
transition power, compute seconds) live in one read-only
:class:`RackRecord`, built from the servers on first read and dropped by
every server mutator, so a tick in which no server changes derives
nothing.
"""

from __future__ import annotations

from typing import NamedTuple

from repro.cluster.profiles import XEON_DL380, ServerProfile
from repro.cluster.server import Server, ServerState
from repro.cluster.vm import VirtualMachine
from repro.power.converters import PowerDistributionUnit
from repro.sim.clock import Clock
from repro.sim.component import Component


class RackRecord(NamedTuple):
    """Rack figures derived from the servers' states, VMs and duty."""

    demand_w: float          # ServerRack.demand_w: PDU input draw
    running_vms: int         # VMs doing useful work
    effective_w: float       # power of the servers running VMs
    transition_w: float      # power of the servers booting or saving
    timed: bool              # a server is booting or saving
    compute_seconds: float   # VM-compute-seconds of one tick of ``dt``


class ServerRack(Component):
    """A rack of identical servers behind one PDU."""

    def __init__(
        self,
        name: str = "rack",
        server_count: int = 4,
        profile: ServerProfile | None = None,
        pdu: PowerDistributionUnit | None = None,
    ) -> None:
        super().__init__(name)
        if server_count <= 0:
            raise ValueError("server_count must be positive")
        self.profile = profile or XEON_DL380
        self.servers = [Server(f"{name}.pm{i + 1}", self.profile, self._drop_record)
                        for i in range(server_count)]
        self.pdu = pdu or PowerDistributionUnit(ports=max(8, server_count))
        self._vm_counter = 0
        self._last_compute_seconds = 0.0
        #: Tick length the record's compute seconds are for (the latest step's).
        self._dt = 0.0
        self._record: RackRecord | None = None

    # ------------------------------------------------------------------
    # The derived record
    # ------------------------------------------------------------------
    @property
    def record(self) -> RackRecord:
        """The rack figures of the current server states, VMs and duty."""
        record = self._record
        if record is None:
            record = self._record = self._build_record()
        return record

    def _drop_record(self) -> None:
        self._record = None

    def _build_record(self) -> RackRecord:
        # Raises (and so caches nothing) while the PDU is over capacity.
        demand = self.pdu.draw([s.power_w for s in self.servers])
        dt = self._dt
        running = 0
        effective = 0.0
        transition = 0.0
        timed = False
        compute = 0.0
        for server in self.servers:
            count = server.running_vm_count()
            running += count
            if count:
                effective += server.power_w
            elif server.state is ServerState.BOOTING or server.state is ServerState.SAVING:
                transition += server.power_w
                timed = True
            compute += server.compute_seconds(dt)
        return RackRecord(demand, running, effective, transition, timed, compute)

    # ------------------------------------------------------------------
    # Capacity accounting
    # ------------------------------------------------------------------
    @property
    def vm_capacity(self) -> int:
        return sum(s.profile.vm_slots for s in self.servers)

    def running_vm_count(self) -> int:
        return self.record.running_vms

    def placed_vm_count(self) -> int:
        return sum(len(s.vms) for s in self.servers)

    def active_servers(self) -> list[Server]:
        return [s for s in self.servers if s.state is not ServerState.OFF]

    def serving(self) -> bool:
        """Whether at least one VM is doing useful work right now."""
        return self.record.running_vms > 0

    def fully_serving(self) -> bool:
        """Whether every placed VM is running (no boot/save in progress)."""
        placed = self.placed_vm_count()
        return placed > 0 and self.running_vm_count() == placed

    # ------------------------------------------------------------------
    # Actuation (used by the node allocator and the TPM)
    # ------------------------------------------------------------------
    def new_vm(self, cpu_share: float = 0.2) -> VirtualMachine:
        self._vm_counter += 1
        return VirtualMachine(f"{self.name}.vm{self._vm_counter}", cpu_share)

    def set_duty(self, duty: float) -> None:
        """Apply a DVFS duty cycle rack-wide (batch-job power capping)."""
        for server in self.servers:
            if abs(server.duty - duty) > 1e-9:
                server.set_duty(duty)

    def emergency_shed(self) -> int:
        """Uncontrolled power loss on every powered server."""
        count = 0
        for server in self.servers:
            if server.emergency_off():
                count += 1
        return count

    def graceful_stop_all(self) -> int:
        """Checkpoint and shut down every powered server."""
        count = 0
        for server in self.servers:
            if server.power_off():
                count += 1
        return count

    # ------------------------------------------------------------------
    # Simulation
    # ------------------------------------------------------------------
    def step(self, clock: Clock) -> None:
        dt = clock.dt
        if dt != self._dt:
            self._dt = dt
            self._record = None
        record = self.record
        if record.timed:
            # Only boot and save timers run; an expiry drops the record.
            for server in self.servers:
                server.step(dt)
            record = self.record
        self._last_compute_seconds = record.compute_seconds

    @property
    def last_compute_seconds(self) -> float:
        """Useful VM-compute-seconds produced in the latest tick."""
        return self._last_compute_seconds

    @property
    def demand_w(self) -> float:
        """Instantaneous rack power demand including PDU overhead."""
        return self.record.demand_w

    def total_on_off_cycles(self) -> int:
        return sum(s.on_off_cycles for s in self.servers)
