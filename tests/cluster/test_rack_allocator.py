"""Rack aggregation and the node/VM allocator."""

import pytest

from repro.cluster.allocator import NodeAllocator
from repro.cluster.rack import ServerRack
from repro.cluster.server import ServerState
from repro.cluster.vm import VirtualMachine
from repro.sim.clock import Clock


def settle(rack, seconds=1200.0, dt=60.0):
    clock = Clock(dt=dt)
    for _ in range(int(seconds / dt)):
        rack.step(clock)
        clock.advance()
    return clock


@pytest.fixture
def rack():
    return ServerRack(server_count=4)


class TestVirtualMachine:
    def test_lifecycle(self):
        vm = VirtualMachine("v")
        vm.start()
        assert vm.running
        vm.checkpoint()
        assert vm.checkpointed and not vm.running
        vm.start()
        vm.crash()
        assert not vm.checkpointed and not vm.running

    def test_validation(self):
        with pytest.raises(ValueError):
            VirtualMachine("")
        with pytest.raises(ValueError):
            VirtualMachine("v", cpu_share=0.0)


class TestRack:
    def test_capacity(self, rack):
        assert rack.vm_capacity == 8

    def test_demand_zero_when_off(self, rack):
        assert rack.demand_w == 0.0

    def test_paper_power_points(self, rack):
        """8 VMs ~ 1400 W, 4 VMs ~ 700 W (Tables 2 and 3)."""
        alloc = NodeAllocator(rack)
        alloc.set_target(8)
        settle(rack)
        assert rack.demand_w == pytest.approx(1400.0, abs=30.0)
        alloc.set_target(4)
        settle(rack)
        alloc.sync()
        settle(rack)
        assert rack.demand_w == pytest.approx(700.0, abs=30.0)

    def test_compute_seconds_accumulate(self, rack):
        alloc = NodeAllocator(rack)
        alloc.set_target(4)
        settle(rack, seconds=1800.0)
        assert rack.last_compute_seconds == pytest.approx(4 * 60.0)

    def test_emergency_shed(self, rack):
        alloc = NodeAllocator(rack)
        alloc.set_target(8)
        settle(rack)
        shed = rack.emergency_shed()
        assert shed == 4
        assert not rack.serving()
        assert sum(s.crashes for s in rack.servers) == 4

    def test_graceful_stop_checkpoints_vms(self, rack):
        alloc = NodeAllocator(rack)
        alloc.set_target(2)
        settle(rack)
        stopped = rack.graceful_stop_all()
        assert stopped == 1
        vms = [vm for s in rack.servers for vm in s.vms]
        assert len(vms) == 2
        assert all(vm.checkpointed and not vm.running for vm in vms)

    def test_set_duty_rackwide(self, rack):
        rack.set_duty(0.7)
        assert all(s.duty == 0.7 for s in rack.servers)
        record = rack.record
        rack.set_duty(0.7)  # no change: no server is touched
        assert rack.record is record


class TestRackRecord:
    """Each server mutator drops the cached record; the next read sees
    the change."""

    @staticmethod
    def _serving_rack():
        rack = ServerRack(server_count=4)
        alloc = NodeAllocator(rack)
        alloc.set_target(3)
        settle(rack)
        return rack, alloc

    def _assert_fresh_after(self, rack, mutate):
        before = rack.record
        mutate()
        assert rack.record == rack._build_record()
        assert rack.record != before

    def test_place_and_evict(self):
        rack, _ = self._serving_rack()
        server = rack.servers[1]  # ON, one VM
        vm = VirtualMachine("extra")
        vm.start()
        self._assert_fresh_after(rack, lambda: server.place_vm(vm))
        vm.checkpoint()
        self._assert_fresh_after(rack, lambda: server.evict_vm(vm))

    def test_power_cycle(self):
        rack, _ = self._serving_rack()
        server = rack.servers[0]
        self._assert_fresh_after(rack, server.power_off)
        self._assert_fresh_after(rack, lambda: server.step(rack.profile.save_s))
        self._assert_fresh_after(rack, server.power_on)
        self._assert_fresh_after(rack, lambda: server.step(rack.profile.boot_s))
        self._assert_fresh_after(rack, server.emergency_off)

    def test_duty(self):
        rack, _ = self._serving_rack()
        self._assert_fresh_after(rack, lambda: rack.servers[0].set_duty(0.5))

    def test_compute_seconds_follow_the_tick_length(self):
        rack, _ = self._serving_rack()  # three VMs running, stepped at 60 s
        rack.step(Clock(dt=10.0))
        assert rack.last_compute_seconds == pytest.approx(3 * 10.0)

    def test_allocator_starts_a_vm_before_placing_it(self):
        rack, alloc = self._serving_rack()
        told = []
        for server in rack.servers:
            server.on_change = lambda s=server: told.append(s.running_vm_count())
        alloc.set_target(4)  # a second VM on the half-full ON server
        assert told == [2]

    def test_pdu_over_capacity_raises_at_every_read(self):
        from repro.power.converters import PowerDistributionUnit

        rack = ServerRack(server_count=4, pdu=PowerDistributionUnit(capacity_w=600.0))
        NodeAllocator(rack).set_target(4)
        assert rack.demand_w == pytest.approx(2 * 280.0 + 2 * 2.0)  # booting
        with pytest.raises(ValueError, match="over capacity"):
            settle(rack)  # the boot completes: two busy servers draw 700 W
        for _ in range(2):
            with pytest.raises(ValueError, match="over capacity"):
                rack.demand_w


class TestAllocator:
    def test_target_maps_to_servers(self, rack):
        alloc = NodeAllocator(rack)
        alloc.set_target(6)
        powered = [s for s in rack.servers if s.state is not ServerState.OFF]
        assert len(powered) == 3

    def test_vm_count_converges(self, rack):
        alloc = NodeAllocator(rack)
        alloc.set_target(6)
        settle(rack)
        assert rack.running_vm_count() == 6
        assert alloc.running_matches_target()

    def test_scale_down_checkpoints(self, rack):
        alloc = NodeAllocator(rack)
        alloc.set_target(8)
        settle(rack)
        alloc.set_target(4)
        settle(rack)
        alloc.sync()
        settle(rack)
        assert rack.running_vm_count() == 4
        assert rack.total_on_off_cycles() >= 2

    def test_zero_target_powers_everything_off(self, rack):
        alloc = NodeAllocator(rack)
        alloc.set_target(8)
        settle(rack)
        alloc.set_target(0)
        settle(rack)
        assert rack.active_servers() == []

    def test_same_target_not_counted(self, rack):
        alloc = NodeAllocator(rack)
        alloc.set_target(4)
        ops = alloc.vm_ctrl_ops
        assert alloc.set_target(4) is False
        assert alloc.vm_ctrl_ops == ops

    def test_target_bounds(self, rack):
        alloc = NodeAllocator(rack)
        with pytest.raises(ValueError):
            alloc.set_target(-1)
        with pytest.raises(ValueError):
            alloc.set_target(9)

    def test_fully_serving(self, rack):
        alloc = NodeAllocator(rack)
        alloc.set_target(4)
        assert not rack.fully_serving()  # still booting
        settle(rack)
        assert rack.fully_serving()
