"""Server power state machine."""

import pytest

from repro.cluster.profiles import CORE_I7, XEON_DL380, ServerProfile
from repro.cluster.server import Server, ServerState
from repro.cluster.vm import VirtualMachine


@pytest.fixture
def server():
    return Server("pm1", XEON_DL380)


def boot(server, dt=60.0):
    server.power_on()
    while server.state is ServerState.BOOTING:
        server.step(dt)


class TestProfiles:
    def test_power_curve_endpoints(self):
        assert XEON_DL380.power_at(0.0) == 280.0
        assert XEON_DL380.power_at(1.0) == 450.0

    def test_power_clamps_utilisation(self):
        assert XEON_DL380.power_at(2.0) == 450.0

    def test_cycle_overhead_about_15_minutes(self):
        assert XEON_DL380.boot_s + XEON_DL380.save_s == pytest.approx(900.0)

    def test_i7_much_lower_power(self):
        assert CORE_I7.peak_w < XEON_DL380.idle_w / 2

    def test_profile_validation(self):
        with pytest.raises(ValueError):
            ServerProfile(name="bad", idle_w=100.0, peak_w=50.0)
        with pytest.raises(ValueError):
            ServerProfile(name="bad", idle_w=10.0, peak_w=50.0, vm_slots=0)


class TestStateMachine:
    def test_boot_sequence(self, server):
        server.power_on()
        assert server.state is ServerState.BOOTING
        server.step(XEON_DL380.boot_s + 1.0)
        assert server.state is ServerState.ON

    def test_vms_start_after_boot(self, server):
        vm = VirtualMachine("vm1")
        server.place_vm(vm)
        boot(server)
        assert vm.running

    def test_graceful_off_checkpoints(self, server):
        vm = VirtualMachine("vm1")
        server.place_vm(vm)
        boot(server)
        server.power_off()
        assert vm.checkpointed and not vm.running
        assert server.state is ServerState.SAVING
        server.step(XEON_DL380.save_s + 1.0)
        assert server.state is ServerState.OFF
        assert server.on_off_cycles == 1

    def test_emergency_off_loses_state(self, server):
        vm = VirtualMachine("vm1")
        server.place_vm(vm)
        boot(server)
        server.emergency_off()
        assert not vm.checkpointed
        assert server.state is ServerState.OFF
        assert server.crashes == 1

    def test_power_on_only_from_off(self, server):
        server.power_on()
        assert server.power_on() is False

    def test_power_off_only_when_powered(self, server):
        assert server.power_off() is False


class TestPowerAndCompute:
    def test_off_draws_nothing(self, server):
        assert server.power_w == 0.0

    def test_booting_draws_idle(self, server):
        server.power_on()
        assert server.power_w == XEON_DL380.idle_w

    def test_two_busy_vms_350w(self, server):
        server.place_vm(VirtualMachine("a", cpu_share=0.2))
        server.place_vm(VirtualMachine("b", cpu_share=0.2))
        boot(server)
        assert server.power_w == pytest.approx(348.0, abs=5.0)

    def test_duty_reduces_power_and_compute(self, server):
        server.place_vm(VirtualMachine("a"))
        server.place_vm(VirtualMachine("b"))
        boot(server)
        full_power = server.power_w
        full_compute = server.compute_seconds(10.0)
        server.set_duty(0.5)
        assert server.power_w < full_power
        assert server.compute_seconds(10.0) == pytest.approx(0.5 * full_compute)

    def test_no_compute_during_transitions(self, server):
        server.place_vm(VirtualMachine("a"))
        server.power_on()
        assert server.compute_seconds(10.0) == 0.0

    def test_duty_bounds(self, server):
        with pytest.raises(ValueError):
            server.set_duty(0.05)
        with pytest.raises(ValueError):
            server.set_duty(1.5)


class TestVMHosting:
    def test_slot_limit(self, server):
        server.place_vm(VirtualMachine("a"))
        server.place_vm(VirtualMachine("b"))
        with pytest.raises(ValueError):
            server.place_vm(VirtualMachine("c"))

    def test_evict_unknown_vm(self, server):
        with pytest.raises(ValueError):
            server.evict_vm(VirtualMachine("ghost"))
