"""build_system wiring: every knob lands where it should."""

import pytest

from repro.cluster.profiles import CORE_I7
from repro.core.system import build_system
from repro.solar.field import ConstantSource
from repro.solar.traces import make_day_trace
from repro.workloads import VideoSurveillance


def sys_with(**kwargs):
    defaults = dict(source=ConstantSource("solar", 500.0), seed=0)
    defaults.update(kwargs)
    return build_system(None, VideoSurveillance(), **defaults)


class TestAssembly:
    def test_battery_count(self):
        system = sys_with(battery_count=5)
        assert len(system.bank) == 5
        assert len(system.switchnet.pairs) == 5

    def test_server_count_and_profile(self):
        # Five 2-slot servers hold video's 8 VMs (a smaller rack is refused).
        system = sys_with(server_count=5, server_profile=CORE_I7)
        assert len(system.rack.servers) == 5
        assert system.rack.profile is CORE_I7

    def test_per_vm_watts_follow_profile(self):
        xeon = sys_with()
        i7 = sys_with(server_profile=CORE_I7)
        assert xeon.controller.per_vm_w == pytest.approx(174.0, abs=5.0)
        assert i7.controller.per_vm_w < 30.0

    def test_shared_event_log(self):
        system = sys_with()
        assert system.controller.decisions is system.decisions
        assert system.plant.decisions is system.decisions

    def test_bus_bound_to_relays(self):
        system = sys_with()
        assert system.plant.bus.switchnet is system.switchnet

    def test_storage_attachment(self):
        system = sys_with(storage_gb=50.0)
        assert system.workload.storage is not None
        assert system.workload.storage.capacity_gb == 50.0
        assert sys_with().workload.storage is None

    def test_trace_every_decimation(self):
        fine = build_system(
            make_day_trace("sunny", seed=0), VideoSurveillance(),
            seed=0, trace_every=1,
        )
        coarse = build_system(
            make_day_trace("sunny", seed=0), VideoSurveillance(),
            seed=0, trace_every=24,
        )
        fine.run(1800.0)
        coarse.run(1800.0)
        assert len(fine.recorder) > len(coarse.recorder) * 10

    def test_start_hour_from_trace(self):
        trace = make_day_trace("sunny", seed=0)
        system = build_system(trace, VideoSurveillance(), seed=0)
        assert system.engine.clock.hour_of_day == pytest.approx(trace.start_hour)

    def test_recorder_has_per_battery_channels(self):
        system = sys_with(battery_count=2)
        assert "battery-1.v" in system.recorder
        assert "battery-2.soc" in system.recorder

    def test_plc_interlocks_flag(self):
        plain = sys_with()
        locked = sys_with(plc_interlocks=True)
        assert plain.controller.plc_program is None
        assert locked.controller.plc_program is not None
        assert locked.telemetry.plc.program is locked.controller.plc_program
