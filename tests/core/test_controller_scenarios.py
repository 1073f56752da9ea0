"""Targeted controller scenarios: each InSURE mechanism in isolation."""


from repro.battery.unit import BatteryMode
from repro.core.energy_manager import InsureParams
from repro.core.system import build_system
from repro.core.temporal import TemporalParams
from repro.solar.field import ConstantSource
from repro.workloads import SeismicAnalysis, VideoSurveillance

HOUR = 3600.0


def system_with(power_w, workload=None, initial_socs=None, initial_soc=0.9,
                params=None, controller="insure"):
    return build_system(
        None,
        workload or VideoSurveillance(),
        controller=controller,
        source=ConstantSource("solar", power_w),
        initial_soc=initial_soc,
        initial_socs=initial_socs,
        insure_params=params,
        seed=0,
    )


class SmallStream(VideoSurveillance):
    """A two-VM stream: leaves plenty of solar surplus for charging."""

    preferred_vms = 2


class TestChargeToStandbyPromotion:
    def test_charged_cabinet_comes_online(self):
        """A cabinet the SPM charges past 90 % moves to standby (Fig. 8
        transitions 2/5)."""
        system = system_with(1200.0, workload=SmallStream(),
                             initial_socs=[0.95, 0.95, 0.5])
        system.run(5 * HOUR)
        promoted = [
            d for d in system.decisions.of_kind("buffer.mode")
            if d.source == "battery-3" and d.data["to_mode"] == "standby"
            and d.data["reason"] == "capacity-goal"
        ]
        assert promoted
        assert system.bank.by_name("battery-3").soc > 0.8


class TestSocFloorCheckpoint:
    def test_floor_triggers_graceful_stop_not_crash(self):
        """Draining the buffer with no solar must end in a checkpoint
        stop (transition 4), not an uncontrolled power loss."""
        system = system_with(
            0.0, initial_soc=0.45,
            params=InsureParams(temporal=TemporalParams(soc_floor=0.30)),
        )
        summary = system.run(4 * HOUR)
        assert len(system.decisions.of_kind("load.checkpoint_stop")) >= 1
        assert summary.crash_count <= 1
        # The exhausted cabinets were switched out for protection.
        offline = system.bank.in_mode(BatteryMode.OFFLINE, BatteryMode.CHARGING)
        assert len(offline) >= 1


class TestDutyCycling:
    def test_batch_load_gets_duty_capped_when_solar_collapses(self):
        """A batch job sized during good sun keeps its VM count when the
        sun collapses; the TPM must ride the gap on DVFS duty cycling
        (Fig. 11, batch path) before resorting to checkpoints."""
        import numpy as np

        from repro.solar.traces import DayTrace

        dt = 5.0
        good = np.full(int(1.0 * HOUR / dt), 1500.0)
        collapse = np.full(int(1.5 * HOUR / dt), 250.0)
        trace = DayTrace(start_hour=7.0, dt_seconds=dt,
                         power_w=np.concatenate([good, collapse]))
        system = build_system(trace, SeismicAnalysis(), controller="insure",
                              initial_soc=0.95, seed=0)
        system.run()
        duties = [d.data["to_duty"] for d in system.decisions.of_kind("dvfs.duty")]
        assert len(duties) >= 1
        assert min(duties) < 1.0

    def test_ample_solar_keeps_full_duty(self):
        system = system_with(2000.0, workload=SeismicAnalysis(), initial_soc=0.95)
        system.run(2 * HOUR)
        assert system.controller.duty == 1.0


class TestBatchReconfiguration:
    def test_batch_vm_count_grows_under_abundance(self):
        """When duty sits at 1.0 and power is plentiful, the controller
        reconfigures the batch job to more VM instances (rarely)."""
        system = system_with(2000.0, workload=SeismicAnalysis(), initial_soc=0.95)
        system.run(3 * HOUR)
        assert system.controller.vm_target >= 4


class TestSpatialChargingSelection:
    def test_scarce_surplus_charges_one_cabinet_at_a_time(self):
        """Figure 10: with surplus below one cabinet's peak charging
        power, at most one cabinet occupies the charge bus."""
        system = system_with(500.0, initial_socs=[0.4, 0.4, 0.4])
        max_simultaneous = 0

        def watch(clock):
            nonlocal max_simultaneous
            charging = len(system.bank.in_mode(BatteryMode.CHARGING))
            max_simultaneous = max(max_simultaneous, charging)

        system.engine.observe(watch)
        system.run(3 * HOUR)
        # 500 W minus the running load leaves < 1 P_PC of surplus.
        assert max_simultaneous <= 2

    def test_abundant_surplus_charges_several(self):
        system = system_with(1600.0, workload=VideoSurveillance(),
                             initial_socs=[0.3, 0.3, 0.3])
        max_simultaneous = 0

        def watch(clock):
            nonlocal max_simultaneous
            charging = len(system.bank.in_mode(BatteryMode.CHARGING))
            max_simultaneous = max(max_simultaneous, charging)

        system.engine.observe(watch)
        system.run(2 * HOUR)
        assert max_simultaneous >= 2


class TestWearScreening:
    def test_overused_cabinet_rested(self):
        """A cabinet far past its Eq. 1 allowance stays offline while
        fresh cabinets are selected."""
        system = system_with(900.0, initial_socs=[0.4, 0.4, 0.4])
        worn = system.bank.by_name("battery-2")
        worn.wear.discharge_ah = 100.0
        system.telemetry.senses["battery-2"].discharge_ah = 100.0
        charged_ah = dict.fromkeys((u.name for u in system.bank), 0.0)

        def watch(clock):
            for unit in system.bank:
                if unit.last_current < 0.0:
                    charged_ah[unit.name] -= unit.last_current * clock.dt / HOUR

        system.engine.observe(watch)
        system.run(2 * HOUR)
        assert charged_ah["battery-2"] <= charged_ah["battery-1"] + charged_ah["battery-3"]
