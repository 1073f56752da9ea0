"""Full-system assembly.

:func:`build_system` wires a complete in-situ installation — power source,
battery bank with relay network and sensing, server rack with allocator,
workload, a power manager (InSURE or baseline) and metric collection — into
one :class:`InSituSystem` stepped by the simulation engine in a fixed
causal order:

    source → controller → rack → plant coupler (bus physics) → metrics

A :class:`SiteSpec` is the one description of a simulated site that both
kernels run: :meth:`SiteSpec.build` assembles it through
:func:`build_system` as the scalar reference, and
:func:`repro.sim.fleet.simulate_fleet` batches many.  :func:`day_site`
describes a case-study day: a named weather's solar day scaled to a mean
power, plus a named workload.

The :class:`PlantCoupler` is the physical glue: each tick it resolves the
power bus and, when the online cabinets cannot cover the demand, emulates
the power loss (emergency shed + workload crash rollback) before feeding
the surviving compute-seconds to the workload.

Every system keeps one :class:`~repro.obs.decisions.DecisionLog`,
``system.decisions``: the record of what the controller and the plant
decided during the run, kept whether or not the run is instrumented.
"""

from __future__ import annotations

from dataclasses import dataclass
from collections.abc import Sequence
from typing import Any, Literal

import numpy as np

from repro.battery.bank import BatteryBank
from repro.battery.charger import SolarCharger
from repro.battery.params import BatteryParams
from repro.cluster.allocator import NodeAllocator, check_vm_capacity
from repro.cluster.profiles import ServerProfile
from repro.cluster.rack import ServerRack
from repro.core.baseline import BaselineController
from repro.core.controller_base import PowerManager
from repro.core.energy_manager import InsureController, InsureParams
from repro.core.sensing import BatteryTelemetry
from repro.obs.decisions import DecisionLog
from repro.obs.hub import Observability
from repro.obs.spans import NULL_TRACER
from repro.power.bus import BusReport, PowerBus
from repro.power.relays import SwitchNetwork
from repro.sim.clock import Clock
from repro.sim.component import Component
from repro.sim.engine import Engine
from repro.sim.rng import RandomStreams
from repro.sim.trace import TraceRecorder
from repro.solar import traces as solar_traces
from repro.solar.field import TracePlayer
from repro.solar.traces import TRACE_START_HOUR, DayTrace
from repro.telemetry.metrics import MetricsCollector, RunSummary
from repro.validate.invariants import InvariantChecker
from repro.workloads import make_workload
from repro.workloads.base import Workload

#: Trace recorder decimation (ticks between samples).
_TRACE_EVERY = 12

#: Shortfall below which the rack rides through (PSU hold-up, DC bus
#: capacitance and the few-percent slack of nameplate power draws); a
#: genuine collapse exceeds this immediately.
_UNSERVED_TOLERANCE_W = 30.0
_UNSERVED_TOLERANCE_FRACTION = 0.03


class PlantCoupler(Component):
    """Physical coupling of source, buffer and load each tick."""

    def __init__(
        self,
        name: str,
        source: Any,
        bus: PowerBus,
        rack: ServerRack,
        workload: Workload,
        decisions: DecisionLog,
    ) -> None:
        super().__init__(name)
        self.source = source
        self.bus = bus
        self.rack = rack
        self.workload = workload
        self.decisions = decisions
        self.last_report: BusReport | None = None
        self.shed_events = 0
        #: Span tracer (a no-op unless observability is attached).
        self.tracer = NULL_TRACER

    def step(self, clock: Clock) -> None:
        solar = self.source.available_power_w
        report = self.bus.resolve(solar, self.rack.record.demand_w, clock.dt)
        self.last_report = report

        compute = self.rack.last_compute_seconds
        shed_threshold = max(_UNSERVED_TOLERANCE_W,
                             _UNSERVED_TOLERANCE_FRACTION * report.demand_w)
        if report.unserved_w > shed_threshold:
            # Power collapse: every powered server browns out at once.
            self.rack.emergency_shed()
            self.workload.on_crash()
            self.shed_events += 1
            self.decisions.record(clock.t, "power.shed", self.name,
                                  unserved_w=report.unserved_w,
                                  demand_w=report.demand_w)
            compute = 0.0
        # The sub-span opens only on the tracer's sampled ticks.
        tracer = self.tracer
        sampling = tracer.sampling
        if sampling:
            tracer.push("plant.workload")
        self.workload.step(clock.t, clock.dt, compute)
        if sampling:
            tracer.pop()


@dataclass
class InSituSystem:
    """Handle bundling every part of an assembled installation."""

    engine: Engine
    source: Component
    bank: BatteryBank
    switchnet: SwitchNetwork
    telemetry: BatteryTelemetry
    rack: ServerRack
    allocator: NodeAllocator
    workload: Workload
    controller: PowerManager
    plant: PlantCoupler
    metrics: MetricsCollector
    recorder: TraceRecorder
    #: What the controller and the plant decided, in order; the
    #: observability bundle's log when built with one.
    decisions: DecisionLog
    #: Physics-invariant observer; None unless built with ``invariants=True``.
    checker: InvariantChecker | None = None
    #: Observability bundle; None unless built with ``observability=...``.
    obs: Observability | None = None

    # Sliced-run bookkeeping (plain class attributes, not dataclass
    # fields; rebound per instance by begin_run).
    _total_steps = 0
    _steps_done = 0

    def run(self, duration_s: float | None = None) -> RunSummary:
        """Run for ``duration_s`` (default: the trace length) and summarise."""
        self.engine.run(self._resolve_duration(duration_s))
        return self.metrics.summary()

    def _resolve_duration(self, duration_s: float | None) -> float:
        if duration_s is not None:
            return duration_s
        trace = getattr(self.source, "trace", None)
        if trace is None:
            raise ValueError("duration_s is required for non-trace sources")
        return trace.duration_s

    # ------------------------------------------------------------------
    # Sliced (non-blocking) stepping — the serve daemon's face
    # ------------------------------------------------------------------
    def begin_run(self, duration_s: float | None = None) -> int:
        """Open a cooperative run; returns its total tick count.

        ``begin_run`` + repeated :meth:`advance` + :meth:`finalize` is
        bit-identical to one :meth:`run` call: the engine's sliced kernel
        takes the same sequence of component steps, so a hosted session
        reproduces the pinned golden summaries exactly.
        """
        self._total_steps = self.engine.begin(self._resolve_duration(duration_s))
        self._steps_done = 0
        return self._total_steps

    @property
    def remaining_steps(self) -> int:
        """Ticks left in the run opened by :meth:`begin_run` (0 = done)."""
        return self._total_steps - self._steps_done

    def advance(self, ticks: int) -> int:
        """Step up to ``ticks`` ticks of the open run, never past its end;
        returns the count executed."""
        executed = self.engine.advance(min(int(ticks), self.remaining_steps))
        self._steps_done += executed
        return executed

    def finalize(self) -> RunSummary:
        """Fire the engine's finish hooks and summarise the run."""
        self.engine.end()
        return self.metrics.summary()


def build_system(
    trace: DayTrace | None,
    workload: Workload,
    controller: Literal["insure", "baseline"] = "insure",
    battery_count: int = 3,
    battery_params: BatteryParams | None = None,
    initial_soc: float = 0.9,
    initial_socs: list[float] | None = None,
    server_count: int = 4,
    server_profile: ServerProfile | None = None,
    insure_params: InsureParams | None = None,
    dt: float = 5.0,
    seed: int = 0,
    source: Component | None = None,
    storage_gb: float | None = None,
    plc_interlocks: bool = False,
    invariants: bool = False,
    invariant_stride: int = 12,
    faults: Sequence | None = None,
    observability: Observability | bool | None = None,
    policies: Sequence | None = None,
) -> InSituSystem:
    """Assemble a complete in-situ installation around a solar day trace.

    Parameters
    ----------
    trace:
        Solar power input (see :mod:`repro.solar.traces`).
    workload:
        The data-processing workload.
    controller:
        ``"insure"`` for the paper's design, ``"baseline"`` for the
        unified-buffer comparison system.
    initial_soc:
        Starting state of charge of every cabinet (``initial_socs`` gives
        per-cabinet values instead).
    source:
        Override power source component (e.g. a live
        :class:`~repro.solar.field.SolarField` or a
        :class:`~repro.solar.field.ConstantSource`); ``trace`` may then
        be None and ``run`` needs an explicit duration.
    storage_gb:
        Attach an on-site raw-data buffer of this capacity; arrivals
        beyond it overwrite the oldest unprocessed data (counted in the
        run summary's ``dropped_gb``).  None disables the constraint.
    plc_interlocks:
        Route battery mode changes through the PLC-resident switch
        program (break-before-make, low-voltage lockout) instead of
        actuating relays directly — the prototype's Fig. 12 hierarchy.
    invariants:
        Attach an :class:`~repro.validate.invariants.InvariantChecker`
        observer asserting energy conservation, battery bounds, charge
        acceptance, wear monotonicity and relay exclusivity every
        ``invariant_stride`` ticks.  Off by default (zero overhead); the
        checker only reads plant state, so enabling it never changes a
        run's trajectory.
    faults:
        Fault injections (see :mod:`repro.core.faults`) applied to the
        fully wired system before it is returned.
    observability:
        Attach an :class:`~repro.obs.hub.Observability` bundle (metrics
        registry, sampled span tracer, ledger, alerts); ``True`` builds a
        default bundle.  Off by default; the instruments only read plant
        state and time the loop, so attaching them never changes a run's
        trajectory (same-seed traces stay bit-identical).  The system
        records its decisions into the bundle's decision log.
    policies:
        :class:`~repro.policy.policy.Policy` overlays (signal × governor ×
        control method) attached to the controller and stepped every tick
        on their own evaluation intervals — e.g. a scenario from
        :mod:`repro.experiments.scenarios`.  None/empty attaches nothing
        and leaves the run bit-identical to an unpolicied one.
    """
    if source is None:
        if trace is None:
            raise ValueError("give either a trace or a source component")
        source = TracePlayer("solar", trace)
        start_hour = trace.start_hour
    else:
        start_hour = trace.start_hour if trace is not None else 7.0
    engine = Engine(dt=dt, start_hour=start_hour)
    obs: Observability | None = None
    if observability:
        obs = observability if isinstance(observability, Observability) \
            else Observability()
    decisions = obs.decisions if obs is not None else DecisionLog()
    streams = RandomStreams(seed)

    bank = BatteryBank.build(count=battery_count, params=battery_params,
                             soc=initial_soc)
    if initial_socs is not None:
        if len(initial_socs) != len(bank):
            raise ValueError("initial_socs length must match battery_count")
        for unit, soc in zip(bank, initial_socs, strict=True):
            unit.kibam.set_soc(soc)
    switchnet = SwitchNetwork([u.name for u in bank])
    telemetry = BatteryTelemetry(bank, streams=streams)
    rack = ServerRack("rack", server_count=server_count, profile=server_profile)
    check_vm_capacity(server_count, rack.profile.vm_slots, workload.preferred_vms)
    allocator = NodeAllocator(rack, cpu_share=workload.cpu_share)
    bus = PowerBus(bank, charger=SolarCharger(), switchnet=switchnet)

    # Sizing constant derived from the actual hardware: the per-VM share
    # of a fully populated machine's power (a ProLiant gives the paper's
    # 350 W / 2 VMs = 175 W; a Core i7 node an order of magnitude less).
    profile = rack.profile
    per_vm_w = profile.power_at(
        workload.cpu_share * profile.vm_slots
    ) / profile.vm_slots

    common = dict(
        bank=bank, switchnet=switchnet, telemetry=telemetry, rack=rack,
        allocator=allocator, workload=workload, source=source,
        decisions=decisions, per_vm_w=per_vm_w,
    )
    if controller == "insure":
        manager: PowerManager = InsureController(
            "insure", params=insure_params, **common
        )
    elif controller == "baseline":
        manager = BaselineController("baseline", **common)
    else:
        raise ValueError(f"unknown controller {controller!r}")

    for policy in policies or ():
        manager.attach_policy(policy, charger=bus.charger)

    if storage_gb is not None:
        from repro.cluster.storage import StorageArray

        workload.attach_storage(StorageArray(capacity_gb=storage_gb))

    if plc_interlocks:
        from repro.core.plc_program import BatterySwitchProgram

        program = BatterySwitchProgram(
            switchnet, [u.name for u in bank],
            v_cutoff=bank[0].params.voltage.v_cutoff,
        )
        telemetry.plc.set_program(program)
        manager.plc_program = program

    plant = PlantCoupler("plant", source, bus, rack, workload, decisions)
    metrics = MetricsCollector("metrics", bank, rack, workload, manager, plant)

    recorder = TraceRecorder(every=_TRACE_EVERY)
    recorder.channel("solar_w", lambda: source.available_power_w)
    recorder.channel("demand_w", lambda: rack.demand_w)
    recorder.channel("stored_wh", lambda: bank.stored_energy_wh)
    recorder.channel("mean_voltage", lambda: bank.mean_voltage)
    recorder.channel("running_vms", lambda: float(rack.running_vm_count()))
    for unit in bank:
        recorder.channel(f"{unit.name}.v",
                         lambda u=unit: u.terminal_voltage)
        recorder.channel(f"{unit.name}.soc", lambda u=unit: u.soc)

    engine.add(source)
    engine.add(manager)
    engine.add(rack)
    engine.add(plant)
    engine.add(metrics)
    engine.observe(recorder, name="recorder", every=recorder.every)

    checker = None
    if invariants:
        checker = InvariantChecker(bank=bank, switchnet=switchnet,
                                   plant=plant, stride=invariant_stride)
        engine.observe(checker, name="invariants", every=checker.stride)

    system = InSituSystem(
        engine=engine, source=source, bank=bank, switchnet=switchnet,
        telemetry=telemetry, rack=rack, allocator=allocator, workload=workload,
        controller=manager, plant=plant, metrics=metrics, recorder=recorder,
        decisions=decisions, checker=checker,
    )
    for fault in faults or ():
        fault.apply(system)
    if obs is not None:
        system.obs = obs.attach(system)
    return system


@dataclass(frozen=True)
class SiteSpec:
    """One simulated site: the description both kernels run.

    :meth:`build` assembles it as the scalar reference system, and
    :func:`repro.sim.fleet.simulate_fleet` steps many in lockstep.
    ``trace_power_w`` / ``trace_dt_s`` are the solar day trace, and the
    trace's step is the simulation step.  Every trace a site receives
    starts at :data:`~repro.solar.traces.TRACE_START_HOUR`, as
    :func:`~repro.solar.traces.make_day_trace` makes them: the fleet
    kernel keeps no hour of day, so a site has none either.  The trace
    may be any 1-D sequence of watts.  A float64 array (a
    :class:`~repro.solar.traces.DayTrace`'s ``power_w``, as
    :func:`day_site` passes it) is kept without a Python object per
    sample, and sites that share one trace object share its storage in a
    fleet batch.
    """

    controller: Literal["insure", "baseline"]
    workload: str
    seed: int
    initial_soc: float
    trace_power_w: Sequence[float] | np.ndarray
    trace_dt_s: float
    battery_count: int = 3
    server_count: int = 4
    duration_s: float | None = None
    #: Policy scenario overlay (a name from
    #: :mod:`repro.experiments.scenarios`); None runs the bare controller.
    scenario: str | None = None

    def resolved_duration_s(self) -> float:
        if self.duration_s is not None:
            return self.duration_s
        return len(self.trace_power_w) * self.trace_dt_s

    def steps(self) -> int:
        # Engine.run: steps = max(1, round(duration / dt))
        return max(1, round(self.resolved_duration_s() / self.trace_dt_s))

    def build(self, **options: Any) -> InSituSystem:
        """The site as a scalar :class:`InSituSystem`.

        ``options`` are :func:`build_system` options the site does not
        describe (``observability``, ``invariants``, ``faults``,
        ``storage_gb``, ``server_profile``, ...); repeating a site field
        there raises ``TypeError``.  A site with a scenario attaches its
        policies, so ``policies`` may only be given for a site without
        one.  :func:`build_system` is looked up through this module at
        call time, so a wrapper patched onto the attribute sees the build.
        """
        site_options: dict[str, Any] = {}
        if self.scenario is not None:
            from repro.experiments.scenarios import build_policies

            site_options["policies"] = build_policies(self.scenario, self.seed)
        trace = DayTrace(TRACE_START_HOUR, self.trace_dt_s,
                         np.asarray(self.trace_power_w, dtype=np.float64))
        return build_system(
            trace, make_workload(self.workload), controller=self.controller,
            battery_count=self.battery_count, server_count=self.server_count,
            initial_soc=self.initial_soc, seed=self.seed, dt=self.trace_dt_s,
            **site_options, **options,
        )


def day_site(
    controller: Literal["insure", "baseline"],
    workload: str,
    weather: str,
    *,
    mean_w: float,
    seed: int,
    initial_soc: float,
    dt: float = 5.0,
    duration_s: float | None = None,
    scenario: str | None = None,
) -> SiteSpec:
    """One case-study day: the ``weather`` solar day scaled to ``mean_w``
    W on average, feeding the named ``workload``.

    ``seed`` seeds both the trace and the system.  The trace synthesiser
    is looked up through its module at call time, so a wrapper patched
    onto the module attribute also sees these days.
    """
    trace = solar_traces.make_day_trace(weather, dt_seconds=dt, seed=seed,
                                        target_mean_w=mean_w)
    return SiteSpec(controller, workload, seed, initial_soc, trace.power_w, dt,
                    duration_s=duration_s, scenario=scenario)
