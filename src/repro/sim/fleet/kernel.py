"""Structure-of-arrays batch kernel for fleets of in-situ sites.

One :class:`_FleetBatch` holds the full plant state of N sites as numpy
arrays — battery wells ``(B, N)``, server states ``(S, N)``, controller
scalars ``(N,)``, each distinct solar trace once in a ``(steps, U)`` table
with a column index per site — and replays the scalar engine's per-tick
component order (source → controller → rack → plant → metrics) with one
vectorized op per physical expression.  No array it holds is sized steps
× N: its memory grows with the sites and the distinct traces, plus the
per-minute voltage samples the summaries' sigma keeps (8 B a site-minute).

The site axis always comes last.  A per-site ``(N,)`` vector then
broadcasts over a bank or rack as it is, every reduction over the cells
of a site runs along axis 0 over contiguous rows of N, and a tick gathers
its solar samples into one contiguous row.  numpy reduces a C-contiguous
``(B, N)`` array over axis 0 row by row, ``((x0 + x1) + x2)``: the order
its pairwise sum takes for fewer than 8 cells along a last axis, so the
layout leaves every sum the scalar-matching order it had.

Numerical contract: every arithmetic expression mirrors the scalar
implementation operation-for-operation (same association order, same
clamps, same ADC rounding), and per-site sensor noise comes from the same
sha256-derived ``RandomStreams`` generators consumed in the same block
pattern.  Elementwise IEEE ops are deterministic, so per-site trajectories
track the scalar kernel to the last ulp except where libm transcendentals
differ; the :class:`~repro.sim.fleet.validator.FleetValidator` gates the
result against scalar golden summaries within the invariant tolerance.

Divergent control flow (mode changes, VM reconciliation, charger
water-filling) is handled with boolean masks, so the per-site axis N
always stays vectorized.  The battery bank keeps one invariant: every
cell takes exactly one KiBaM step per tick (discharge, charge or the idle
leak), plus a trickle step when it floats.  The bus therefore gathers the
tick's per-cell currents into one (B, N) array and integrates the bank
once.  That is bit-identical to the scalar bus stepping cells one by one
because the masks are disjoint, the step has no cross-cell term and every
read of a cell precedes its write.  Two loops keep bank order, each
because it carries a running per-site total and IEEE addition is not
associative: the float pass draining curtailed headroom and the
water-filling budget.

Two families of arrays derive from state that rarely changes, so each
has one owner that rebuilds it lazily: :meth:`_FleetBatch._rack_view`
from the server states, VM placement and duty, and
:meth:`_FleetBatch._bank_view` from the battery modes and relays.
Every write to an input rebinds it through a property setter, which
drops the cached record; none is written in place.
"""

from __future__ import annotations

from dataclasses import dataclass
from collections.abc import Sequence
from typing import NamedTuple

import numpy as np

from repro.battery.charger import FILL_ROUNDS, FLOAT_FRACTION, GRANT_EPSILON_W, SolarCharger
from repro.battery.params import BatteryParams
from repro.battery.voltage import EMF_EXPONENT
from repro.battery.wear import SHELF_MARGIN
from repro.cluster.allocator import check_vm_capacity
from repro.cluster.profiles import XEON_DL380
from repro.cluster.server import SAVING_UTILISATION
from repro.core.baseline import BaselineParams
from repro.core.controller_base import SLOW_EMA_FACTOR, SOLAR_EMA_TAU_S
from repro.core.energy_manager import InsureParams
from repro.core.sensing import (
    I_SCALE, OCV_REST_S, OCV_WEIGHT, PLC_SCAN_PERIOD_S, REST_AMPS, V_SCALE,
)
from repro.core.system import _UNSERVED_TOLERANCE_FRACTION, _UNSERVED_TOLERANCE_W
from repro.policy.controls import DUTY_STEPS, DVFS_CONTROLS, GRID_EPSILON
from repro.policy.governors import BudgetRampGovernor
from repro.power.converters import (
    MAX_LOAD_FRACTION, OHMIC_LOSS_FRACTION, DCDCConverter, PowerDistributionUnit,
)
from repro.power.sensors import NOISE_BLOCK, CurrentTransducer, VoltageTransducer
from repro.sim.rng import RandomStreams
from repro.solar.traces import power_samples
from repro.telemetry.metrics import VOLTAGE_SAMPLE_S
from repro.workloads import SeismicAnalysis, VideoSurveillance
from repro.workloads.base import JOB_EPSILON_GB

__all__ = ["FleetUnsupported", "SiteSpec", "simulate_fleet"]


class FleetUnsupported(RuntimeError):
    """A cell uses features the vectorized kernel cannot batch.

    Callers (the ``fleet`` runner backend, the CLI) treat this as a
    routing signal: fall back to the scalar pool/serial paths.
    """


# repro: allow[kernel-parity] fleet encoding, in repro.battery.unit.BatteryMode order
_OFFLINE, _CHARGING, _STANDBY, _DISCHARGING = 0, 1, 2, 3
# Relay bus attachment (both relays open / charge closed / discharge closed).
_BUS_OFFLINE, _BUS_CHARGE, _BUS_LOAD = 0, 1, 2
#: Bus a mode maps to (repro.power.modes.bus_for_mode).
_BUS_FOR_MODE = (_BUS_OFFLINE, _BUS_CHARGE, _BUS_LOAD, _BUS_LOAD)
# repro: allow[kernel-parity] fleet encoding, in repro.cluster.server.ServerState order
_OFF, _BOOTING, _ON, _SAVING = 0, 1, 2, 3

#: Upper bound, in float64 samples, on the buffered noise of a batch, and
#: on the noise blocks one refill draws per stream.
_NOISE_BUDGET = 1 << 20  # repro: allow[kernel-parity] fleet memory budget
_MAX_REFILL_BLOCKS = 8  # repro: allow[kernel-parity] fleet refill cap

_SUPPORTED_CONTROLLERS = ("insure", "baseline")
_WORKLOADS = {"video": VideoSurveillance, "seismic": SeismicAnalysis}


@dataclass(frozen=True)
class SiteSpec:
    """One site of a fleet batch.

    ``trace_power_w`` / ``trace_dt_s`` are the solar day trace exactly as
    the scalar :class:`~repro.solar.field.TracePlayer` would replay it.
    The trace may be any 1-D sequence of watts.  A float64 array (a
    :class:`~repro.solar.traces.DayTrace`'s ``power_w``, as the experiment
    adapters pass it) is kept without a Python object per sample, and
    sites that share one trace object share its storage in the batch.
    :func:`simulate_fleet` steps the sites sharing (controller, workload,
    battery_count, server_count, dt_s, steps, scenario) as one lockstep
    batch; sites that differ in any of these go to separate batches.
    """

    controller: str
    workload: str
    seed: int
    initial_soc: float
    trace_power_w: Sequence[float] | np.ndarray
    trace_dt_s: float
    battery_count: int = 3  # repro: allow[kernel-parity] build_system default
    server_count: int = 4  # repro: allow[kernel-parity] build_system default
    dt_s: float = 5.0  # repro: allow[kernel-parity] build_system default
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
        return max(1, round(self.resolved_duration_s() / self.dt_s))


def _check_supported(spec: SiteSpec) -> None:
    if spec.controller not in _SUPPORTED_CONTROLLERS:
        raise FleetUnsupported(f"controller {spec.controller!r} not batchable")
    if spec.workload not in _WORKLOADS:
        raise FleetUnsupported(f"workload {spec.workload!r} not batchable")
    if spec.trace_dt_s != spec.dt_s:
        raise FleetUnsupported("trace_dt_s must equal dt_s for the fleet kernel")
    if spec.dt_s < PLC_SCAN_PERIOD_S:
        raise FleetUnsupported("dt below the PLC scan period is not batchable")
    if spec.battery_count < 1 or spec.server_count < 1:
        raise FleetUnsupported("degenerate bank or rack")
    # KiBaM's own check: the scalar build rejects these (NaN included).
    if not 0.0 <= spec.initial_soc <= 1.0:
        raise ValueError(f"initial soc must be in [0,1], got {spec.initial_soc}")
    # The scalar build's own check.
    check_vm_capacity(spec.server_count, XEON_DL380.vm_slots,
                      _WORKLOADS[spec.workload].preferred_vms)
    if spec.scenario is not None:
        _check_scenario_supported(spec)


#: Control methods the batch kernel can apply as masked array ops.
_FLEET_CONTROLS = frozenset({"duty_cap", "vm_retarget", "charge_current_cap"})


def _check_scenario_supported(spec: SiteSpec) -> None:
    """A scenario batches iff its signals are pure functions of time and
    its controls have an array port; anything else (plant-coupled signals
    like SoC/solar-forecast, checkpoint shedding) falls back to scalar."""
    from repro.experiments.scenarios import get_scenario
    from repro.policy.registry import make_signal
    from repro.policy.signals import DiurnalSignal

    try:
        scenario = get_scenario(spec.scenario)
    except ValueError as exc:
        raise FleetUnsupported(str(exc)) from None
    for pdef in scenario.policies:
        # DutyCapControl.bind's own check: the scalar build rejects these.
        if pdef.control in DVFS_CONTROLS and spec.controller != "insure":
            raise ValueError(f"control {pdef.control!r} needs a DVFS duty knob, "
                             f"which the {spec.controller} controller lacks")
        if pdef.control not in _FLEET_CONTROLS:
            raise FleetUnsupported(
                f"policy control {pdef.control!r} not batchable"
            )
        if not isinstance(make_signal(pdef.signal), DiurnalSignal):
            raise FleetUnsupported(
                f"policy signal {pdef.signal!r} reads plant state; "
                "not batchable"
            )


def _check_traces(specs: Sequence[SiteSpec]) -> None:
    """DayTrace's sample rule, applied to each distinct trace object once
    and before any batch runs."""
    checked: set[int] = set()
    for index, spec in enumerate(specs):
        power = spec.trace_power_w
        if id(power) in checked:
            continue
        checked.add(id(power))
        try:
            power_samples(power)
        except ValueError as exc:
            raise ValueError(f"site {index}: {exc}") from None


def simulate_fleet(specs: Sequence[SiteSpec]) -> list[dict]:
    """Run every site and return per-site run summaries (dicts).

    Sites are grouped into homogeneous lockstep batches; results come back
    in input order.  Raises :class:`FleetUnsupported` if any site cannot
    be batched, ValueError for an initial SoC outside [0, 1], a rack too
    small for the workload's VMs or a duty control on a controller without
    a duty knob (as the scalar build does), and for a solar trace that
    breaks :func:`~repro.solar.traces.power_samples` (naming the site).
    """
    for spec in specs:
        _check_supported(spec)
    _check_traces(specs)
    groups: dict[tuple, list[int]] = {}
    for index, spec in enumerate(specs):
        key = (
            spec.controller,
            spec.workload,
            spec.battery_count,
            spec.server_count,
            spec.dt_s,
            spec.steps(),
            spec.scenario,
        )
        groups.setdefault(key, []).append(index)
    out: list[dict | None] = [None] * len(specs)
    for indices in groups.values():
        batch = _FleetBatch([specs[i] for i in indices])
        for where, summary in zip(indices, batch.run(), strict=True):
            out[where] = summary
    return out  # type: ignore[return-value]


class _RackView(NamedTuple):
    """Rack arrays derived from ``sstate``, ``placed`` and ``duty_deci``."""

    demand: np.ndarray      # ServerRack.demand_w, (n,)
    demand_bus: np.ndarray  # DCDCConverter.input_for(demand), (n,)
    shed_w: np.ndarray      # PlantCoupler's shed threshold on demand_bus
    compute: np.ndarray     # compute seconds a tick produces, (n,)
    running: np.ndarray     # running VMs, (n,)
    active: np.ndarray      # sites with a server not OFF, (n,)
    effective: np.ndarray   # power of the servers running VMs, (n,)
    timed: np.ndarray       # BOOTING or SAVING servers, (s, n)
    any_timed: bool


class _BankView(NamedTuple):
    """Relay masks derived from ``mode`` and ``bus``."""

    on_load: np.ndarray       # cells on the load bus, (b, n)
    on_charge: np.ndarray     # cells on the charge bus, (b, n)
    online: np.ndarray        # STANDBY or DISCHARGING cells, (b, n)
    standby: np.ndarray       # STANDBY cells, (b, n)
    load_sites: np.ndarray    # sites with a cell on the load bus, (n,)
    charge_sites: np.ndarray  # sites with a cell on the charge bus, (n,)
    any_charge: bool


def _read_only(view):
    """Freeze a view's arrays: a consumer writing into one would corrupt
    every later reader of the cached record."""
    for field in view:
        if isinstance(field, np.ndarray):
            field.flags.writeable = False
    return view


def _view_input(name: str, view: str) -> property:
    """State array ``name`` whose rebinding drops the cached ``view``."""
    slot = "_" + name

    def fget(self):
        return self.__dict__[slot]

    def fset(self, value):
        self.__dict__[slot] = value
        self.__dict__[view] = None

    return property(fget, fset)


class _FleetBatch:
    """Lockstep SoA simulation of homogeneous sites.

    All mutable state lives in numpy arrays keyed on the site axis; the
    methods below are one-to-one ports of the scalar components they name
    in their docstrings.
    """

    sstate = _view_input("sstate", "_rack")
    placed = _view_input("placed", "_rack")
    duty_deci = _view_input("duty_deci", "_rack")
    mode = _view_input("mode", "_bank")
    bus = _view_input("bus", "_bank")

    def __init__(self, specs: Sequence[SiteSpec]) -> None:
        first = specs[0]
        self.specs = list(specs)
        self.controller = first.controller
        self.workload_kind = first.workload
        self.n = len(specs)
        self.b = first.battery_count
        self.s = first.server_count
        self.dt = first.dt_s
        self.steps = first.steps()
        self._init_constants()
        self._init_trace()
        self._init_battery()
        self._init_noise()
        self._init_servers()
        self._init_controller()
        self._init_workload()
        self._init_metrics()
        self._init_policies()
        # The controller stage, looked up on its module at each call so a
        # wrapper installed there (a tracer) sees every tick.
        from repro.sim.fleet import controllers
        self._controllers = controllers

    # ------------------------------------------------------------------
    # Setup
    # ------------------------------------------------------------------
    def _init_constants(self) -> None:
        # The scalar objects build_system wires own every parameter; the
        # batch keeps only what it derives from them, with the scalar
        # code's own expressions, so batched arithmetic starts bit-identical.
        dt = self.dt
        self.dt_h = dt / 3600.0
        self.battery = battery = BatteryParams()
        self.server = XEON_DL380
        self.charger = SolarCharger()
        self.converter = DCDCConverter()
        self.pdu = PowerDistributionUnit()
        self.params = InsureParams() if self.controller == "insure" else BaselineParams()
        cap, c = battery.capacity_ah, battery.kibam.c
        # KiBaM.apply_current and _clamp_wells
        self.k_eff = battery.kibam.k_per_hour * c * (1.0 - c) * cap
        self.y1_cap = c * cap
        self.y2_cap = (1.0 - c) * cap
        # ChargeAcceptance.max_current (bulk, floor) and SolarCharger.float_step
        self.acc_bulk = battery.acceptance.bulk_c_rate * cap
        self.float_amps = battery.acceptance.float_c_rate * cap
        # BatteryUnit.idle
        leak_ah = battery.self_discharge_per_day * cap * dt / 86400.0
        self.leak_amps = leak_ah * 3600.0 / dt
        # Sensing chain, one row per channel (voltage, current): the
        # transducer's range, noise sigma and ADC levels, then the PLC
        # register scale.
        rows = [(t.lo, t.hi, t.noise_std, t.levels, scale)
                for t, scale in ((VoltageTransducer(float), V_SCALE),
                                 (CurrentTransducer(float), I_SCALE))]
        (self.sense_lo, self.sense_hi, self.sense_sigma, self.sense_levels,
         self.sense_scale) = (
            np.array(column, dtype=np.float64)[:, None, None]
            for column in zip(*rows)
        )
        self.sense_span = self.sense_hi - self.sense_lo
        # Index arrays that invert a per-site permutation of the bank:
        # rank[order, sites] = bank_rows.
        self.sites = np.arange(self.n)
        self.bank_rows = np.arange(self.b)[:, None]

    def _init_trace(self) -> None:
        # Sites often share one trace object (and a frozen spec never
        # rebinds it): each distinct one is converted once, its first
        # ``steps`` samples stored in one column of a (steps, u) table,
        # zero past its end, and each site keeps its column's index.
        columns: dict[int, int] = {}
        traces = []
        site_column = []
        for spec in self.specs:
            power = spec.trace_power_w
            if id(power) not in columns:
                columns[id(power)] = len(traces)
                traces.append(power)
            site_column.append(columns[id(power)])
        self._trace_col = np.array(site_column, dtype=np.intp)
        self._trace = np.zeros((self.steps, len(traces)), dtype=np.float64)
        for column, power in zip(self._trace.T, traces, strict=True):
            samples = np.asarray(power[:self.steps], dtype=np.float64)
            column[:len(samples)] = samples

    def _init_battery(self) -> None:
        n, b = self.n, self.b
        soc0 = np.array([s.initial_soc for s in self.specs], dtype=np.float64)
        # BatteryUnit.__init__: y1 = soc*c*cap, y2 = soc*(1-c)*cap
        cap, c = self.battery.capacity_ah, self.battery.kibam.c
        self.y1 = np.repeat((soc0 * c * cap)[None, :], b, axis=0)
        self.y2 = np.repeat((soc0 * (1.0 - c) * cap)[None, :], b, axis=0)
        # The two quantities the sensing chain reads, terminal voltage and
        # last current, as the rows of one array written in place.
        self._source = np.zeros((2, b, n), dtype=np.float64)
        self._tick_tv, self.last_i = self._source
        # The current of every cell in the bank's one step, filled per tick.
        self._amps = np.empty((b, n), dtype=np.float64)
        self.mode = np.full((b, n), _STANDBY, dtype=np.int8)
        self.bus = np.full((b, n), _BUS_OFFLINE, dtype=np.int8)
        self.wear_dis = np.zeros((b, n), dtype=np.float64)
        self.wear_wt = np.zeros((b, n), dtype=np.float64)
        # Sensed state (repro.core.sensing.BatterySense)
        self.sense_v = np.zeros((b, n), dtype=np.float64)
        self.sense_i = np.zeros((b, n), dtype=np.float64)
        self.est = np.repeat(soc0[None, :], b, axis=0)
        self.sense_dis = np.zeros((b, n), dtype=np.float64)
        self.rest_s = np.zeros((b, n), dtype=np.float64)
        self._refresh_voltage()

    def _init_noise(self) -> None:
        # One generator per (site, battery, channel), seeded exactly like
        # the scalar sensing chain: RandomStreams(seed).stream(name).
        self._gen_v = []
        self._gen_i = []
        for spec in self.specs:
            streams = RandomStreams(spec.seed)
            row_v, row_i = [], []
            for unit in range(self.b):
                row_v.append(streams.stream(f"sense.battery-{unit + 1}.v"))
                row_i.append(streams.stream(f"sense.battery-{unit + 1}.i"))
            self._gen_v.append(row_v)
            self._gen_i.append(row_i)
        # Refill amortization: small batches take several 256-sample blocks
        # per refill (PCG64 draws are stream-sequential, so one call for
        # k*256 samples yields the same bits as k consecutive 256-sample
        # calls).  Both channels of all n*b cells count against the
        # budget, so large batches keep one 256-sample block.
        cells = 2 * self.n * self.b
        mult = max(1, min(_MAX_REFILL_BLOCKS, _NOISE_BUDGET // (NOISE_BLOCK * cells)))
        self.noise_block = NOISE_BLOCK * mult
        # Stream-major: every stream refills one contiguous row in place,
        # and a tick reads its (2, b, n) slot across the rows.
        self._blk = np.empty(
            (2, self.b, self.n, self.noise_block), dtype=np.float64
        )
        # Per-channel (block, b, n) views of the same buffer.
        self._blk_v, self._blk_i = np.moveaxis(self._blk, -1, 1)

    def _refill_noise(self) -> None:
        # The scalar transducer refills a 256-sample block when exhausted;
        # one read per tick keeps blocks aligned to tick 0, 256, 512, ...
        for i in range(self.n):
            for unit in range(self.b):
                self._gen_v[i][unit].standard_normal(out=self._blk[0, unit, i])
                self._gen_i[i][unit].standard_normal(out=self._blk[1, unit, i])

    def _init_servers(self) -> None:
        n, s = self.n, self.s
        self.sstate = np.full((s, n), _OFF, dtype=np.int8)
        self.stimer = np.zeros((s, n), dtype=np.float64)
        self.placed = np.zeros((s, n), dtype=np.int64)
        self.crashes = np.zeros(n, dtype=np.int64)
        self.on_off = np.zeros(n, dtype=np.int64)
        self.duty_deci = np.full(n, DUTY_STEPS, dtype=np.int64)  # duty = deci / steps
        self.vm_target = np.zeros(n, dtype=np.int64)   # controller's view
        self.alloc_target = np.zeros(n, dtype=np.int64)  # allocator's view
        self.vm_ops = np.zeros(n, dtype=np.int64)
        self.switch_ops = np.zeros(n, dtype=np.int64)
        self.last_compute = np.zeros(n, dtype=np.float64)

    def _init_controller(self) -> None:
        n = self.n
        # PowerManager's solar EMAs, fast and slow, as the rows of one
        # array stepped in place with a per-row smoothing factor.
        self._ema = np.zeros((2, n), dtype=np.float64)
        self.ema, self.ema_slow = self._ema
        self._ema_alpha = np.array([
            [min(1.0, self.dt / SOLAR_EMA_TAU_S)],
            [min(1.0, self.dt / (SOLAR_EMA_TAU_S * SLOW_EMA_FACTOR))],
        ])
        inf = np.full(n, np.inf, dtype=np.float64)
        if self.controller == "insure":
            self.since_up = inf.copy()
            self.since_down = inf.copy()
            self.since_batch = inf.copy()
            self.since_crash = inf.copy()
            self.seen_crashes = np.zeros(n, dtype=np.int64)
            self.protect = np.zeros((self.b, n), dtype=bool)
            self.elastic_bonus = np.zeros(n, dtype=np.float64)
            self._tpm_elapsed = float("inf")
            self._spm_elapsed = float("inf")
            sp = self.params.spatial
            self.budget = BudgetRampGovernor(sp.lifetime_ah, sp.design_life_days)
        else:
            self.since_up = inf
            self.buffer_online = np.zeros(n, dtype=bool)
            self.trip_pending = np.zeros(n, dtype=bool)
            self._ctl_elapsed = float("inf")

    def _init_workload(self) -> None:
        # Arrivals are site-independent: drive the real scalar workload's
        # _generate over the whole horizon once and record the schedule.
        wl = _WORKLOADS[self.workload_kind]()
        video = isinstance(wl, VideoSurveillance)
        self.ckpt_interval = wl.checkpoint_interval_s
        self.gb_rate = wl.gb_per_compute_second
        self.preferred_vms = wl.preferred_vms
        self.actuation = wl.actuation
        self.cpu_share = wl.cpu_share
        self.job_size = wl.chunk_gb if video else wl.job_size_gb
        # Workload._job_delay and the censored mean_delay_minutes count lag
        # beyond ideal service; VideoSurveillance._job_delay beyond the chunk.
        self.censor_offset = self.job_size / (
            self.gb_rate * max(self.preferred_vms, 1)
        )
        self.delay_offset = wl.chunk_seconds if video else self.censor_offset
        # Controller.per_vm_w as build_system derives it.
        srv = self.server
        self.per_vm_w = srv.power_at(self.cpu_share * srv.vm_slots) / srv.vm_slots
        arr_t: list[float] = [job.arrival_t for job in wl.queue.pending]
        arr_dl: list[float] = [
            (job.deadline_t if job.deadline_t is not None else np.nan)
            for job in wl.queue.pending
        ]
        self.n_initial = len(arr_t)
        n_by_tick = np.zeros(self.steps, dtype=np.int64)
        seen = len(arr_t)
        for k in range(self.steps):
            wl._generate(k * self.dt, self.dt)
            while seen < len(wl.queue.pending):
                job = wl.queue.pending[seen]
                arr_t.append(job.arrival_t)
                arr_dl.append(
                    job.deadline_t if job.deadline_t is not None else np.nan
                )
                seen += 1
            n_by_tick[k] = seen
        self.arr_t = np.asarray(arr_t, dtype=np.float64)
        self.arr_dl = np.asarray(arr_dl, dtype=np.float64)
        self.n_by_tick = n_by_tick
        self.has_deadlines = bool(len(arr_dl)) and not np.isnan(self.arr_dl).all()

        n = self.n
        self.head_idx = np.zeros(n, dtype=np.int64)
        self.head_done = np.zeros(n, dtype=np.float64)
        self.head_ckpt = np.zeros(n, dtype=np.float64)
        self.processed = np.zeros(n, dtype=np.float64)
        self.delay_sum = np.zeros(n, dtype=np.float64)
        self.delay_count = np.zeros(n, dtype=np.int64)
        self.dl_total = np.zeros(n, dtype=np.int64)
        self.dl_miss = np.zeros(n, dtype=np.int64)
        self.crash_count = np.zeros(n, dtype=np.int64)
        self._since_ckpt = 0.0

    def _init_policies(self) -> None:
        """Policy scenario overlay (port of repro.policy.policy.Policy).

        ``charge_cap`` always exists and defaults to 1.0 — the charger
        multiplies the surplus by it, an IEEE identity, so scenario-free
        batches stay bit-identical to the pre-policy kernel.  Each policy
        column holds the *scalar* per-site signal and governor objects and
        evaluates them at firing ticks: the limits carry the same libm
        bits as the scalar path, so discrete decisions (zone edges, step
        thresholds, duty quantisation) can never diverge between kernels.
        """
        self.charge_cap = np.ones(self.n, dtype=np.float64)
        self.policy_columns: list[dict] = []
        scenario = self.specs[0].scenario
        if scenario is None:
            return
        from repro.experiments.scenarios import build_policies, get_scenario

        sspec = get_scenario(scenario)
        per_site = [build_policies(scenario, spec.seed) for spec in self.specs]
        for j, pdef in enumerate(sspec.policies):
            self.policy_columns.append({
                "control": pdef.control,
                "interval_s": pdef.interval_s,
                # Same first-tick firing as Policy._elapsed = inf.
                "elapsed": float("inf"),
                "policies": [site[j] for site in per_site],
            })

    def _policy_step(self, k: int) -> None:
        """Step each policy column on its own evaluation cadence.

        Runs where the scalar managers step their overlays: after the
        InSURE TPM/SPM pass, before the baseline's decide gate.  The
        per-site evaluation loop only runs at firing ticks (hundreds of
        seconds apart), so the batch stays vectorized where it matters.
        """
        for column in self.policy_columns:
            column["elapsed"] += self.dt
            if column["elapsed"] < column["interval_s"]:
                continue
            column["elapsed"] = 0.0
            t = k * self.dt
            limits = np.array(
                [pol.governor.limit(pol.reading(t))
                 for pol in column["policies"]],
                dtype=np.float64,
            )
            clamped = np.minimum(np.maximum(limits, 0.0), 1.0)
            control = column["control"]
            if control == "duty_cap":
                # quantize_duty + "only ever lowers" (DutyCapControl),
                # floored at the one-quantum hardware minimum.
                caps = np.maximum(np.floor(clamped * DUTY_STEPS + GRID_EPSILON).astype(np.int64), 1)
                self.duty_deci = np.minimum(self.duty_deci, caps)
            elif control == "vm_retarget":
                # VmRetargetControl: cap the preferred-VM fraction.
                fit = np.floor(clamped * self.preferred_vms + GRID_EPSILON)
                caps = np.minimum(self.preferred_vms, fit.astype(np.int64))
                mask = self.vm_target > caps
                self.vm_target = np.where(mask, caps, self.vm_target)
                self._set_target(mask, caps)
            else:  # charge_current_cap
                # ChargeCurrentCapControl: same end state as set-if-changed.
                self.charge_cap = clamped

    def _init_metrics(self) -> None:
        n, dt, dt_h = self.n, self.dt, self.dt_h
        # MetricsCollector's seven integrals and what each integrates per
        # tick, one row apiece: uptime (1 while VMs run), stored Wh of the
        # online cells, demand, effective power, solar, solar used and
        # curtailed power.  A tick scales every row by its step, seconds
        # or hours, and adds it to its integral in one pass.
        self._row_step = np.array([dt, dt, dt_h, dt_h, dt_h, dt_h, dt_h])[:, None]
        self._integrals = np.zeros((len(self._row_step), n), dtype=np.float64)
        (self.uptime_s, self.stored_int, self.load_wh, self.eff_wh,
         self.solar_wh, self.used_wh, self.curt_wh) = self._integrals
        self._rows = np.zeros_like(self._integrals)
        # The plant step writes the demand and curtailed rows; the charge
        # power is its scratch for the solar-used row.
        (self._up_row, self._stored_row, self._metrics_demand, self._eff_row,
         self._solar_row, self._used_row, self._rep_curtailed) = self._rows
        self._rep_solar_to_load = np.zeros(n, dtype=np.float64)
        self._rep_charge_power = np.zeros(n, dtype=np.float64)
        self.min_v = np.full(n, np.inf, dtype=np.float64)
        self.vsamples: list[np.ndarray] = []
        self._since_vsample = float("inf")
        self._elapsed = 0.0

    # ------------------------------------------------------------------
    # Battery physics (ports of repro.battery.*)
    # ------------------------------------------------------------------
    def _emf(self, y1: np.ndarray) -> np.ndarray:
        volt = self.battery.voltage
        head = np.minimum(np.maximum(y1 / self.y1_cap, 0.0), 1.0)
        shaped = head**EMF_EXPONENT
        return volt.emf_empty + (volt.emf_full - volt.emf_empty) * shaped

    def _terminal_voltage(self, emf: np.ndarray, amps: np.ndarray) -> np.ndarray:
        v = emf - amps * self.battery.voltage.r_internal_ohm
        return np.where(amps < 0.0, np.minimum(v, self.battery.voltage.v_charge_max), v)

    def _refresh_voltage(self) -> None:
        """EMF and terminal voltage of every cell at the tick boundary.

        Only the bus pass writes ``y1`` and ``last_i``, so what the metrics
        step refreshes at the end of tick k is exactly what the sensing
        chain, the discharge split and the charger read during tick k+1.
        """
        self._tick_emf = self._emf(self.y1)
        self._tick_tv[...] = self._terminal_voltage(self._tick_emf, self.last_i)

    def _diffusion(self) -> np.ndarray:
        """KiBaM's diffusion over one tick, k' * (h2 - h1) * dt, of every
        cell at its current wells: the term KiBaM.apply_current and
        KiBaM.max_discharge_current both take from the same state."""
        return self.k_eff * (self.y2 / self.y2_cap - self.y1 / self.y1_cap) * self.dt_h

    def _kibam_step(self, amps, diffusion: np.ndarray):
        """KiBaM Euler step of every cell; returns the new (y1, y2) and
        the Ah moved (signed), leaving the state untouched.

        ``amps`` may be a (b, n) array or a python float (broadcast);
        either way each cell sees the exact scalar expression tree.
        ``diffusion`` is :meth:`_diffusion` of the current wells.
        """
        requested = amps * self.dt_h
        y1n = self.y1 - requested + diffusion
        y2n = self.y2 - diffusion
        # KiBaM._clamp_wells: what the clip cuts off is the discharge
        # shortfall (requested + y1n) or the charge overflow (requested +
        # (y1n - cap)); inside the range y1n - y1n adds an exact zero.
        y1c = np.minimum(np.maximum(y1n, 0.0), self.y1_cap)
        moved = requested + (y1n - y1c)
        np.maximum(y2n, 0.0, out=y2n)
        np.minimum(y2n, self.y2_cap, out=y2n)
        return y1c, y2n, moved

    def _kibam_apply(self, mask: np.ndarray, amps) -> np.ndarray:
        """KiBaM Euler step on masked cells; returns Ah moved (signed)."""
        y1n, y2n, moved = self._kibam_step(amps, self._diffusion())
        np.putmask(self.y1, mask, y1n)
        np.putmask(self.y2, mask, y2n)
        return moved

    def _max_discharge_current(self, diffusion: np.ndarray) -> np.ndarray:
        """BatteryUnit.max_discharge_current for every cell, given
        :meth:`_diffusion` of the current wells."""
        kinetic = np.maximum(0.0, (self.y1 + diffusion) / self.dt_h)
        headroom = self._tick_emf - self.battery.voltage.v_cutoff
        cutoff = np.maximum(0.0, headroom / self.battery.voltage.r_internal_ohm)
        return np.maximum(0.0, np.minimum(kinetic, cutoff))

    def _acceptance_max_current(self, soc: np.ndarray) -> np.ndarray:
        acc = self.battery.acceptance
        soc_c = np.minimum(np.maximum(soc, 0.0), 1.0)
        frac = (soc_c - acc.taper_start_soc) / (1.0 - acc.taper_start_soc)
        tapered = np.maximum(
            self.acc_bulk * np.exp(-acc.taper_exponent * frac), self.float_amps
        )
        return np.where(soc_c <= acc.taper_start_soc, self.acc_bulk, tapered)

    def _acceptance_effective(
        self, applied: np.ndarray, soc: np.ndarray, max_current: np.ndarray
    ) -> np.ndarray:
        """ChargeAcceptance.effective_current, given max_current(soc)."""
        acc = self.battery.acceptance
        accepted = np.minimum(applied, max_current)
        accepted = np.maximum(0.0, accepted - acc.parasitic_amps)
        gass = soc > acc.gassing_soc
        frac = np.minimum(
            (soc - acc.gassing_soc) / (1.0 - acc.gassing_soc), 1.0
        )
        derated = accepted * (1.0 - acc.gassing_fraction * frac)
        accepted = np.where(gass, derated, accepted)
        return np.where(applied <= 0.0, 0.0, accepted)

    def _record_discharge_wear(
        self, cells: np.ndarray, amps: np.ndarray, soc_before: np.ndarray
    ) -> None:
        """WearModel.record for the discharging cells."""
        wear = self.battery.wear
        ah = np.abs(amps) * self.dt / 3600.0
        c_rate = amps / self.battery.capacity_ah
        stress = np.where(
            c_rate > wear.stress_c_rate,
            1.0 + wear.stress_rate_slope * (c_rate - wear.stress_c_rate),
            1.0,
        )
        stress = np.where(
            soc_before < wear.deep_soc,
            stress + wear.deep_slope * (wear.deep_soc - soc_before),
            stress,
        )
        np.putmask(self.wear_dis, cells, self.wear_dis + ah)
        np.putmask(self.wear_wt, cells, self.wear_wt + ah * stress)

    # ------------------------------------------------------------------
    # Rack / servers (ports of repro.cluster.*)
    # ------------------------------------------------------------------
    def _rack_view(self) -> _RackView:
        """The rack arrays of the current server states, VMs and duty."""
        if self._rack is None:
            self._rack = self._build_rack_view()
        return self._rack

    def _server_power(
        self, sstate: np.ndarray, placed: np.ndarray, duty: np.ndarray
    ) -> np.ndarray:
        """Server.power_w of every (server, site): ON at the utilisation of
        its placed VMs (all of them run on an ON server), BOOTING at idle,
        SAVING at SAVING_UTILISATION, OFF at zero."""
        srv = self.server
        util = np.minimum(1.0, self.cpu_share * placed * duty)
        power = np.where(
            sstate == _ON, srv.idle_w + (srv.peak_w - srv.idle_w) * util, 0.0
        )
        power = np.where(sstate == _BOOTING, srv.idle_w, power)
        return np.where(sstate == _SAVING, srv.power_at(SAVING_UTILISATION), power)

    def _build_rack_view(self) -> _RackView:
        sstate, placed, srv = self.sstate, self.placed, self.server
        duty = self.duty_deci / DUTY_STEPS
        on = sstate == _ON
        booting = sstate == _BOOTING
        saving = sstate == _SAVING
        power = self._server_power(sstate, placed, duty)
        # ServerRack.demand_w: per-server power plus PDU port overhead.
        ports = (power > 0.0).sum(axis=0)
        demand = power.sum(axis=0) + self.pdu.port_overhead_w * ports
        demand_bus = self._converter_input(demand)
        running = placed * on
        timed = booting | saving
        return _read_only(_RackView(
            demand=demand,
            demand_bus=demand_bus,
            shed_w=np.maximum(_UNSERVED_TOLERANCE_W, _UNSERVED_TOLERANCE_FRACTION * demand_bus),
            compute=np.where(on, placed * duty * srv.relative_speed * self.dt, 0.0).sum(axis=0),
            running=running.sum(axis=0),
            active=(sstate != _OFF).any(axis=0),
            effective=np.where(running > 0, power, 0.0).sum(axis=0),
            timed=timed,
            any_timed=np.count_nonzero(timed) > 0,
        ))

    def _rack_step(self) -> None:
        """ServerRack.step: advance lifecycle timers, accumulate compute."""
        rack = self._rack_view()
        if rack.any_timed:
            np.putmask(self.stimer, rack.timed, self.stimer - self.dt)
            done = rack.timed & (self.stimer <= 0.0)
            if np.count_nonzero(done):
                # BOOTING -> ON starts every placed VM; SAVING -> OFF
                # counts a cycle.
                saved = done & (self.sstate == _SAVING)
                self.sstate = np.where(
                    saved, _OFF, np.where(done, _ON, self.sstate)
                )
                self.on_off += saved.sum(axis=0)
                rack = self._rack_view()
        # Compute seconds produced this tick (after stepping, like scalar).
        self.last_compute = rack.compute

    # ------------------------------------------------------------------
    # VM allocator (port of repro.cluster.allocator.NodeAllocator)
    # ------------------------------------------------------------------
    def _reconcile(self, mask: np.ndarray, target: np.ndarray) -> None:
        """NodeAllocator.reconcile on the masked sites (callers pass a
        non-empty mask).

        The keep list is the powered servers (ON or BOOTING) then the
        rest, each in rack order; its first ``needed`` servers are kept.
        Walking it, every kept server that is not SAVING takes
        min(slots, VMs left), so the one with k such servers ahead of it
        takes min(slots, max(0, target - slots * k)).  That is integer
        arithmetic, exact in any order, so the walk is a few prefix sums
        over the whole rack: no per-site sort.
        """
        slots = self.server.vm_slots
        sstate = self.sstate
        needed = np.where(target > 0, (target + slots - 1) // slots, 0)
        powered = (sstate == _ON) | (sstate == _BOOTING)
        unpowered = ~powered
        # Position in the keep list: powered servers before this one, or
        # all powered servers plus the unpowered ones before this one.
        keep = np.where(
            powered,
            np.cumsum(powered, axis=0) - powered,
            powered.sum(axis=0) + (np.cumsum(unpowered, axis=0) - unpowered),
        ) < needed
        drop = mask & ~keep
        # Drop pass: strip VMs (one op each), then graceful power-off.
        stripped = np.where(drop, self.placed, 0)
        power_off = drop & powered
        if np.count_nonzero(stripped) or np.count_nonzero(power_off):
            self.vm_ops += stripped.sum(axis=0)
            self.placed = np.where(drop, 0, self.placed)
            self.sstate = sstate = np.where(power_off, _SAVING, sstate)
            np.putmask(self.stimer, power_off, self.server.save_s)
        # Keep pass: boot the OFF servers, fill the ones not SAVING.
        act = mask & keep
        boot = act & (sstate == _OFF)
        if np.count_nonzero(boot):
            self.sstate = np.where(boot, _BOOTING, sstate)
            np.putmask(self.stimer, boot, self.server.boot_s)
        fit = act & (sstate != _SAVING)
        fit_powered = fit & powered
        fit_unpowered = fit ^ fit_powered
        ahead = np.where(
            powered,
            np.cumsum(fit_powered, axis=0) - fit_powered,
            fit_powered.sum(axis=0)
            + (np.cumsum(fit_unpowered, axis=0) - fit_unpowered),
        )
        want = np.minimum(slots, np.maximum(0, target - slots * ahead))
        ops = np.where(fit, np.abs(want - self.placed), 0)
        if np.count_nonzero(ops):
            self.vm_ops += ops.sum(axis=0)
            self.placed = np.where(fit, want, self.placed)

    def _set_target(self, mask: np.ndarray, target: np.ndarray) -> None:
        """NodeAllocator.set_target: one op + reconcile when it changes."""
        changed = mask & (target != self.alloc_target)
        if not np.count_nonzero(changed):
            return
        self.vm_ops += changed
        np.putmask(self.alloc_target, changed, target)
        self._reconcile(changed, np.where(changed, target, 0))

    # ------------------------------------------------------------------
    # Relay transitions
    # ------------------------------------------------------------------
    def _bank_view(self) -> _BankView:
        """The relay masks of the current battery modes and buses."""
        if self._bank is None:
            self._bank = self._build_bank_view()
        return self._bank

    def _build_bank_view(self) -> _BankView:
        mode, bus = self.mode, self.bus
        on_load = bus == _BUS_LOAD
        on_charge = bus == _BUS_CHARGE
        standby = mode == _STANDBY
        charge_sites = on_charge.any(axis=0)
        return _read_only(_BankView(
            on_load=on_load,
            on_charge=on_charge,
            online=standby | (mode == _DISCHARGING),
            standby=standby,
            load_sites=on_load.any(axis=0),
            charge_sites=charge_sites,
            any_charge=np.count_nonzero(charge_sites) > 0,
        ))

    def _transition(self, cells: np.ndarray, mode_code: int) -> None:
        """Controller.transition: mode change + relay attach bookkeeping."""
        bus_code = _BUS_FOR_MODE[mode_code]
        change = cells & (self.mode != mode_code)
        if not np.count_nonzero(change):
            return
        ops = change & (self.bus != bus_code)
        self.switch_ops += ops.sum(axis=0)
        self.mode = np.where(change, mode_code, self.mode)
        self.bus = np.where(change, bus_code, self.bus)

    # ------------------------------------------------------------------
    # Sensing chain (ports of repro.power.{sensors,plc,modbus} + sensing)
    # ------------------------------------------------------------------
    def _sense(self, k: int) -> None:
        slot = k % self.noise_block
        if slot == 0:
            self._refill_noise()
        # Transducer.read on both channels at once: noise, clip to the
        # input range, ADC quantisation, then the PLC register encode
        # (fixed point) and Modbus decode, in place.  IEEE addition and
        # multiplication commute, so noise + source is source + noise bit
        # for bit and every step is the scalar expression's.
        value = self.sense_sigma * self._blk[..., slot]
        value += self._source
        lo, span, levels, scale = (
            self.sense_lo, self.sense_span, self.sense_levels, self.sense_scale
        )
        np.maximum(value, lo, out=value)
        np.minimum(value, self.sense_hi, out=value)
        value -= lo
        value /= span
        value *= levels
        np.rint(value, out=value)
        value *= span
        value /= levels
        value += lo
        value *= scale
        np.rint(value, out=value)
        value /= scale
        self.sense_v, self.sense_i = value
        # BatteryTelemetry._update_estimates
        current = self.sense_i
        delta_ah = current * self.dt / 3600.0
        est = self.est - delta_ah / self.battery.capacity_ah
        np.maximum(est, 0.0, out=est)
        np.minimum(est, 1.0, out=est)
        self.est = est
        np.putmask(self.sense_dis, current > REST_AMPS, self.sense_dis + delta_ah)
        self.rest_s = np.where(np.abs(current) < REST_AMPS, self.rest_s + self.dt, 0.0)
        # Rest time is zero off the resting cells, so this is resting &
        # rested long enough.  Some cell nearly always is, so the anchor
        # is blended every tick.
        anchor = self.rest_s >= OCV_REST_S
        volt = self.battery.voltage
        frac = (self.sense_v - volt.emf_empty) / (volt.emf_full - volt.emf_empty)
        np.maximum(frac, 0.0, out=frac)
        np.minimum(frac, 1.0, out=frac)
        ocv = np.power(frac, 1.0 / EMF_EXPONENT, out=frac)
        np.putmask(est, anchor, (1.0 - OCV_WEIGHT) * est + OCV_WEIGHT * ocv)

    def _update_ema(self, solar: np.ndarray) -> None:
        # ema + alpha * (solar - ema) for both EMAs: one row, one alpha each.
        step = solar - self._ema
        step *= self._ema_alpha
        self._ema += step

    # ------------------------------------------------------------------
    # Power bus (port of repro.power.bus.PowerBus.resolve)
    # ------------------------------------------------------------------
    def _converter_input(self, demand: np.ndarray) -> np.ndarray:
        """DCDCConverter.input_for, vectorized (demand is 0 or >= idle_w)."""
        conv = self.converter
        load = np.minimum(demand / conv.rated_w, MAX_LOAD_FRACTION)
        ohmic = OHMIC_LOSS_FRACTION * load * load * conv.rated_w
        losses = conv.fixed_loss_w + ohmic
        base = demand / np.where(demand > 0.0, demand + losses, 1.0)
        eff = np.minimum(base, conv.peak_efficiency)
        out = demand / np.where(demand > 0.0, eff, 1.0)
        return np.where(demand > 0.0, out, 0.0)

    def _bus_resolve(self, solar: np.ndarray, rack: _RackView) -> np.ndarray:
        """One tick of power flow; returns unserved_w per site.

        The discharge split and the charger read only tick-start battery
        state, so they just choose each cell's current; the bank then
        takes its one KiBaM step and the float pass trickles the untouched
        standby cells.  Fills the metrics rows with the BusReport fields
        the collector consumes.
        """
        bank = self._bank_view()
        demand_bus = rack.demand_bus
        solar_to_load = np.minimum(solar, demand_bus)
        deficit = demand_bus - solar_to_load
        surplus = solar - solar_to_load
        # Tick-start state both paths read: the wells' diffusion, and the
        # state of charge once a path needs it.
        diffusion = self._diffusion()
        soc = None

        # Cells no path claims idle (BatteryUnit.idle): leak, last_i 0.
        amps, last_i = self._amps, self.last_i
        amps.fill(self.leak_amps)
        last_i.fill(0.0)

        # Discharge path (PowerBus._discharge across the load bus).  A
        # site with no capability has a zero total and discharges nothing.
        volts = self._tick_tv
        members = bank.on_load & (deficit > 0.0)
        discharging = None
        if np.count_nonzero(members):
            mdc = self._max_discharge_current(diffusion)
            watts = mdc * volts
            total = np.where(members, watts, 0.0).sum(axis=0)
            feasible = total > 0.0
            target = np.minimum(deficit, total)
            share_w = target * (watts / np.where(feasible, total, 1.0))
            live = volts > 0.0
            # Capped at max_discharge_current already, so this is also the
            # current BatteryUnit.apply_discharge allows.
            allowed = np.minimum(share_w / np.where(live, volts, 1.0), mdc)
            discharging = (
                members & feasible & (share_w > 0.0) & live & (allowed > 0.0)
            )
            if np.count_nonzero(discharging):
                np.putmask(amps, discharging, allowed)
                soc = self._soc()
            else:
                discharging = None

        # Charge path (SolarCharger.step across the charge bus): no
        # surplus pays no string.
        charging = None
        charge_power, curtailed = self._rep_charge_power, self._rep_curtailed
        if bank.any_charge and np.count_nonzero(surplus):
            if soc is None:
                soc = self._soc()
            charged = self._charger_step(bank.on_charge, bank.charge_sites,
                                         surplus, amps, last_i, soc)
            if charged is not None:
                power, charging = charged
                charge_power[...] = power
                np.maximum(0.0, surplus - power, out=curtailed)
        if charging is None:
            charge_power.fill(0.0)
            curtailed[...] = surplus  # max(0, surplus - 0); surplus >= +0

        # The bank's one step: BatteryUnit.apply_discharge, apply_charge
        # or idle, whichever the paths above chose for each cell.
        self.y1, self.y2, moved = self._kibam_step(amps, diffusion)
        got = moved * 3600.0 / self.dt
        # A charging cell's last_i is -stored = -(-moved * 3600 / dt): the
        # same bits as got, since IEEE negation and rounding are symmetric.
        for stepped in (discharging, charging):
            if stepped is not None:
                np.putmask(last_i, stepped, got)
        unserved = deficit  # max(0, deficit - 0); deficit >= +0
        if discharging is not None:
            self._record_discharge_wear(discharging, got, soc)
            battery_to_load = np.where(discharging, got * volts, 0.0).sum(axis=0)
            unserved = np.maximum(0.0, deficit - battery_to_load)
        # STANDBY cells sit on the load bus, so none is on the charge bus.
        self._float_pass(members, bank.standby, curtailed, charge_power)

        self._rep_solar_to_load = solar_to_load
        # Solar never goes negative, so a site without demand has no
        # deficit and nothing unserved.
        return unserved

    def _soc(self) -> np.ndarray:
        """State of charge of every cell, (y1 + y2) / capacity."""
        return (self.y1 + self.y2) / self.battery.capacity_ah

    def _charger_step(
        self,
        on_charge: np.ndarray,
        charge_sites: np.ndarray,
        surplus: np.ndarray,
        amps: np.ndarray,
        last_i: np.ndarray,
        soc: np.ndarray,
    ) -> tuple[np.ndarray, np.ndarray] | None:
        """SolarCharger.step: overhead gating + 4-round water-filling.

        Writes the current of every cell the charge lands on into
        ``amps`` and the parasitic draw of every cell it lands on into
        ``last_i`` (the bank step overwrites the charging ones); unpaid
        strings keep the idle default.  Returns the PV-bus power drawn and
        the mask of charging cells, or None when no budget pays one
        string's overhead.
        """
        chg = self.charger
        overhead_w = chg.per_string_overhead_w
        remaining = np.where(
            charge_sites, (surplus * self.charge_cap) * chg.efficiency, 0.0
        )
        if not np.count_nonzero(remaining >= overhead_w):
            return None
        payable = np.minimum(
            on_charge.sum(axis=0), (remaining // overhead_w).astype(np.int64)
        )
        rank = np.cumsum(on_charge, axis=0) - on_charge
        connected = on_charge & (rank < payable)
        # Sites with no string connected pay, and later draw, exactly 0.
        used = overhead_w * connected.sum(axis=0)
        remaining = remaining - used

        # A round's grant depends only on its share and the cell's own
        # headroom, so it is computed bank-wide; the budget subtraction
        # keeps bank order, since IEEE subtraction is not associative.
        # Only connected cells are ever active, granted or landing.
        voltage = np.maximum(self._tick_tv, self.battery.voltage.emf_empty)
        max_current = self._acceptance_max_current(soc)
        ceiling = max_current * voltage
        granted = np.zeros_like(ceiling)
        active = connected
        for _ in range(FILL_ROUNDS):
            n_act = active.sum(axis=0)
            alive = (remaining > GRANT_EPSILON_W) & (n_act > 0)
            if not np.count_nonzero(alive):
                break
            share = remaining / np.maximum(n_act, 1)
            m = alive & active
            headroom = np.maximum(0.0, ceiling - granted)
            grant = np.where(m, np.minimum(share, headroom), 0.0)
            granted = granted + grant
            for cell in grant:
                remaining = remaining - cell
            active = np.where(m, grant >= share - GRANT_EPSILON_W, active)

        # BatteryUnit.apply_charge on every string with a grant.
        applied = granted / voltage
        landing = applied > 0.0
        effective = self._acceptance_effective(applied, soc, max_current)
        charging = effective > 0.0
        np.putmask(amps, charging, -effective)
        np.putmask(
            last_i, landing, -np.minimum(applied, self.battery.acceptance.parasitic_amps)
        )
        landed_w = np.where(landing, granted, 0.0)
        for cell in landed_w:
            used = used + cell
        return used / chg.efficiency, charging

    def _float_pass(
        self,
        members: np.ndarray,
        standby: np.ndarray,
        curtailed: np.ndarray,
        charge_power: np.ndarray,
    ) -> None:
        """SolarCharger.float_step on the standby cells no path touched.

        A floated cell has idled in the bank step and now takes a
        half-float trickle step.  The trickle does not depend on the
        curtailed headroom, so it is evaluated once for every candidate;
        only the drain runs in bank order, because battery 2 floats on
        what batteries 0-1 left over.  Drains ``curtailed`` into
        ``charge_power`` in place.
        """
        hot = curtailed > 1.0
        if not np.count_nonzero(hot):
            return
        candidates = standby & ~members & hot
        y1, y2, _ = self._kibam_step(-self.float_amps * FLOAT_FRACTION,
                                     self._diffusion())
        # An idled cell's last current is 0, so its terminal voltage is
        # its EMF: emf - 0 * r, unclamped.
        used = self.float_amps * self._emf(y1) / self.charger.efficiency
        floated = np.zeros_like(candidates)
        for cell in range(self.b):
            # Before the first drain every candidate has headroom.
            floats = candidates[cell] & (curtailed > 1.0) if cell else candidates[0]
            # A take of +0 leaves both totals as they are: neither is -0.
            take = np.where(floats, np.minimum(used[cell], curtailed), 0.0)
            curtailed -= take
            charge_power += take
            floated[cell] = floats
        np.putmask(self.y1, floated, y1)
        np.putmask(self.y2, floated, y2)

    # ------------------------------------------------------------------
    # Plant coupling + workload (ports of system.PlantCoupler, workloads)
    # ------------------------------------------------------------------
    def _plant_step(self, k: int, solar: np.ndarray) -> None:
        rack = self._rack_view()
        unserved = self._bus_resolve(solar, rack)
        self._metrics_demand[...] = rack.demand
        shed = unserved > rack.shed_w
        compute = self.last_compute
        if np.count_nonzero(shed):
            self._emergency_shed(shed)
            compute = np.where(shed, 0.0, compute)
            # Metrics fall back to a fresh demand read post-shed (all OFF).
            np.putmask(self._metrics_demand, shed, 0.0)
        self._workload_step(k, compute)

    def _emergency_shed(self, shed: np.ndarray) -> None:
        """ServerRack.emergency_shed + Workload.on_crash."""
        cells = shed & (self.sstate != _OFF)
        count = cells.sum(axis=0)
        self.crashes += count
        self.on_off += count
        self.sstate = np.where(cells, _OFF, self.sstate)
        np.putmask(self.stimer, cells, 0.0)
        # VMs crash in place: they stay placed, none keep running.
        lost = self.head_done - self.head_ckpt
        np.putmask(self.processed, shed, np.maximum(0.0, self.processed - lost))
        np.putmask(self.head_done, shed, self.head_ckpt)
        self.crash_count += shed

    def _workload_step(self, k: int, compute: np.ndarray) -> None:
        """Workload.step: drain budget through the head job (<=1 finish).

        A tick on which no site computes moves no job: its budget is zero
        everywhere, and adding a zero changes no total (none is -0).
        """
        if np.count_nonzero(compute):
            self._drain_jobs(k, compute)
        # Periodic durable checkpoints (site-independent cadence).
        self._since_ckpt += self.dt
        if self._since_ckpt >= self.ckpt_interval:
            self._since_ckpt = 0.0
            self.head_ckpt = self.head_done.copy()

    def _drain_jobs(self, k: int, compute: np.ndarray) -> None:
        t_next = k * self.dt + self.dt
        n_arr = self.n_by_tick[k]
        budget = compute * self.gb_rate
        work = (self.head_idx < n_arr) & (budget > JOB_EPSILON_GB)
        rem_head = np.maximum(0.0, self.job_size - self.head_done)
        used_a = np.where(work, np.minimum(budget, rem_head), 0.0)
        # Off the working sites this adds +0.
        self.head_done = head_done = self.head_done + used_a
        finished = work & (
            np.maximum(0.0, self.job_size - head_done) <= JOB_EPSILON_GB
        )
        done = used_a
        if np.count_nonzero(finished):
            arr = self.arr_t[np.minimum(self.head_idx, len(self.arr_t) - 1)]
            delay = np.maximum(0.0, t_next - arr - self.delay_offset)
            np.putmask(self.delay_sum, finished, self.delay_sum + delay)
            self.delay_count += finished
            if self.has_deadlines:
                deadline = self.arr_dl[
                    np.minimum(self.head_idx, len(self.arr_dl) - 1)
                ]
                counted = finished & ~np.isnan(deadline)
                self.dl_total += counted
                self.dl_miss += counted & (t_next > deadline)
            self.head_idx += finished
            np.putmask(head_done, finished, 0.0)
            np.putmask(self.head_ckpt, finished, 0.0)
            # Leftover budget spills into the next job (cannot finish it).
            leftover = np.where(finished, budget - used_a, 0.0)
            spill = finished & (leftover > JOB_EPSILON_GB) & (self.head_idx < n_arr)
            used_b = np.where(spill, np.minimum(leftover, self.job_size), 0.0)
            np.putmask(head_done, spill, used_b)
            done = used_a + used_b
        self.processed += done

    def _checkpoint_all(self, mask: np.ndarray) -> None:
        np.putmask(self.head_ckpt, mask, self.head_done)

    def _backlog_at_control(self, k: int) -> np.ndarray:
        """Backlog as the controller sees it at tick k.

        Controllers run before the plant step, so tick k's arrivals have
        not been generated yet — only those through tick k-1 exist.
        """
        count = self.n_initial if k == 0 else int(self.n_by_tick[k - 1])
        return self.head_idx < count

    # ------------------------------------------------------------------
    # Metrics (port of repro.telemetry.metrics.MetricsCollector)
    # ------------------------------------------------------------------
    def _metrics_step(self, solar: np.ndarray) -> None:
        self._elapsed += self.dt
        rack = self._rack_view()
        # uptime + dt * 1 on sites running VMs, + dt * 0 (an exact no-op)
        # elsewhere; every other row is integral + row * step as scalar.
        np.greater(rack.running, 0, out=self._up_row)
        stored = (self.y1 + self.y2) * self.battery.nominal_voltage
        np.sum(np.where(self._bank_view().online, stored, 0.0), axis=0,
               out=self._stored_row)
        self._eff_row[...] = rack.effective
        self._solar_row[...] = solar
        np.add(self._rep_solar_to_load, self._rep_charge_power, out=self._used_row)
        self._integrals += self._rows * self._row_step
        self._refresh_voltage()
        tv = self._tick_tv
        np.minimum(self.min_v, tv.min(axis=0), out=self.min_v)
        self._since_vsample += self.dt
        if self._since_vsample >= VOLTAGE_SAMPLE_S:
            self._since_vsample = 0.0
            self.vsamples.append(tv.sum(axis=0) / self.b)

    # ------------------------------------------------------------------
    # Run loop
    # ------------------------------------------------------------------
    def run(self) -> list[dict]:
        self._controllers.start(self)
        step_tick = self.step_tick
        for k in range(self.steps):
            step_tick(k)
        return self.summaries()

    def step_tick(self, k: int) -> None:
        # A fresh (n,) row gathered from tick k's row of distinct traces;
        # nothing writes into it.
        solar = self._trace[k][self._trace_col]
        # Component order mirrors the engine: source (solar row),
        # controller, rack, plant coupler, metrics.
        self._sense(k)
        self._update_ema(solar)
        if self.controller == "insure":
            self._controllers.insure_step(self, k)
            self._policy_step(k)
        else:
            self._policy_step(k)
            self._controllers.baseline_step(self, k)
        self._rack_step()
        self._plant_step(k, solar)
        self._metrics_step(solar)

    # ------------------------------------------------------------------
    # Summaries
    # ------------------------------------------------------------------
    def summaries(self) -> list[dict]:
        elapsed = self._elapsed
        n = self.n
        uptime_fraction = self.uptime_s / elapsed
        throughput = self.processed / (elapsed / 3600.0)
        mean_delay = self._mean_delay_minutes(elapsed)
        energy_avail = self.stored_int / elapsed
        # WearModel.projected_life_days, averaged over the bank.
        wear = self.battery.wear
        shelf = wear.design_life_days * SHELF_MARGIN
        rate = self.wear_wt / (elapsed / 86400.0)
        with np.errstate(divide="ignore"):
            days = np.where(
                self.wear_wt > 0.0,
                np.minimum(shelf, wear.lifetime_ah / np.where(rate > 0, rate, 1.0)),
                shelf,
            )
        life = days.mean(axis=0)
        discharge_ah = np.zeros(n, dtype=np.float64)
        for cell in self.wear_dis:
            discharge_ah = discharge_ah + cell
        perf_per_ah = np.where(
            discharge_ah > 0.0,
            self.processed / np.where(discharge_ah > 0.0, discharge_ah, 1.0),
            0.0,
        )
        tv = self._tick_tv
        end_v = np.zeros(n, dtype=np.float64)
        for cell in tv:
            end_v = end_v + cell
        end_v = end_v / self.b
        # Population sigma with both sums taken in sample order, so a
        # site's sigma does not depend on its batch mates: numpy would sum
        # a one-site stack of samples pairwise, a wider one row by row.
        count = len(self.vsamples)
        sigma = np.zeros(n, dtype=np.float64)
        if count > 1:
            mean = np.zeros(n, dtype=np.float64)
            for sample in self.vsamples:
                mean = mean + sample
            mean = mean / count
            for sample in self.vsamples:
                sigma = sigma + (sample - mean) ** 2
            sigma = np.sqrt(sigma / count)
        imbalance = self.wear_dis.max(axis=0) - self.wear_dis.min(axis=0)
        miss_rate = np.where(
            self.dl_total > 0,
            self.dl_miss / np.where(self.dl_total > 0, self.dl_total, 1),
            0.0,
        )
        out = []
        for i in range(n):
            out.append(
                {
                    "elapsed_s": float(elapsed),
                    "uptime_fraction": float(uptime_fraction[i]),
                    "throughput_gb_per_hour": float(throughput[i]),
                    "mean_delay_minutes": float(mean_delay[i]),
                    "processed_gb": float(self.processed[i]),
                    "energy_availability_wh": float(energy_avail[i]),
                    "projected_life_days": float(life[i]),
                    "perf_per_ah_gb": float(perf_per_ah[i]),
                    "load_energy_kwh": float(self.load_wh[i] / 1000.0),
                    "effective_energy_kwh": float(self.eff_wh[i] / 1000.0),
                    "solar_energy_kwh": float(self.solar_wh[i] / 1000.0),
                    "solar_used_kwh": float(self.used_wh[i] / 1000.0),
                    "curtailed_kwh": float(self.curt_wh[i] / 1000.0),
                    "min_battery_voltage": float(self.min_v[i]),
                    "end_battery_voltage": float(end_v[i]),
                    "battery_voltage_sigma": float(sigma[i]),
                    "total_discharge_ah": float(discharge_ah[i]),
                    "discharge_imbalance_ah": float(imbalance[i]),
                    "power_ctrl_times": int(self.switch_ops[i]),
                    "on_off_cycles": int(self.on_off[i]),
                    "vm_ctrl_times": int(self.vm_ops[i]),
                    "crash_count": int(self.crash_count[i]),
                    "dropped_gb": 0.0,
                    "deadline_miss_rate": float(miss_rate[i]),
                }
            )
        return out

    def _mean_delay_minutes(self, t_now: float) -> np.ndarray:
        """Workload.mean_delay_minutes with censored pending jobs."""
        total = self.delay_sum.copy()
        count = self.delay_count.astype(np.float64)
        j = len(self.arr_t)
        if j:
            accrued = t_now - self.arr_t - self.censor_offset
            positive = accrued > 0.0
            # Arrivals are non-decreasing, so positives form a prefix.
            cutoff = int(positive.sum())
            prefix = np.concatenate(
                ([0.0], np.cumsum(np.where(positive, accrued, 0.0)))
            )
            n_final = min(int(self.n_by_tick[-1]), j)
            hi = np.minimum(n_final, cutoff)
            lo = np.minimum(self.head_idx, hi)
            total = total + (prefix[hi] - prefix[lo])
            count = count + (hi - lo)
        safe = np.where(count > 0, count, 1.0)
        return np.where(count > 0, total / safe / 60.0, 0.0)
