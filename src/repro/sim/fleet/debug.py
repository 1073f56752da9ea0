"""Fleet-kernel triage tooling: a lockstep comparator and a call counter.

The lockstep comparator steps one site through the scalar engine and a
1-site :class:`~repro.sim.fleet.kernel._FleetBatch` tick by tick,
diffing the visible state after every tick: a golden cell
(:func:`run_lockstep`) or any pair built from one
:class:`~repro.core.system.SiteSpec` (:func:`step_lockstep`).  When the kernels diverge this pinpoints the
first tick and the first variable that moved, which is far cheaper than
bisecting a 17 280-tick day run from its summary.

The call counter (:func:`count_calls`) counts the numpy calls a batch
makes per tick, split by stage: at small batches a fleet tick costs
about what its numpy calls cost, whatever the site count.

Not used by the simulation paths; imported by tests and by hand during
kernel work::

    PYTHONPATH=src python -m repro.sim.fleet.debug insure video sunny
"""

from __future__ import annotations

import dataclasses
from collections import Counter
from typing import Any

import numpy as np

from repro.policy.controls import DUTY_STEPS
from repro.sim.fleet.kernel import _FleetBatch

_MODE_NAMES = ("OFFLINE", "CHARGING", "STANDBY", "DISCHARGING")
_SSTATE_NAMES = ("OFF", "BOOTING", "ON", "SAVING")


def snapshot_scalar(system) -> dict[str, Any]:
    snap: dict[str, Any] = {}
    for u, unit in enumerate(system.bank):
        snap[f"y1[{u}]"] = unit.kibam.y1
        snap[f"y2[{u}]"] = unit.kibam.y2
        snap[f"mode[{u}]"] = unit.mode.name
        snap[f"wear_dis[{u}]"] = unit.wear.discharge_ah
        sense = system.telemetry.senses[unit.name]
        snap[f"sense_v[{u}]"] = sense.voltage
        snap[f"sense_i[{u}]"] = sense.current
        snap[f"est[{u}]"] = sense.soc_estimate
        snap[f"sense_dis[{u}]"] = sense.discharge_ah
    for s, server in enumerate(system.rack.servers):
        snap[f"sstate[{s}]"] = server.state.name
        snap[f"duty[{s}]"] = server.duty
        snap[f"placed[{s}]"] = len(server.vms)
    snap["on_off"] = system.rack.total_on_off_cycles()
    snap["alloc_target"] = system.allocator.target_vms
    snap["vm_ops"] = system.allocator.vm_ctrl_ops
    snap["switch_ops"] = system.switchnet.switch_operations
    snap["ema"] = system.controller.solar_ema_w
    snap["ema_slow"] = system.controller.solar_ema_slow_w
    stats = system.workload.stats
    for attr in ("processed_gb", "crash_count"):
        if hasattr(stats, attr):
            snap[f"wl.{attr}"] = getattr(stats, attr)
    return snap


def snapshot_batch(batch: _FleetBatch, i: int = 0) -> dict[str, Any]:
    snap: dict[str, Any] = {}
    for u in range(batch.b):
        snap[f"y1[{u}]"] = float(batch.y1[u, i])
        snap[f"y2[{u}]"] = float(batch.y2[u, i])
        snap[f"mode[{u}]"] = _MODE_NAMES[int(batch.mode[u, i])]
        snap[f"wear_dis[{u}]"] = float(batch.wear_dis[u, i])
        snap[f"sense_v[{u}]"] = float(batch.sense_v[u, i])
        snap[f"sense_i[{u}]"] = float(batch.sense_i[u, i])
        snap[f"est[{u}]"] = float(batch.est[u, i])
        snap[f"sense_dis[{u}]"] = float(batch.sense_dis[u, i])
    for s in range(batch.s):
        snap[f"sstate[{s}]"] = _SSTATE_NAMES[int(batch.sstate[s, i])]
        snap[f"duty[{s}]"] = int(batch.duty_deci[i]) / DUTY_STEPS
        snap[f"placed[{s}]"] = int(batch.placed[s, i])
    snap["on_off"] = int(batch.on_off[i])
    snap["alloc_target"] = int(batch.alloc_target[i])
    snap["vm_ops"] = int(batch.vm_ops[i])
    snap["switch_ops"] = int(batch.switch_ops[i])
    snap["ema"] = float(batch.ema[i])
    snap["ema_slow"] = float(batch.ema_slow[i])
    snap["wl.processed_gb"] = float(batch.processed[i])
    snap["wl.crash_count"] = int(batch.crash_count[i])
    return snap


def diff_snapshots(
    scalar: dict[str, Any], batch: dict[str, Any], atol: float = 0.0
) -> dict[str, tuple[Any, Any]]:
    diffs: dict[str, tuple[Any, Any]] = {}
    for key in scalar:
        if key not in batch:
            continue
        a, b = scalar[key], batch[key]
        if isinstance(a, float) or isinstance(b, float):
            if abs(float(a) - float(b)) > atol:
                diffs[key] = (a, b)
        elif a != b:
            diffs[key] = (a, b)
    return diffs


def run_lockstep(
    controller: str,
    workload: str,
    weather: str,
    max_ticks: int = 17280,
    atol: float = 0.0,
    verbose: bool = True,
) -> tuple[int, dict[str, tuple[Any, Any]]] | None:
    """Step both kernels on one golden cell's site; return (tick, diffs)
    at first divergence or None."""
    from repro.validate.golden import cell_site

    site = cell_site(controller, workload, weather)
    return step_lockstep(site.build(), _FleetBatch([site]), max_ticks=max_ticks,
                         atol=atol, verbose=verbose)


def step_lockstep(
    system,
    batch: _FleetBatch,
    max_ticks: int = 17280,
    atol: float = 0.0,
    verbose: bool = True,
) -> tuple[int, dict[str, tuple[Any, Any]]] | None:
    """Step a scalar system and a 1-site batch built for the same site.

    Both must be fresh: this starts the batch's controller, and the
    scalar engine starts its own on the first tick.  Returns (tick, diffs)
    at the first divergence, or None.
    """
    from repro.sim.fleet import controllers

    controllers.start(batch)
    dt = batch.dt
    for k in range(min(max_ticks, batch.steps)):
        system.engine.run(dt)
        batch.step_tick(k)
        diffs = diff_snapshots(snapshot_scalar(system), snapshot_batch(batch),
                               atol=atol)
        if diffs:
            if verbose:
                print(f"tick {k} (t={k * dt:.0f}s): {len(diffs)} diffs")
                for key, (a, b) in sorted(diffs.items()):
                    print(f"  {key}: scalar={a!r} fleet={b!r}")
            return k, diffs
    if verbose:
        print(f"lockstep clean for {min(max_ticks, batch.steps)} ticks")
    return None


# ----------------------------------------------------------------------
# Numpy calls per tick, by stage
# ----------------------------------------------------------------------
#: Stage -> the batch method that enters it.  The names are the ladder's
#: fleet span names (``benchmarks/ladder/tracing.py``); a dotted name
#: splits its stage.  A call in no stage is the tick's own (the solar
#: EMA), ``tick`` as in the ladder's ``fleet.tick_other``.
STAGE_METHODS = (
    ("sense", "_sense"),
    ("policy", "_policy_step"),
    ("rack", "_rack_step"),
    ("plant", "_plant_step"),
    ("plant.bus", "_bus_resolve"),
    ("plant.charger", "_charger_step"),
    ("plant.float", "_float_pass"),
    ("plant.workload", "_workload_step"),
    ("metrics", "_metrics_step"),
)
#: The controller stage enters through a module function.
STAGE_FUNCTIONS = (("controller", "insure_step"), ("controller", "baseline_step"))


@dataclasses.dataclass
class CallCount:
    """Numpy calls of ``ticks`` ticks: by innermost stage and by kind
    (``where``, ``add``, ``logical_or.reduce``, ...)."""

    ticks: int
    by_stage: Counter
    by_kind: Counter

    @property
    def total(self) -> int:
        return sum(self.by_stage.values())

    def per_tick(self) -> dict[str, float]:
        """Calls per tick of every stage, sub-stages included in their
        stage's figure, plus ``total``."""
        out: dict[str, float] = {}
        for stage, calls in self.by_stage.items():
            out[stage] = out.get(stage, 0.0) + calls / self.ticks
            if "." in stage:
                top = stage.split(".")[0]
                out[top] = out.get(top, 0.0) + calls / self.ticks
        out["total"] = self.total / self.ticks
        return out


class _Counted(np.ndarray):
    """An ndarray that counts every ufunc and array function it takes
    part in, once per public call, and hands back counted results."""

    count: CallCount | None = None
    stage: list[str] = ["tick"]

    def __array_ufunc__(self, ufunc, method, *inputs, **kwargs):
        kind = ufunc.__name__ if method == "__call__" else f"{ufunc.__name__}.{method}"
        _Counted._hit(kind)
        out = kwargs.get("out")
        if out is not None:
            kwargs["out"] = _plain(out)
        result = getattr(ufunc, method)(*_plain(inputs), **kwargs)
        if out is not None:
            return out[0] if len(out) == 1 else out
        return _counted(result)

    def __array_function__(self, func, types, args, kwargs):
        _Counted._hit(func.__name__)
        return _counted(func(*_plain(args), **_plain(kwargs)))

    @staticmethod
    def _hit(kind: str) -> None:
        count = _Counted.count
        if count is not None:
            count.by_stage[_Counted.stage[-1]] += 1
            count.by_kind[kind] += 1


def _plain(value):
    if isinstance(value, _Counted):
        return value.view(np.ndarray)
    if isinstance(value, (tuple, list)):
        return type(value)(_plain(v) for v in value)
    if isinstance(value, dict):
        return {k: _plain(v) for k, v in value.items()}
    return value


def _counted(value):
    if type(value) is np.ndarray:
        return value.view(_Counted)
    if isinstance(value, tuple):
        return tuple(_counted(v) for v in value)
    return value


def _swap_arrays(batch: _FleetBatch, view_type: type) -> None:
    """View every array the batch holds as ``view_type`` and drop the
    cached rack and bank records, so they are rebuilt from the views."""
    state = batch.__dict__
    for name, value in state.items():
        if isinstance(value, np.ndarray):
            state[name] = value.view(view_type)
        elif isinstance(value, list) and value and isinstance(value[0], np.ndarray):
            state[name] = [v.view(view_type) for v in value]
    state["_rack"] = state["_bank"] = None


def _in_stage(stage: str, fn):
    def staged(*args, **kwargs):
        _Counted.stage.append(stage)
        try:
            return fn(*args, **kwargs)
        finally:
            _Counted.stage.pop()

    return staged


def count_calls(batch: _FleetBatch) -> CallCount:
    """Step a fresh batch through its ``steps`` ticks and count their
    numpy calls, by stage.

    Every batch array is viewed as an ndarray subclass whose
    ``__array_ufunc__`` and ``__array_function__`` count their calls: an
    ``x.any()`` counts as one ``logical_or.reduce``, an ``np.where`` as
    one ``where``.  Calls on arrays the tick allocates from scratch
    (``np.zeros``, ``np.full``) count only once a batch array meets them.
    The batch's arithmetic is unchanged, so its trajectory is too.
    """
    from repro.sim.fleet import controllers

    controllers.start(batch)
    count = CallCount(batch.steps, Counter(), Counter())
    saved = [(name, getattr(controllers, name)) for _, name in STAGE_FUNCTIONS]
    for stage, name in STAGE_METHODS:
        setattr(batch, name, _in_stage(stage, getattr(batch, name)))
    for stage, name in STAGE_FUNCTIONS:
        setattr(controllers, name, _in_stage(stage, getattr(controllers, name)))
    _swap_arrays(batch, _Counted)
    _Counted.count = count
    try:
        for k in range(batch.steps):
            batch.step_tick(k)
    finally:
        _Counted.count = None
        _swap_arrays(batch, np.ndarray)
        for _, name in STAGE_METHODS:
            del batch.__dict__[name]
        for name, fn in saved:
            setattr(controllers, name, fn)
    return count


def main(argv: list[str] | None = None) -> int:
    import sys

    args = list(sys.argv[1:] if argv is None else argv)
    if len(args) < 3:
        print("usage: python -m repro.sim.fleet.debug "
              "<controller> <workload> <weather> [max_ticks]")
        return 2
    max_ticks = int(args[3]) if len(args) > 3 else 17280
    result = run_lockstep(args[0], args[1], args[2], max_ticks=max_ticks)
    return 1 if result else 0


if __name__ == "__main__":
    raise SystemExit(main())
