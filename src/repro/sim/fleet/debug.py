"""Lockstep scalar-vs-fleet comparator (bring-up and triage tooling).

Steps one site through the scalar engine and a 1-site
:class:`~repro.sim.fleet.kernel._FleetBatch` tick by tick, diffing the
visible state after every tick: a golden cell (:func:`run_lockstep`) or
any pair built from the same inputs (:func:`step_lockstep`).  When the kernels diverge
this pinpoints the first tick and the first variable that moved, which
is far cheaper than bisecting a 17 280-tick day run from its summary.

Not used by the simulation paths; imported by tests and by hand during
kernel work::

    PYTHONPATH=src python -m repro.sim.fleet.debug insure video sunny
"""

from __future__ import annotations

from typing import Any

from repro.policy.controls import DUTY_STEPS
from repro.sim.fleet.kernel import _FleetBatch
from repro.sim.fleet.validator import spec_for_cell

_MODE_NAMES = ("OFFLINE", "CHARGING", "STANDBY", "DISCHARGING")
_SSTATE_NAMES = ("OFF", "BOOTING", "ON", "SAVING")


def build_scalar_system(controller: str, workload: str, weather: str):
    """Build the scalar reference system exactly as the golden cell does."""
    from repro.core.system import build_day_system
    from repro.validate.golden import (
        DT_SECONDS,
        INITIAL_SOC,
        TARGET_MEAN_W,
        resolve_cell,
    )

    cell = resolve_cell(controller, workload, weather)
    return build_day_system(
        cell.controller, cell.workload, cell.weather, mean_w=TARGET_MEAN_W,
        seed=cell.seed, initial_soc=INITIAL_SOC, dt=DT_SECONDS,
    )


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
    """Step both kernels; return (tick, diffs) at first divergence or None."""
    system = build_scalar_system(controller, workload, weather)
    batch = _FleetBatch([spec_for_cell(controller, workload, weather)])
    return step_lockstep(system, batch, max_ticks=max_ticks, atol=atol,
                         verbose=verbose)


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
