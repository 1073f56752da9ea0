"""Vectorized ports of the InSURE and baseline power managers.

Each function here is a mask-based translation of one scalar control
routine (`repro.core.energy_manager.InsureController`,
`repro.core.baseline.BaselineController` and the shared
`repro.core.controller_base.PowerManager` helpers) that reads its knobs
from the same `InsureParams` / `BaselineParams` (``batch.params``).  The
control cadence is global — it depends only on dt — so it lives in plain
Python counters on the batch; everything a site can diverge on (targets,
holdoffs, trip latches, battery modes) is a `(n_sites,)` or
`(n_batteries, n_sites)` array updated under boolean masks.

Ordering contract: statements execute in the exact order of the scalar
controller so that every sensed read (rack demand, SoC estimates, solar
EMA) observes the same intermediate state the scalar controller would.
"""

from __future__ import annotations

import numpy as np

from repro.core.baseline import TRIP_AMPS
from repro.core.controller_base import BATTERY_NEEDED_MARGIN
from repro.core.energy_manager import RESERVE_STEP_W
from repro.policy.controls import DUTY_STEPS
from repro.sim.fleet.kernel import (
    _BOOTING,
    _BUS_CHARGE,
    _BUS_LOAD,
    _BUS_OFFLINE,
    _CHARGING,
    _DISCHARGING,
    _OFFLINE,
    _ON,
    _SAVING,
    _STANDBY,
)


def start(batch) -> None:
    """Controller.start(): initial battery modes + direct relay attach.

    start() drives ``set_mode`` + ``switchnet.attach`` without the
    same-mode guard of ``transition``, so a switch operation is counted
    exactly when the relay (bus) state changes from the open/open reset
    state.
    """
    if batch.controller == "insure":
        high = batch.est >= batch.params.spatial.charge_to_soc
        new_mode = np.where(high, _STANDBY, _OFFLINE).astype(np.int8)
        new_bus = np.where(high, _BUS_LOAD, _BUS_OFFLINE).astype(np.int8)
    else:
        online = batch.est.min(axis=0) >= batch.params.start_min_soc
        batch.buffer_online = online.copy()
        cells = online & np.ones((batch.b, 1), dtype=bool)
        new_mode = np.where(cells, _STANDBY, _CHARGING).astype(np.int8)
        new_bus = np.where(cells, _BUS_LOAD, _BUS_CHARGE).astype(np.int8)
    batch.switch_ops += (new_bus != batch.bus).sum(axis=0)
    batch.mode = new_mode
    batch.bus = new_bus


# ======================================================================
# InSURE
# ======================================================================
def insure_step(batch, k: int) -> None:
    dt, p = batch.dt, batch.params
    t = k * dt
    batch._tpm_elapsed += dt
    if batch._tpm_elapsed >= p.tpm_interval_s:
        batch._tpm_elapsed = 0.0
        _insure_temporal(batch, t)
    batch._spm_elapsed += dt
    if batch._spm_elapsed >= p.spm_interval_s:
        batch._spm_elapsed = 0.0
        _insure_spatial(batch, t, k)


def _usable_count(batch, floor: float) -> np.ndarray:
    usable = batch._bank_view().online & (batch.est > floor)
    return usable.sum(axis=0)


def _battery_needed(batch) -> np.ndarray:
    """PowerManager.battery_needed."""
    return batch._rack_view().demand > batch.ema * BATTERY_NEEDED_MARGIN


def _sizing_target(batch) -> np.ndarray:
    """InsureController._sizing_target on the slow EMA + safe battery W."""
    p, battery = batch.params, batch.battery
    per_unit_w = p.temporal.cap_c_rate * battery.capacity_ah * battery.nominal_voltage
    safe_w = _usable_count(batch, p.temporal.soc_floor + p.usable_margin) * per_unit_w
    supportable = batch.ema_slow * p.solar_margin + safe_w
    vms = (supportable // batch.per_vm_w).astype(np.int64)
    return np.maximum(0, np.minimum(batch.preferred_vms, vms))


def _checkpoint_and_stop(batch, mask: np.ndarray) -> None:
    """PowerManager.checkpoint_and_stop for the masked sites."""
    batch._checkpoint_all(mask)
    batch._set_target(mask, np.zeros(batch.n, dtype=np.int64))
    # rack.graceful_stop_all: power_off any server reconcile left running.
    cells = mask & ((batch.sstate == _ON) | (batch.sstate == _BOOTING))
    batch.sstate = np.where(cells, _SAVING, batch.sstate)
    batch.stimer = np.where(cells, batch.server.save_s, batch.stimer)


def _insure_temporal(batch, t: float) -> None:
    n, p = batch.n, batch.params
    batch.since_up += p.tpm_interval_s
    batch.since_down += p.tpm_interval_s
    batch.since_batch += p.tpm_interval_s
    batch.since_crash += p.tpm_interval_s

    # Crash backoff: an uncontrolled power loss zeroes the target.
    crashed = batch.crashes > batch.seen_crashes
    if crashed.any():
        batch.seen_crashes = np.where(crashed, batch.crashes, batch.seen_crashes)
        batch.since_crash = np.where(crashed, 0.0, batch.since_crash)
        batch.vm_target = np.where(crashed, 0, batch.vm_target)
        batch._set_target(crashed, np.zeros(n, dtype=np.int64))

    _ensure_online_reserve(batch)

    online = batch._bank_view().online
    n_online = online.sum(axis=0)
    battery_needed = _battery_needed(batch)

    # TemporalPolicy.evaluate over sensed aggregates.
    total_dis = np.where(
        online, np.maximum(0.0, batch.sense_i), 0.0
    ).sum(axis=0)
    min_soc = np.where(online, batch.est, np.inf).min(axis=0)
    min_soc = np.where(n_online > 0, min_soc, 0.0)
    cap = p.temporal.cap_c_rate * batch.battery.capacity_ah * n_online
    act_ckpt = (n_online > 0) & battery_needed & (min_soc <= p.temporal.soc_floor)
    act_cap = ~act_ckpt & (n_online > 0) & (total_dis > cap)
    act_relax = (
        ~act_ckpt
        & ~act_cap
        & ((total_dis < cap * p.temporal.relax_fraction) | ~battery_needed)
    )

    do_ckpt = act_ckpt & ~batch.protect.any(axis=0)
    if do_ckpt.any():
        _checkpoint_and_stop(batch, do_ckpt)
        batch.vm_target = np.where(do_ckpt, 0, batch.vm_target)
        # Cabinets stay on the load bus until the save completes.
        batch.protect |= do_ckpt & online
    _match_load(batch, ~act_ckpt, act_cap, act_relax)
    _drain_protect(batch)

    # Mode bookkeeping (transitions 3/6/7) on the *current* online set.
    bank = batch._bank_view()
    batch._transition(bank.standby & battery_needed, _DISCHARGING)
    batch._transition(
        bank.online & (batch.mode == _DISCHARGING) & ~battery_needed,
        _STANDBY,
    )
    _maybe_restart(batch)
    mismatch = batch._rack_view().running != batch.alloc_target
    if mismatch.any():
        batch._reconcile(mismatch, batch.alloc_target)


def _ensure_online_reserve(batch) -> None:
    """Keep min_online_units usable cabinets on the load bus."""
    p = batch.params
    floor = p.temporal.soc_floor + p.usable_margin
    n_usable = _usable_count(batch, floor)
    demand = batch._rack_view().demand
    want = np.maximum(
        p.min_online_units,
        np.minimum(batch.b, (demand // RESERVE_STEP_W).astype(np.int64) + 1),
    )
    need = n_usable < want
    if not need.any():
        return
    candidates = (
        ((batch.mode == _OFFLINE) | (batch.mode == _CHARGING))
        & (batch.est > floor + p.usable_margin)
    )
    # Highest SoC first, stable (scalar sort(reverse=True) is stable too).
    key = np.where(candidates, -batch.est, np.inf)
    order = np.argsort(key, axis=0, kind="stable")
    rank = np.empty_like(order)
    np.put_along_axis(
        rank, order, np.broadcast_to(np.arange(batch.b)[:, None], order.shape),
        axis=0,
    )
    deficit = want - n_usable
    take = need & candidates & (rank < deficit)
    was_charging = take & (batch.mode == _CHARGING)
    was_offline = take & (batch.mode == _OFFLINE)
    batch._transition(was_charging, _STANDBY)
    batch._transition(was_offline, _CHARGING)
    batch._transition(was_offline, _STANDBY)


def _match_load(batch, mask: np.ndarray, act_cap: np.ndarray,
                act_relax: np.ndarray) -> None:
    """Power-aware load matching via duty cycle or VM scaling."""
    p, temporal = batch.params, batch.params.temporal
    vm_step = temporal.vm_step
    cap_target = _sizing_target(batch)

    if batch.actuation == "duty":
        # Duty lives in exact quanta: ±step replicates round(d ± duty_step, 3).
        step = round(temporal.duty_step * DUTY_STEPS)
        floor = round(temporal.duty_min * DUTY_STEPS)
        new_deci = batch.duty_deci.copy()
        new_deci = np.where(
            act_cap, np.maximum(floor, batch.duty_deci - step), new_deci
        )
        new_deci = np.where(
            act_relax, np.minimum(DUTY_STEPS, batch.duty_deci + step), new_deci
        )
        changed = mask & (new_deci != batch.duty_deci)
        if changed.any():
            batch.duty_deci = np.where(changed, new_deci, batch.duty_deci)
        # The scalar batch-upscale hysteresis is two VMs, not vm_step.
        batch_up = (
            mask
            & act_relax
            & (batch.duty_deci >= DUTY_STEPS)
            & (cap_target >= batch.vm_target + 2)
            & (batch.since_batch >= p.batch_reconfig_holdoff_s)
        )
        if batch_up.any():
            batch.since_batch = np.where(batch_up, 0.0, batch.since_batch)
            batch.vm_target = np.where(batch_up, cap_target, batch.vm_target)
            batch._set_target(batch_up, cap_target)
        batch_down = (
            mask
            & act_cap
            & (batch.duty_deci <= floor)
            & (batch.vm_target > vm_step)
            & (batch.since_batch >= p.batch_reconfig_holdoff_s)
        )
        if batch_down.any():
            batch.since_batch = np.where(batch_down, 0.0, batch.since_batch)
            shrunk = batch.vm_target - vm_step
            batch.vm_target = np.where(batch_down, shrunk, batch.vm_target)
            batch._set_target(batch_down, shrunk)
    else:
        new_target = batch.vm_target.copy()
        new_target = np.where(
            act_cap, np.maximum(0, batch.vm_target - vm_step), new_target
        )
        new_target = np.where(
            act_relax,
            np.minimum(batch.preferred_vms, batch.vm_target + vm_step),
            new_target,
        )
        new_target = np.minimum(new_target, np.maximum(cap_target, 0))
        up = mask & (new_target > batch.vm_target)
        up_blocked = up & (
            (batch.since_up < p.upscale_holdoff_s)
            | (batch.since_crash < p.crash_backoff_s)
        )
        batch.since_up = np.where(up & ~up_blocked, 0.0, batch.since_up)
        down = mask & (new_target < batch.vm_target) & ~act_cap
        down_blocked = down & (batch.since_down < p.downscale_holdoff_s)
        batch.since_down = np.where(
            down & ~down_blocked, 0.0, batch.since_down
        )
        apply = (
            mask & ~up_blocked & ~down_blocked
            & (new_target != batch.vm_target)
        )
        if apply.any():
            batch.vm_target = np.where(apply, new_target, batch.vm_target)
            batch._set_target(apply, new_target)


def _drain_protect(batch) -> None:
    """Deferred protective switch-outs once the servers are off."""
    pending = batch.protect.any(axis=0)
    if not pending.any():
        return
    ready = pending & ~batch._rack_view().active
    if not ready.any():
        return
    cells = ready & batch.protect & batch._bank_view().online
    batch._transition(cells, _OFFLINE)
    batch.protect &= ~ready


def _maybe_restart(batch) -> None:
    """Restart the cluster after a protective stop, once safe."""
    p = batch.params
    idle = (batch.vm_target <= 0) & ~batch._rack_view().active
    ready = idle & (batch.since_crash >= p.crash_backoff_s)
    floor = p.temporal.soc_floor + p.usable_margin
    ready &= _usable_count(batch, floor) >= p.min_online_units
    if not ready.any():
        return
    target = _sizing_target(batch)
    go = ready & (target >= p.min_restart_vms)
    if go.any():
        batch.vm_target = np.where(go, target, batch.vm_target)
        batch.duty_deci = np.where(go, DUTY_STEPS, batch.duty_deci)
        batch._set_target(go, target)


def _insure_spatial(batch, t: float, k: int) -> None:
    """SPM: offline screening (Fig. 9) + charge batch sizing (Fig. 10)."""
    p = batch.params
    spatial = p.spatial
    offline = batch.mode == _OFFLINE
    charging = batch.mode == _CHARGING
    demand = batch._rack_view().demand
    surplus = np.maximum(0.0, batch.ema - demand)
    usable_any = (
        batch._bank_view().online & (batch.est > p.temporal.soc_floor)
    ).any(axis=0)
    starving = batch._backlog_at_control(k) & ~usable_any

    # SpatialPolicy.discharge_threshold over its BudgetRampGovernor.
    prorated = batch.budget.limit(t)
    threshold = prorated + batch.elastic_bonus
    eligible = offline & (batch.sense_dis < threshold)
    overused = offline & ~eligible
    # Elastic relaxation: starved sites with only over-used cabinets.
    relax = ~eligible.any(axis=0) & overused.any(axis=0) & starving & spatial.elastic
    if relax.any():
        batch.elastic_bonus = np.where(
            relax,
            batch.elastic_bonus + spatial.elastic_step * batch.budget.daily(),
            batch.elastic_bonus,
        )
        threshold = np.where(relax, prorated + batch.elastic_bonus, threshold)
        eligible = offline & (batch.sense_dis < threshold)

    with np.errstate(invalid="ignore"):
        n_batch = np.where(
            surplus < spatial.min_charge_surplus_w,
            0,
            np.maximum(
                1,
                np.floor(surplus / spatial.peak_charge_power_w).astype(np.int64),
            ),
        )
    slots = np.maximum(0, n_batch - charging.sum(axis=0))
    # Priority (lowest usage, then lowest SoC), stable like list.sort.
    key_soc = np.where(eligible, batch.est, np.inf)
    key_dis = np.where(eligible, batch.sense_dis, np.inf)
    order = np.lexsort((key_soc, key_dis), axis=0)
    rank = np.empty_like(order)
    np.put_along_axis(
        rank, order, np.broadcast_to(np.arange(batch.b)[:, None], order.shape),
        axis=0,
    )
    picked = eligible & (rank < slots)
    batch._transition(picked, _CHARGING)
    batch._transition(charging & (batch.est >= spatial.charge_to_soc), _STANDBY)

    # Sunset release: nothing to charge from — free usable cabinets.
    sunset = surplus < spatial.min_charge_surplus_w
    if sunset.any():
        floor = p.temporal.soc_floor + 2 * p.usable_margin
        batch._transition(
            sunset & (batch.mode == _CHARGING) & (batch.est > floor),
            _STANDBY,
        )


# ======================================================================
# Baseline
# ======================================================================
def baseline_step(batch, k: int) -> None:
    interval = batch.params.control_interval_s
    batch._ctl_elapsed += batch.dt
    if batch._ctl_elapsed < interval:
        return
    batch._ctl_elapsed = 0.0
    batch.since_up += interval
    online_sites = batch.buffer_online.copy()
    _baseline_online(batch, online_sites)
    _baseline_charging(batch, ~online_sites)
    mismatch = batch._rack_view().running != batch.alloc_target
    if mismatch.any():
        batch._reconcile(mismatch, batch.alloc_target)


def _baseline_retarget(batch, mask: np.ndarray, target: np.ndarray) -> None:
    """BaselineController._retarget: damped upscaling only."""
    up = mask & (target > batch.vm_target)
    up_blocked = up & (batch.since_up < batch.params.upscale_holdoff_s)
    batch.since_up = np.where(up & ~up_blocked, 0.0, batch.since_up)
    apply = mask & ~up_blocked & (target != batch.vm_target)
    if apply.any():
        batch.vm_target = np.where(apply, target, batch.vm_target)
        batch._set_target(apply, target)


def _baseline_online(batch, mask: np.ndarray) -> None:
    if not mask.any():
        return
    p = batch.params
    cutoff = batch.battery.voltage.v_cutoff + p.protect_margin_v
    unit_trip = (batch.sense_v <= cutoff) & (batch.sense_i > TRIP_AMPS)
    tripping = unit_trip.any(axis=0) | (batch.est.min(axis=0) <= p.soc_floor)
    trip = mask & (tripping | batch.trip_pending)
    first = trip & ~batch.trip_pending
    if first.any():
        _checkpoint_and_stop(batch, first)
        batch.vm_target = np.where(first, 0, batch.vm_target)
        batch.trip_pending |= first
    # The pull waits until the save completes; then the whole (unified)
    # bank goes offline then onto the charge bus — two relay ops per unit.
    pull = trip & ~batch._rack_view().active
    if pull.any():
        cells = pull & np.ones((batch.b, 1), dtype=bool)
        batch._transition(cells, _OFFLINE)
        batch._transition(cells, _CHARGING)
        batch.buffer_online &= ~pull
        batch.trip_pending &= ~pull

    serve = mask & ~trip
    if not serve.any():
        return
    bank_w = p.bank_power_per_unit_w * batch.b
    supportable = batch.ema + bank_w
    vms = (supportable // batch.per_vm_w).astype(np.int64)
    target = np.maximum(0, np.minimum(batch.preferred_vms, vms))
    _baseline_retarget(batch, serve, target)

    battery_needed = _battery_needed(batch)
    batch._transition(
        serve & batch._bank_view().standby & battery_needed,
        _DISCHARGING,
    )
    batch._transition(
        serve & (batch.mode == _DISCHARGING) & ~battery_needed,
        _STANDBY,
    )


def _baseline_charging(batch, mask: np.ndarray) -> None:
    if not mask.any():
        return
    _baseline_retarget(batch, mask, np.zeros(batch.n, dtype=np.int64))
    charged = mask & (batch.est >= batch.params.charge_to_soc).all(axis=0)
    if charged.any():
        cells = charged & np.ones((batch.b, 1), dtype=bool)
        batch._transition(cells, _STANDBY)
        batch.buffer_online |= charged
