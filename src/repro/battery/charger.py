"""CC/CV solar charging allocation.

The charger takes the solar power left over after the server load and
splits it across the cabinets the spatial manager selected for charging.
Allocation is waterfall-style: each selected cabinet receives current up to
its acceptance ceiling while budget remains, in selection order, so that
"concentrate the budget on fewer batteries" (paper §2.2, Figure 10) is the
natural behaviour when the budget is scarce.
"""

from __future__ import annotations

from collections.abc import Sequence
from typing import NamedTuple

from repro.battery.unit import BatteryUnit

#: Water-filling redistribution rounds per step.
FILL_ROUNDS = 4
#: Budget (W) that ends water-filling, and the slack of a full grant.
GRANT_EPSILON_W = 1e-9
#: Float trickle as a fraction of the float current.
FLOAT_FRACTION = 0.5


class ChargeResult(NamedTuple):
    """Outcome of one charging step across the bank (a named tuple, as
    cheap to build as the bus's :class:`~repro.power.bus.BusReport`)."""

    power_used_w: float
    power_offered_w: float
    accepted_ah: float
    #: Power delivered at the battery terminals — ``power_used_w`` minus
    #: conversion loss and per-string overhead.
    terminal_power_w: float = 0.0

    @property
    def utilisation(self) -> float:
        """Fraction of the offered budget that reached the charger."""
        if self.power_offered_w <= 0.0:
            return 0.0
        return self.power_used_w / self.power_offered_w


class SolarCharger:
    """Allocates a power budget to charging cabinets.

    Parameters
    ----------
    efficiency:
        Conversion efficiency of the charge controller (PV bus to battery
        terminals).  Typical MPPT charge controllers run at 0.92-0.97.
    per_string_overhead_w:
        Fixed power consumed per *connected* charging string (relay coil,
        per-string converter quiescent draw, wiring).  Together with the
        battery-side parasitic current this makes batch charging pay the
        overhead once per cabinet, so concentrating a scarce budget on
        fewer cabinets charges faster (Figure 4a).
    """

    def __init__(self, efficiency: float = 0.94, per_string_overhead_w: float = 15.0) -> None:
        if not 0.0 < efficiency <= 1.0:
            raise ValueError(f"efficiency must be in (0,1], got {efficiency}")
        if per_string_overhead_w < 0:
            raise ValueError("per_string_overhead_w must be non-negative")
        self.efficiency = efficiency
        self.per_string_overhead_w = per_string_overhead_w
        #: Fraction of the offered solar surplus the charger may draw —
        #: the knob :class:`repro.policy.controls.ChargeCurrentCapControl`
        #: turns.  1.0 (the default) multiplies the budget by exactly
        #: 1.0, an IEEE-754 identity, so uncapped runs stay bit-exact.
        #: Withheld surplus is curtailed, keeping the ledger closed.
        self.cap_fraction = 1.0

    def step(
        self,
        targets: Sequence[BatteryUnit],
        power_budget_w: float,
        dt_seconds: float,
    ) -> ChargeResult:
        """Charge ``targets`` from ``power_budget_w`` for one step.

        Connected cabinets share a common charge bus, so the budget is
        split evenly across them, with water-filling: if a cabinet's
        acceptance ceiling caps its draw below its even share, the leftover
        is redistributed to the others (as the bus voltage would do
        naturally).  Every connected string pays a fixed overhead for the
        whole step — the term that penalises batch charging on a scarce
        budget and motivates the SPM's adaptive batch sizing (Figure 10).
        Returns the power drawn from the PV bus and the Ah stored.
        """
        if power_budget_w < 0:
            raise ValueError("power budget must be non-negative")
        if not targets:
            return ChargeResult(0.0, power_budget_w, 0.0)

        remaining = (power_budget_w * self.cap_fraction) * self.efficiency
        used = 0.0
        accepted_ah = 0.0

        # Each connected string pays its overhead before any charge flows;
        # strings the budget cannot even power stay idle this step.
        if self.per_string_overhead_w > 0:
            payable = min(len(targets), int(remaining // self.per_string_overhead_w))
        else:
            payable = len(targets)
        connected = targets[:payable]
        for unit in targets[payable:]:
            unit.idle(dt_seconds)
        if not connected:
            return ChargeResult(0.0, power_budget_w, 0.0)
        overhead = self.per_string_overhead_w * len(connected)
        remaining -= overhead
        used += overhead

        # Water-filling: grant each cabinet min(even share, acceptance
        # ceiling); redistribute leftovers until the budget is exhausted.
        # Voltage and ceiling are invariant across rounds (no charge lands
        # until allocation finishes), so compute them once per cabinet.
        # Entries are [unit, voltage, ceiling_w, granted_w].
        plan = []
        for unit in connected:
            voltage = max(unit.terminal_voltage, unit.params.voltage.emf_empty)
            ceiling_w = unit.max_charge_current() * voltage
            plan.append([unit, voltage, ceiling_w, 0.0])
        active = list(plan)
        for _ in range(FILL_ROUNDS):
            if remaining <= GRANT_EPSILON_W or not active:
                break
            share = remaining / len(active)
            next_active = []
            for entry in active:
                headroom = max(0.0, entry[2] - entry[3])
                grant = min(share, headroom)
                entry[3] += grant
                remaining -= grant
                if grant >= share - GRANT_EPSILON_W:
                    next_active.append(entry)
            active = next_active

        terminal = 0.0
        for unit, voltage, _ceiling, watts in plan:
            applied = watts / voltage
            if applied <= 0.0:
                unit.idle(dt_seconds)
                continue
            stored = unit.apply_charge(applied, dt_seconds)
            used += watts
            terminal += watts
            accepted_ah += stored * dt_seconds / 3600.0

        return ChargeResult(
            power_used_w=used / self.efficiency,
            power_offered_w=power_budget_w,
            accepted_ah=accepted_ah,
            terminal_power_w=terminal,
        )

    def float_step(self, units: list[BatteryUnit], dt_seconds: float) -> float:
        """Trickle-charge standby units; returns the power consumed (W)."""
        total = 0.0
        for unit in units:
            amps = unit.params.acceptance.float_c_rate * unit.params.capacity_ah
            # Float charging merely offsets self-discharge; model it as an
            # idle step plus the bus power it costs.
            unit.idle(dt_seconds)
            unit.kibam.apply_current(-amps * FLOAT_FRACTION, dt_seconds)
            total += amps * unit.terminal_voltage / self.efficiency
        return total
