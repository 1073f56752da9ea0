"""Physics-invariant checking for assembled systems.

The :class:`InvariantChecker` is an engine *observer*: registered via
:meth:`repro.sim.engine.Engine.observe`, it fires after every tick's
components have stepped and — once per check window — asserts the physical
laws the reproduction's credibility rests on:

* **DC-bus energy conservation** — the solar budget splits exactly into
  direct load service, charging power and curtailment, and the served load
  splits exactly into solar, battery and unserved shares (tight relative
  tolerance per tick, and the same two identities over the bus's
  every-tick energy integrals, which :func:`bus_closure` also closes for
  the energy ledger).
* **KiBaM well and SoC bounds** — both wells stay inside their physical
  capacity and total state of charge stays in [0, 1].
* **Charge acceptance** — no cabinet absorbs more current than its
  SoC-dependent acceptance ceiling allows.
* **Monotone Ah-throughput wear** — wear counters never decrease.
* **Relay exclusivity** — no cabinet is ever attached to the charge and
  discharge bus at the same time.
* **Non-negative power flows** — every bus flow is non-negative and the
  unserved share never exceeds the demand.

The checker only *reads* plant state; registering it (at any stride) never
perturbs the simulation, so same-seed traces hash identically with the
checker on or off.  Violations are recorded as structured
:class:`InvariantViolation` records (tick, component, observed/expected),
optionally raising :class:`InvariantError` at the offending tick.

Tolerances are documented with their rationale in ``docs/validation.md``.
"""

from __future__ import annotations

from collections.abc import Mapping
from dataclasses import dataclass

from repro.battery.bank import BatteryBank
from repro.power.relays import SwitchNetwork
from repro.sim.clock import Clock

#: Relative slack for per-tick bus-identity checks.  The bus resolves each
#: side of the identity with a handful of float64 additions, so genuine
#: rounding error is ~1e-13 relative; 1e-6 trips only on real model bugs.
REL_TOL = 1e-6
#: Absolute floor (watts) for bus-identity checks near zero power.
ABS_TOL_W = 1e-3
#: Floor (Wh) of the integrated bus account, so short runs cannot trip
#: on a handful of rounding residuals.
ACC_TOL_FLOOR_WH = 1e-3
#: Integrated slack per simulated hour: half the per-tick absolute
#: tolerance, sustained.  Rounding residuals do not drift (below 1e-9 Wh
#: per simulated day on the bus integrals); a systematic leak — even one
#: individually below the per-tick gate — integrates linearly and trips
#: this account.
ACC_TOL_WH_PER_H = 0.5 * ABS_TOL_W
#: Relative slack on the charge-acceptance ceiling: the ceiling is
#: evaluated at the post-step SoC, one tick after the charger clamped
#: against it, and acceptance tapers with SoC within the step.
ACCEPTANCE_REL_TOL = 1e-3
#: Slack (A) below which charge currents are ignored (float trickle).
ACCEPTANCE_ABS_TOL_A = 1e-6
#: Slack on SoC / normalised well-head bounds (dimensionless).
BOUNDS_TOL = 1e-9


def bus_integrals(bus) -> dict[str, float]:
    """A :class:`~repro.power.bus.PowerBus`'s cumulative flows (Wh), by name."""
    return {
        "solar": bus.e_solar_wh,
        "solar_to_load": bus.e_solar_to_load_wh,
        "battery_to_load": bus.e_battery_to_load_wh,
        "unserved": bus.e_unserved_wh,
        "charge_bus": bus.e_charge_bus_wh,
        "charge_terminal": bus.e_charge_terminal_wh,
        "curtailed": bus.e_curtailed_wh,
        "demand_bus": bus.e_demand_bus_wh,
        "server_wall": bus.e_server_wall_wh,
    }


def bus_closure(flows: Mapping[str, float], hours: float) -> tuple[float, float, float]:
    """The one energy account of the bus: both identities, integrated.

    ``flows`` holds :func:`bus_integrals`-named Wh totals over ``hours``
    simulated hours.  Returns the residuals of

    * ``solar = solar_to_load + charge_bus + curtailed`` and
    * ``demand_bus = solar_to_load + battery_to_load + unserved``,

    and the tolerance both must stay within (all in Wh).
    """
    residual_solar = flows["solar"] - (
        flows["solar_to_load"] + flows["charge_bus"] + flows["curtailed"]
    )
    residual_load = flows["demand_bus"] - (
        flows["solar_to_load"] + flows["battery_to_load"] + flows["unserved"]
    )
    tolerance = max(ACC_TOL_FLOOR_WH, ACC_TOL_WH_PER_H * hours)
    return residual_solar, residual_load, tolerance


class InvariantError(RuntimeError):
    """Raised when a physics invariant is violated (raise mode / assert)."""

    def __init__(self, message: str, violations: list["InvariantViolation"]):
        super().__init__(message)
        self.violations = violations


@dataclass(frozen=True)
class InvariantViolation:
    """One observed breach of a physics invariant."""

    tick: int
    t: float
    invariant: str
    component: str
    observed: float
    expected: float
    message: str

    def __str__(self) -> str:
        return (
            f"[tick {self.tick} t={self.t:.0f}s] {self.invariant} @ "
            f"{self.component}: {self.message} "
            f"(observed {self.observed:.9g}, expected {self.expected:.9g})"
        )


class InvariantChecker:
    """Engine observer asserting physical coherence of a running system.

    Parameters
    ----------
    bank / switchnet / plant:
        The assembled plant pieces to watch (see
        :func:`repro.core.system.build_system`); the bus checks read the
        plant's ``last_report`` and the energy integrals of its ``bus``.
    stride:
        Check once every ``stride`` ticks.  1 checks every tick; the
        default keeps full-run overhead low while still sampling every
        simulated minute at the standard ``dt=5`` step.
    raise_on_violation:
        Raise :class:`InvariantError` at the first offending tick instead
        of recording and continuing.
    max_violations:
        Stop recording beyond this many violations (the run itself
        continues); guards against megabyte-scale violation lists when a
        model is badly broken.
    """

    def __init__(
        self,
        bank: BatteryBank,
        switchnet: SwitchNetwork | None = None,
        plant=None,
        stride: int = 12,
        raise_on_violation: bool = False,
        max_violations: int = 1000,
    ) -> None:
        if stride < 1:
            raise ValueError(f"stride must be >= 1, got {stride}")
        self.bank = bank
        self.switchnet = switchnet
        self.plant = plant
        self.stride = int(stride)
        self.raise_on_violation = raise_on_violation
        self.max_violations = max_violations
        self.violations: list[InvariantViolation] = []
        self.checks_run = 0
        #: Per-unit wear counters from the previous check window.
        self._wear_marks = {
            unit.name: (unit.wear.discharge_ah, unit.wear.weighted_ah)
            for unit in bank
        }

    # ------------------------------------------------------------------
    # Observer protocol
    # ------------------------------------------------------------------
    def __call__(self, clock: Clock) -> None:
        if clock.step_index % self.stride:
            return
        self.checks_run += 1
        tick = clock.step_index
        t = clock.t
        self._check_bus(tick, t, clock.dt)
        self._check_batteries(tick, t)
        self._check_relays(tick, t)

    # ------------------------------------------------------------------
    # Individual invariants
    # ------------------------------------------------------------------
    def _check_bus(self, tick: int, t: float, dt: float) -> None:
        plant = self.plant
        report = getattr(plant, "last_report", None) if plant is not None else None
        if report is None:
            return

        for field_name in ("demand_w", "solar_available_w", "solar_to_load_w",
                           "battery_to_load_w", "unserved_w", "charge_power_w",
                           "curtailed_w"):
            value = getattr(report, field_name)
            if value < -ABS_TOL_W:
                self._record(tick, t, "nonnegative_flow", f"bus.{field_name}",
                             observed=value, expected=0.0,
                             message="power flow is negative")

        solar = report.solar_available_w
        solar_split = (report.solar_to_load_w + report.charge_power_w
                       + report.curtailed_w)
        tol = max(ABS_TOL_W, REL_TOL * max(solar, 1.0))
        if abs(solar - solar_split) > tol:
            self._record(tick, t, "energy_conservation", "bus.solar",
                         observed=solar_split, expected=solar,
                         message="PV input != load + charge + curtailment")

        demand = report.demand_w
        served_split = (report.solar_to_load_w + report.battery_to_load_w
                        + report.unserved_w)
        tol = max(ABS_TOL_W, REL_TOL * max(demand, 1.0))
        if abs(demand - served_split) > tol:
            self._record(tick, t, "energy_conservation", "bus.load",
                         observed=served_split, expected=demand,
                         message="demand != solar + battery + unserved")

        if report.unserved_w > demand + tol:
            self._record(tick, t, "nonnegative_flow", "bus.unserved_w",
                         observed=report.unserved_w, expected=demand,
                         message="unserved exceeds demand")

        # The bus integrates every tick, sampled or not, this one included.
        hours = (tick + 1) * dt / 3600.0
        solar_wh, load_wh, tol_wh = bus_closure(bus_integrals(plant.bus), hours)
        for side, residual in (("solar", solar_wh), ("load", load_wh)):
            if abs(residual) > tol_wh:
                self._record(tick, t, "energy_conservation", "bus.accumulated",
                             observed=residual, expected=0.0,
                             message=f"integrated {side}-side bus residual "
                                     f"drifting")

    def _check_batteries(self, tick: int, t: float) -> None:
        for unit in self.bank.units:
            kibam = self.kibam_of(unit)
            c = kibam.params.c
            capacity = kibam.capacity_ah
            y1_cap = c * capacity
            y2_cap = (1.0 - c) * capacity
            tol_ah = BOUNDS_TOL * capacity

            if not -tol_ah <= kibam.y1 <= y1_cap + tol_ah:
                self._record(tick, t, "well_bounds", f"{unit.name}.y1",
                             observed=kibam.y1, expected=y1_cap,
                             message="available well outside [0, c*C]")
            if not -tol_ah <= kibam.y2 <= y2_cap + tol_ah:
                self._record(tick, t, "well_bounds", f"{unit.name}.y2",
                             observed=kibam.y2, expected=y2_cap,
                             message="bound well outside [0, (1-c)*C]")
            soc = kibam.soc
            if not -BOUNDS_TOL <= soc <= 1.0 + BOUNDS_TOL:
                self._record(tick, t, "soc_bounds", unit.name,
                             observed=soc, expected=1.0,
                             message="state of charge outside [0, 1]")

            current = unit.last_current
            if current < -ACCEPTANCE_ABS_TOL_A:
                charge_amps = -current
                ceiling = unit.acceptance.max_current(soc)
                limit = ceiling * (1.0 + ACCEPTANCE_REL_TOL) + ACCEPTANCE_ABS_TOL_A
                if charge_amps > limit:
                    self._record(tick, t, "charge_acceptance", unit.name,
                                 observed=charge_amps, expected=ceiling,
                                 message="charge current above acceptance "
                                         "ceiling")

            marks = self._wear_marks[unit.name]
            wear = unit.wear
            now = (wear.discharge_ah, wear.weighted_ah)
            for label, before, after in zip(
                ("discharge_ah", "weighted_ah"), marks, now, strict=True,
            ):
                if after < before - 1e-12:
                    self._record(tick, t, "wear_monotone",
                                 f"{unit.name}.{label}",
                                 observed=after, expected=before,
                                 message="wear counter decreased")
            self._wear_marks[unit.name] = now

    def _check_relays(self, tick: int, t: float) -> None:
        if self.switchnet is None:
            return
        for name, pair in self.switchnet.pairs.items():
            if pair.charge.closed and pair.discharge.closed:
                self._record(tick, t, "relay_exclusivity", name,
                             observed=1.0, expected=0.0,
                             message="charge and discharge relays both "
                                     "closed")

    @staticmethod
    def kibam_of(unit):
        return unit.kibam

    # ------------------------------------------------------------------
    # Reporting
    # ------------------------------------------------------------------
    def _record(self, tick: int, t: float, invariant: str, component: str,
                observed: float, expected: float, message: str) -> None:
        violation = InvariantViolation(
            tick=tick, t=t, invariant=invariant, component=component,
            observed=observed, expected=expected, message=message,
        )
        if len(self.violations) < self.max_violations:
            self.violations.append(violation)
        if self.raise_on_violation:
            raise InvariantError(str(violation), [violation])

    @property
    def ok(self) -> bool:
        return not self.violations

    def counts(self) -> dict[str, int]:
        """Violation counts grouped by invariant name."""
        grouped: dict[str, int] = {}
        for violation in self.violations:
            grouped[violation.invariant] = grouped.get(violation.invariant, 0) + 1
        return grouped

    def report(self, limit: int = 10) -> str:
        """Human-readable summary of the recorded violations."""
        if not self.violations:
            return f"invariants ok ({self.checks_run} checks)"
        lines = [f"{len(self.violations)} invariant violation(s) "
                 f"across {self.checks_run} checks:"]
        for invariant, count in sorted(self.counts().items()):
            lines.append(f"  {invariant}: {count}")
        lines.append("first violations:")
        lines.extend(f"  {v}" for v in self.violations[:limit])
        return "\n".join(lines)

    def assert_clean(self) -> None:
        """Raise :class:`InvariantError` if any violation was recorded."""
        if self.violations:
            raise InvariantError(self.report(), list(self.violations))
