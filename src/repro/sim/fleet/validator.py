"""Gate the vectorized fleet kernel against golden-matrix summaries.

The scalar engine is the bit-exact reference for the physics; the
fleet kernel re-derives every expression in SoA form and is allowed only
ulp-level drift.  :class:`FleetValidator` replays the 12 golden-matrix
cells plus the policy scenario cells through
:func:`repro.sim.fleet.kernel.simulate_fleet` and compares
each run summary against the stored golden record using the same
tolerance model as the physics-invariant checker (relative ``REL_TOL``
with an absolute floor ``ABS_TOL``), applied to the 6-significant-digit
fingerprints that the golden harness itself stores.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from collections.abc import Mapping, Sequence
from typing import Any

from repro.sim.fleet.kernel import SiteSpec, simulate_fleet
from repro.validate.golden import (
    BASE_SEED,
    DEFAULT_GOLDEN_DIR,
    DT_SECONDS,
    DURATION_S,
    INITIAL_SOC,
    SUMMARY_SIG_DIGITS,
    TARGET_MEAN_W,
    cell_name,
    load_record,
    matrix_cells,
)

#: Tolerance model shared with the invariant checker: a summary variable
#: matches when |fleet - golden| <= max(REL_TOL * |golden|, ABS_TOL).
REL_TOL = 1e-6
ABS_TOL = 1e-3

#: Integer-valued summary variables must match exactly — they count
#: discrete controller decisions (switch ops, crashes, on/off cycles).
EXACT_VARS = frozenset(
    {"power_ctrl_times", "vm_ctrl_times", "on_off_cycles", "crash_count"}
)


@dataclass(frozen=True)
class CellVerdict:
    """Outcome of validating one golden cell against the fleet kernel."""

    cell: str
    ok: bool
    mismatches: dict[str, tuple[Any, Any]] = field(default_factory=dict)

    def describe(self) -> str:
        if self.ok:
            return f"{self.cell}: OK"
        parts = ", ".join(
            f"{var} fleet={got!r} golden={want!r}"
            for var, (got, want) in sorted(self.mismatches.items())
        )
        return f"{self.cell}: MISMATCH ({parts})"


def fingerprint_dict(summary: Mapping[str, Any]) -> dict[str, Any]:
    """Apply the golden fingerprint rounding to a plain summary dict.

    Mirrors :func:`repro.validate.golden.summary_fingerprint`, which takes
    a RunSummary dataclass; fleet summaries are already plain dicts.
    """
    out: dict[str, Any] = {}
    for var, value in sorted(summary.items()):
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            out[var] = value
        elif isinstance(value, int):
            out[var] = value
        else:
            out[var] = float(f"{value:.{SUMMARY_SIG_DIGITS}g}")
    return out


def _values_match(got: Any, want: Any, *, exact: bool) -> bool:
    if isinstance(want, bool) or isinstance(got, bool):
        return bool(got) == bool(want)
    if exact or (isinstance(want, int) and isinstance(got, int)):
        return int(got) == int(want)
    try:
        gf = float(got)
        wf = float(want)
    except (TypeError, ValueError):
        return got == want
    return abs(gf - wf) <= max(REL_TOL * abs(wf), ABS_TOL)


def compare_summaries(
    cell: str,
    fleet_summary: Mapping[str, Any],
    golden_summary: Mapping[str, Any],
) -> CellVerdict:
    """Compare a fleet summary against a golden one at fingerprint precision."""
    got_fp = fingerprint_dict(fleet_summary)
    want_fp = fingerprint_dict(golden_summary)
    mismatches: dict[str, tuple[Any, Any]] = {}
    for var in sorted(set(got_fp) | set(want_fp)):
        if var not in got_fp or var not in want_fp:
            mismatches[var] = (got_fp.get(var, "<missing>"),
                               want_fp.get(var, "<missing>"))
            continue
        if not _values_match(got_fp[var], want_fp[var], exact=var in EXACT_VARS):
            mismatches[var] = (got_fp[var], want_fp[var])
    return CellVerdict(cell=cell, ok=not mismatches, mismatches=mismatches)


def spec_for_cell(
    controller: str,
    workload: str,
    weather: str,
    *,
    duration_s: float = DURATION_S,
    scenario: str | None = None,
) -> SiteSpec:
    """Build the SiteSpec matching one golden cell's configuration.

    With ``scenario`` set, the seed derives from the scenario name (the
    plant axes must already be the scenario's — use
    :func:`scenario_cell_tuple`) and the kernel applies its policies.
    """
    from repro.experiments.runner import derive_seed
    from repro.solar.traces import make_day_trace

    if scenario is not None:
        from repro.experiments.scenarios import scenario_seed

        seed = scenario_seed(scenario)
    else:
        seed = derive_seed(BASE_SEED, controller, workload, weather)
    trace = make_day_trace(
        weather, dt_seconds=DT_SECONDS, seed=seed, target_mean_w=TARGET_MEAN_W
    )
    return SiteSpec(
        controller=controller,
        workload=workload,
        seed=seed,
        initial_soc=INITIAL_SOC,
        trace_power_w=tuple(trace.power_w),
        trace_dt_s=DT_SECONDS,
        duration_s=duration_s,
        scenario=scenario,
    )


def scenario_cell_tuple(scenario: str) -> tuple[str, str, str, str]:
    """The 4-tuple cell for a policy scenario (plant axes + scenario name)."""
    from repro.experiments.scenarios import get_scenario

    spec = get_scenario(scenario)
    return (spec.controller, spec.workload, spec.weather, scenario)


class FleetValidator:
    """Validate the fleet kernel against the stored golden matrix.

    The validator is the acceptance gate for the vectorized path: all 12
    cells must match their golden summaries within the invariant
    tolerance before the ``fleet`` backend is trusted for sweeps.
    """

    def __init__(self, golden_dir: Path | None = None) -> None:
        self.golden_dir = Path(golden_dir) if golden_dir else DEFAULT_GOLDEN_DIR

    def cells(self) -> list[tuple[str, str, str]]:
        """The 12 golden-matrix cells (scenario cells are separate — see
        :meth:`scenario_cells` / :meth:`all_cells`)."""
        return [
            (cell["controller"], cell["workload"], cell["weather"])
            for cell in matrix_cells()
        ]

    def scenario_cells(self) -> list[tuple[str, str, str, str]]:
        """The policy scenario cells as 4-tuples (axes + scenario name)."""
        from repro.experiments.scenarios import scenario_names

        return [scenario_cell_tuple(name) for name in scenario_names()]

    def all_cells(self) -> list[tuple]:
        return list(self.cells()) + list(self.scenario_cells())

    def validate_cells(
        self, cells: Sequence[tuple] | None = None
    ) -> list[CellVerdict]:
        """Run the fleet kernel over *cells* and compare against goldens.

        Cells are ``(controller, workload, weather)`` triples or
        ``(controller, workload, weather, scenario)`` 4-tuples; the
        default covers the matrix plus every scenario.  All requested
        cells run in a single ``simulate_fleet`` batch so the validator
        also exercises the mixed-group scatter path.
        """
        from repro.validate.golden import scenario_cell_name

        todo = [
            (cell if len(cell) == 4 else (*cell, None)) for cell in
            (list(cells) if cells is not None else self.all_cells())
        ]
        specs = [
            spec_for_cell(c, w, x, scenario=sc) for (c, w, x, sc) in todo
        ]
        summaries = simulate_fleet(specs)
        verdicts: list[CellVerdict] = []
        for (c, w, x, sc), summary in zip(todo, summaries, strict=True):
            name = scenario_cell_name(sc) if sc else cell_name(c, w, x)
            record = load_record(name, self.golden_dir)
            verdicts.append(
                compare_summaries(name, summary, record["summary"])
            )
        return verdicts

    def validate(
        self, cells: Sequence[tuple] | None = None
    ) -> CellVerdict | None:
        """Return the first failing verdict, or None when every cell matches."""
        for verdict in self.validate_cells(cells):
            if not verdict.ok:
                return verdict
        return None

    def assert_valid(
        self, cells: Sequence[tuple] | None = None
    ) -> None:
        """Raise AssertionError naming every mismatched variable."""
        failures = [v for v in self.validate_cells(cells) if not v.ok]
        if failures:
            detail = "; ".join(v.describe() for v in failures)
            raise AssertionError(f"fleet kernel diverged from goldens: {detail}")
