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
    DEFAULT_GOLDEN_DIR,
    DT_SECONDS,
    DURATION_S,
    INITIAL_SOC,
    TARGET_MEAN_W,
    load_record,
    matrix_cells,
    resolve_cell,
    summary_fingerprint,
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


#: The golden fingerprint rounding, under the name fleet callers know it by.
fingerprint_dict = summary_fingerprint


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
    got_fp = summary_fingerprint(fleet_summary)
    want_fp = summary_fingerprint(golden_summary)
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

    With ``scenario`` set, the plant axes and seed come from the scenario
    (as :func:`repro.validate.golden.resolve_cell` resolves them) and the
    kernel applies its policies.
    """
    from repro.solar.traces import make_day_trace

    cell = resolve_cell(controller, workload, weather, scenario)
    trace = make_day_trace(
        cell.weather, dt_seconds=DT_SECONDS, seed=cell.seed,
        target_mean_w=TARGET_MEAN_W,
    )
    return SiteSpec(
        controller=cell.controller,
        workload=cell.workload,
        seed=cell.seed,
        initial_soc=INITIAL_SOC,
        trace_power_w=trace.power_w,
        trace_dt_s=DT_SECONDS,
        duration_s=duration_s,
        scenario=scenario,
    )


def scenario_cell_tuple(scenario: str) -> tuple[str, str, str, str]:
    """The 4-tuple cell for a policy scenario (plant axes + scenario name)."""
    cell = resolve_cell(scenario=scenario)
    return (cell.controller, cell.workload, cell.weather, scenario)


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
            name = resolve_cell(c, w, x, sc).name
            record = load_record(name, self.golden_dir)
            verdicts.append(
                compare_summaries(name, summary, record["summary"])
            )
        return verdicts
