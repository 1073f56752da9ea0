"""Gate the vectorized fleet kernel against golden-matrix summaries.

The scalar engine is the bit-exact reference for the physics; the
fleet kernel re-derives every expression in SoA form and is allowed only
ulp-level drift.  :class:`FleetValidator` replays the 12 golden-matrix
cells plus the policy scenario cells — the same
:func:`~repro.validate.golden.cell_site` sites the scalar goldens run —
through :func:`repro.sim.fleet.kernel.simulate_fleet` and compares
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

from repro.sim.fleet.kernel import simulate_fleet
from repro.validate.golden import (
    DEFAULT_GOLDEN_DIR,
    all_cells,
    cell_site,
    load_record,
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


class FleetValidator:
    """Validate the fleet kernel against the stored golden matrix.

    The validator is the acceptance gate for the vectorized path: every
    pinned cell must match its golden summary within the invariant
    tolerance before the ``fleet`` backend is trusted for sweeps.
    """

    def __init__(self, golden_dir: Path | None = None) -> None:
        self.golden_dir = Path(golden_dir) if golden_dir else DEFAULT_GOLDEN_DIR

    def validate_cells(
        self, cells: Sequence[Mapping[str, str]] | None = None
    ) -> list[CellVerdict]:
        """Run the fleet kernel over *cells* and compare against goldens.

        Cells are the golden harness's keyword cells
        (:func:`~repro.validate.golden.matrix_cells`,
        :func:`~repro.validate.golden.scenario_cells`); the default is
        :func:`~repro.validate.golden.all_cells`.  All requested cells run
        in a single ``simulate_fleet`` batch so the validator also
        exercises the mixed-group scatter path.
        """
        todo = list(cells) if cells is not None else all_cells()
        summaries = simulate_fleet([cell_site(**cell) for cell in todo])
        verdicts: list[CellVerdict] = []
        for cell, summary in zip(todo, summaries, strict=True):
            name = resolve_cell(**cell).name
            record = load_record(name, self.golden_dir)
            verdicts.append(
                compare_summaries(name, summary, record["summary"])
            )
        return verdicts
