"""Ledger vs golden matrix: bit-identity, closure, summary cross-check.

Runs every golden matrix cell with full observability (ledger + alerts)
and proves three things per cell:

* the trace digests still match the pinned records — the instruments
  never perturbed the trajectory;
* the ledger closure account holds over the full day;
* the ledger's flow edges agree with the independently computed
  RunSummary energy fields to within 0.1 %.

The matrix fans out through ``run_cells``.
"""

import pytest

from repro.experiments.runner import run_cells
from repro.validate import golden

#: Cross-check tolerance: 0.1 % relative, with an absolute floor for
#: fields that are legitimately ~0 (e.g. curtailment on a rainy day).
REL_TOL = 1e-3
ABS_FLOOR_WH = 0.5


def _assert_close(cell: str, field: str, summary_kwh: float, ledger_wh: float):
    expected_wh = summary_kwh * 1000.0
    tolerance = max(ABS_FLOOR_WH, REL_TOL * abs(expected_wh))
    assert abs(expected_wh - ledger_wh) <= tolerance, (
        f"{cell}: {field} summary={expected_wh:.3f} Wh "
        f"ledger={ledger_wh:.3f} Wh (tolerance {tolerance:.3f} Wh)"
    )


@pytest.mark.golden
def test_ledger_matrix_cross_check():
    records = run_cells(golden.compute_ledger_cell, golden.matrix_cells())
    assert len(records) == len(golden.matrix_cells()) == 12

    for record in records:
        cell = record["cell"]
        # Bit-identity: the instrumented run matches the pinned digests
        # (which were produced with observability off).
        stored = golden.load_record(cell)
        assert record["signals"] == stored["signals"], cell

        closure = record["closure"]
        assert closure["ok"], f"{cell}: {closure}"

        edges = record["ledger_edges"]
        energy = record["summary_energy"]
        _assert_close(cell, "solar_used_kwh", energy["solar_used_kwh"],
                      edges["bus.solar_to_load"] + edges["bus.to_charger"])
        _assert_close(cell, "curtailed_kwh", energy["curtailed_kwh"],
                      edges["bus.curtailed"])
        _assert_close(cell, "load_energy_kwh", energy["load_energy_kwh"],
                      edges["servers.load"])
        _assert_close(cell, "effective_energy_kwh",
                      energy["effective_energy_kwh"],
                      edges["servers.effective"])
        # The ledger's harvest edge is the summary's solar total.
        _assert_close(cell, "solar_energy_kwh", energy["solar_energy_kwh"],
                      edges["pv.harvest"])
