"""Scenario-cell golden equivalence (``pytest -m golden -m policy``).

Extends the golden regression surface to the three policy scenario cells:
fresh scalar runs must reproduce the pinned trace digests bit-for-bit,
the instrumented (ledger) replays must leave the trajectory untouched and
close the energy account, and the vectorized fleet kernel must agree with
the pinned summaries — including exact equality on the discrete decision
counters, which proves the kernel's mirrored policy columns fire the
identical governor decisions at the identical ticks.

The 12 matrix cells' bit-exactness after the SPM/TPM policy refactor is
pinned by the pre-existing suite in ``tests/validate/test_golden.py``
(same records, same digests); this module covers the cells the policy
framework added.
"""

from __future__ import annotations

import pytest

from repro.experiments.scenarios import scenario_names
from repro.validate import golden

pytestmark = [pytest.mark.golden, pytest.mark.policy]

SCENARIOS = scenario_names()
SCENARIO_CELL_NAMES = [golden.scenario_cell_name(s) for s in SCENARIOS]


@pytest.fixture(scope="module")
def scenario_results():
    """Every scenario cell, computed once for the whole module."""
    return golden.compute_matrix(golden.scenario_cells())


def test_pinned_set_is_matrix_plus_scenarios():
    names = {golden.cell_name(**cell) for cell in golden.matrix_cells()}
    assert len(names) == 12
    assert len(golden.all_cells()) == 12 + len(SCENARIOS)
    # Every pinned record — matrix and scenario — exists on disk.
    for name in sorted(names) + SCENARIO_CELL_NAMES:
        assert golden.record_path(name).is_file(), f"missing record {name}"


@pytest.mark.parametrize("scenario", SCENARIOS)
def test_scenario_cell_matches_golden_record(scenario_results, scenario):
    name = golden.scenario_cell_name(scenario)
    record = golden.load_record(name)
    assert record["config"]["scenario"] == scenario
    diffs = golden.diff_records(record, scenario_results[name])
    if diffs:
        detail = "\n  ".join(diffs)
        pytest.fail(
            f"scenario cell {name} diverged:\n  {detail}\n"
            f"(intentional change? `python -m repro validate --refresh` "
            f"and review the diff — see docs/policy.md)"
        )


def test_scenario_runs_with_zero_invariant_violations(scenario_results):
    violating = {
        name: record["invariants"]
        for name, record in scenario_results.items()
        if record["invariants"]["violations"]
    }
    assert not violating, f"invariant violations in {violating}"


@pytest.mark.parametrize("scenario", SCENARIOS)
def test_scenario_ledger_closes_and_preserves_digests(scenario):
    """Full observability (ledger + alerts) must not perturb the policied
    trajectory, and the energy account must close — the charge-current
    cap's withheld surplus has to land in curtailment, not vanish."""
    record = golden.compute_ledger_cell(scenario=scenario)
    stored = golden.load_record(golden.scenario_cell_name(scenario))
    assert record["signals"] == stored["signals"]
    closure = record["closure"]
    assert closure["ok"], f"{record['cell']}: {closure}"


def test_fleet_kernel_matches_scenario_goldens():
    from repro.sim.fleet.validator import FleetValidator

    verdicts = FleetValidator().validate_cells(golden.scenario_cells())
    assert [v.cell for v in verdicts] == SCENARIO_CELL_NAMES
    failures = [v.describe() for v in verdicts if not v.ok]
    assert not failures, "; ".join(failures)
