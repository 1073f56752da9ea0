"""Fleet-vs-scalar equivalence over the full golden matrix.

This is the acceptance gate for the vectorized backend: every one of the
12 golden-matrix cells, run through ``simulate_fleet`` in a single batch,
must match its stored golden summary within the invariant tolerance
(REL_TOL=1e-6 relative with an ABS_TOL=1e-3 floor, integers exact).
Full-day runs — golden-marked alongside the scalar regression suite.
"""

import pytest

from repro.sim.fleet.validator import (
    EXACT_VARS,
    CellVerdict,
    FleetValidator,
    compare_summaries,
)
from repro.validate.golden import matrix_cells

pytestmark = pytest.mark.golden


@pytest.fixture(scope="module")
def verdicts():
    # One simulate_fleet batch over all 12 cells; shared across tests so
    # the full-day matrix simulates once per session.
    cells = matrix_cells()
    assert len(cells) == 12
    return FleetValidator().validate_cells(cells)


def test_all_twelve_cells_match_goldens(verdicts):
    failures = [v.describe() for v in verdicts if not v.ok]
    assert not failures, "fleet kernel diverged from goldens: " + "; ".join(failures)


def test_matrix_covers_every_controller_workload_weather(verdicts):
    names = {v.cell for v in verdicts}
    for controller in ("insure", "baseline"):
        for workload in ("seismic", "video"):
            for weather in ("sunny", "cloudy", "rainy"):
                assert any(
                    controller in n and workload in n and weather in n
                    for n in names
                ), f"missing cell {controller}/{workload}/{weather}"


def test_discrete_decision_counters_are_exact(verdicts):
    # EXACT_VARS must appear in every verdict's comparison surface: a
    # mismatch there is a control-flow divergence, not numerical drift.
    assert EXACT_VARS == {
        "power_ctrl_times", "vm_ctrl_times", "on_off_cycles", "crash_count"
    }
    for verdict in verdicts:
        for var in EXACT_VARS:
            assert var not in verdict.mismatches


def test_compare_summaries_flags_out_of_tolerance_values():
    golden = {"uptime_pct": 99.5, "crash_count": 0}
    ok = compare_summaries("cell", {"uptime_pct": 99.5000001, "crash_count": 0},
                           golden)
    assert ok.ok
    drifted = compare_summaries("cell", {"uptime_pct": 99.6, "crash_count": 0},
                                golden)
    assert not drifted.ok and "uptime_pct" in drifted.mismatches
    flipped = compare_summaries("cell", {"uptime_pct": 99.5, "crash_count": 1},
                                golden)
    assert not flipped.ok and "crash_count" in flipped.mismatches
    assert isinstance(flipped, CellVerdict)
