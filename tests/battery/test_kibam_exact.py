"""Exact (closed-form) KiBaM step properties.

``KiBaM.apply_current_exact`` is the reference the simulation's Euler
step (``apply_current``) is held against: the two must agree in the limit
of vanishing step size.  The closed form itself must be invariant to how
a constant-current interval is subdivided (that is what "exact" means),
and respect the same conservation and clamping rules at the well
boundaries.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.battery.kibam import KiBaM
from repro.battery.params import KiBaMParams

CAPACITY = 35.0


def fresh(soc, c=0.62, k=4.0):
    return KiBaM(CAPACITY, KiBaMParams(c=c, k_per_hour=k), soc=soc)


class TestEulerLimit:
    @given(
        soc=st.floats(0.35, 0.85),
        amps=st.floats(-6.0, 6.0),
        horizon=st.sampled_from([30.0, 120.0, 600.0]),
    )
    @settings(max_examples=60, deadline=None)
    def test_euler_converges_to_exact_as_dt_vanishes(self, soc, amps, horizon):
        """Refining the Euler step drives it onto the closed form."""
        exact = fresh(soc)
        exact.apply_current_exact(amps, horizon)

        errors = []
        for substeps in (4, 64, 1024):
            euler = fresh(soc)
            for _ in range(substeps):
                euler.apply_current(amps, horizon / substeps)
            errors.append(abs(euler.y1 - exact.y1) + abs(euler.y2 - exact.y2))

        # Finest refinement lands on the exact answer...
        assert errors[-1] < 1e-3
        # ...and the error shrinks monotonically with the step size —
        # but only once there is truncation error to shrink: at
        # near-zero currents every refinement already sits at the
        # roundoff floor, where the ordering is noise.
        if errors[0] > 1e-10:
            assert errors[2] <= errors[0] + 1e-12

    @given(
        soc=st.floats(0.35, 0.85),
        amps=st.floats(-6.0, 6.0),
    )
    @settings(max_examples=60, deadline=None)
    def test_single_small_step_agrees(self, soc, amps):
        """For dt -> 0 the two integrators coincide step by step."""
        euler = fresh(soc)
        exact = fresh(soc)
        euler.apply_current(amps, 0.05)
        exact.apply_current_exact(amps, 0.05)
        assert euler.y1 == pytest.approx(exact.y1, abs=1e-8)
        assert euler.y2 == pytest.approx(exact.y2, abs=1e-8)


class TestStepSizeInvariance:
    @given(
        soc=st.floats(0.4, 0.8),
        amps=st.floats(-4.0, 4.0),
        splits=st.sampled_from([2, 3, 8]),
    )
    @settings(max_examples=60, deadline=None)
    def test_subdividing_a_step_changes_nothing(self, soc, amps, splits):
        """One exact step == many exact sub-steps (no clamping regime)."""
        horizon = 300.0
        whole = fresh(soc)
        moved_whole = whole.apply_current_exact(amps, horizon)

        pieces = fresh(soc)
        moved_pieces = 0.0
        for _ in range(splits):
            moved_pieces += pieces.apply_current_exact(amps, horizon / splits)

        assert pieces.y1 == pytest.approx(whole.y1, abs=1e-9)
        assert pieces.y2 == pytest.approx(whole.y2, abs=1e-9)
        assert moved_pieces == pytest.approx(moved_whole, abs=1e-9)


class TestConservationAndClamps:
    @given(
        soc=st.floats(0.0, 1.0),
        amps=st.floats(-60.0, 60.0),
        dt=st.floats(1.0, 7200.0),
    )
    @settings(max_examples=200, deadline=None)
    def test_wells_stay_physical(self, soc, amps, dt):
        model = fresh(soc)
        model.apply_current_exact(amps, dt)
        assert 0.0 <= model.y1 <= 0.62 * CAPACITY + 1e-9
        assert 0.0 <= model.y2 <= 0.38 * CAPACITY + 1e-9
        assert 0.0 <= model.soc <= 1.0 + 1e-9

    @given(
        soc=st.floats(0.0, 1.0),
        amps=st.floats(-60.0, 60.0),
        dt=st.floats(1.0, 7200.0),
    )
    @settings(max_examples=200, deadline=None)
    def test_moved_charge_matches_state_change(self, soc, amps, dt):
        """What the step reports as moved is what left the wells.

        ``_clamp_wells`` folds available-well shortfall/overflow into the
        reported Ah; only the (rare) bound-well clamp at the rails can
        break the identity, so skip those cases.
        """
        model = fresh(soc)
        before = model.charge_ah
        moved = model.apply_current_exact(amps, dt)
        y2_cap = 0.38 * CAPACITY
        if 1e-9 < model.y2 < y2_cap - 1e-9:
            assert before - model.charge_ah == pytest.approx(moved, abs=1e-9)

    @given(soc=st.floats(0.0, 1.0), dt=st.floats(1.0, 7200.0))
    @settings(max_examples=100, deadline=None)
    def test_rest_conserves_total_charge(self, soc, dt):
        """Zero current only redistributes charge between the wells."""
        model = fresh(soc)
        before = model.charge_ah
        moved = model.apply_current_exact(0.0, dt)
        assert moved == pytest.approx(0.0, abs=1e-9)
        assert model.charge_ah == pytest.approx(before, abs=1e-9)

    @given(soc=st.floats(0.0, 0.2), dt=st.floats(600.0, 3600.0))
    @settings(max_examples=100, deadline=None)
    def test_overdraw_empties_and_reports_shortfall(self, soc, dt):
        """Draining far past empty pins the available well and under-reports.

        At 200 A for >= 10 min the request (33+ Ah) dwarfs the charge a
        20 %-full 35 Ah cabinet holds, so the clamp must engage.
        """
        model = fresh(soc)
        requested_ah = 200.0 * dt / 3600.0
        moved = model.apply_current_exact(200.0, dt)
        assert model.y1 == 0.0
        assert moved < requested_ah
