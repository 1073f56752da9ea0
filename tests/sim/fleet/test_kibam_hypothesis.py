"""Property tests: the batched KiBaM integrator is bit-exact vs scalar.

The fleet kernel's whole numerical contract rests on its vectorized
expressions reproducing the scalar ones operation-for-operation.  For the
KiBaM Euler step that claim is checkable exactly: the expression tree
contains only +, -, *, / and comparisons (no transcendentals), and IEEE
arithmetic is deterministic elementwise, so the batch result must equal
the scalar result to the last bit — not approximately.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.battery.kibam import KiBaM
from repro.battery.params import KiBaMParams
from repro.sim.fleet.kernel import _FleetBatch, SiteSpec

CAPACITY_AH = 35.0
C = 0.62
K_PER_HOUR = 4.0
DT_S = 5.0

wells_y1 = st.floats(min_value=0.0, max_value=C * CAPACITY_AH,
                     allow_nan=False, allow_infinity=False)
wells_y2 = st.floats(min_value=0.0, max_value=(1.0 - C) * CAPACITY_AH,
                     allow_nan=False, allow_infinity=False)
currents = st.floats(min_value=-60.0, max_value=60.0,
                     allow_nan=False, allow_infinity=False)


def _batch(n: int) -> _FleetBatch:
    spec = SiteSpec(
        controller="insure",
        workload="video",
        seed=1,
        initial_soc=0.55,
        trace_power_w=tuple(0.0 for _ in range(12)),
        trace_dt_s=DT_S,
    )
    return _FleetBatch([spec] * n)


def _scalar(y1: float, y2: float) -> KiBaM:
    kibam = KiBaM(CAPACITY_AH, KiBaMParams(c=C, k_per_hour=K_PER_HOUR),
                  soc=1.0)
    kibam.y1 = y1
    kibam.y2 = y2
    return kibam


@given(y1=wells_y1, y2=wells_y2, amps=currents)
@settings(max_examples=200, deadline=None)
def test_single_cell_matches_scalar_bitwise(y1, y2, amps):
    batch = _batch(1)
    batch.y1[:] = y1
    batch.y2[:] = y2
    moved = batch._kibam_apply(np.ones((batch.b, 1), dtype=bool),
                               np.full((batch.b, 1), amps))

    scalar = _scalar(y1, y2)
    expected_moved = scalar.apply_current(amps, DT_S)

    for cell in range(batch.b):
        assert float(moved[cell, 0]) == expected_moved
        assert float(batch.y1[cell, 0]) == scalar.y1
        assert float(batch.y2[cell, 0]) == scalar.y2


@given(
    states=st.lists(st.tuples(wells_y1, wells_y2, currents),
                    min_size=2, max_size=8),
)
@settings(max_examples=50, deadline=None)
def test_batched_sites_are_elementwise_independent(states):
    # N sites stepped together must equal each site stepped alone: the
    # vectorization adds no cross-site coupling.  Site i is column i.
    batch = _batch(len(states))
    amps = np.zeros((batch.b, len(states)))
    for i, (y1, y2, a) in enumerate(states):
        batch.y1[:, i] = y1
        batch.y2[:, i] = y2
        amps[:, i] = a
    moved = batch._kibam_apply(np.ones_like(amps, dtype=bool), amps)

    for i, (y1, y2, a) in enumerate(states):
        scalar = _scalar(y1, y2)
        expected = scalar.apply_current(a, DT_S)
        assert float(moved[0, i]) == expected
        assert float(batch.y1[0, i]) == scalar.y1
        assert float(batch.y2[0, i]) == scalar.y2


@given(y1=wells_y1, y2=wells_y2)
@settings(max_examples=100, deadline=None)
def test_wells_stay_physical(y1, y2):
    batch = _batch(1)
    batch.y1[:] = y1
    batch.y2[:] = y2
    batch._kibam_apply(np.ones((batch.b, 1), dtype=bool),
                       np.full((batch.b, 1), 200.0))
    assert (batch.y1 >= 0.0).all() and (batch.y1 <= batch.y1_cap).all()
    assert (batch.y2 >= 0.0).all() and (batch.y2 <= batch.y2_cap).all()
