"""Hypothesis property suite for the governor rule families.

``pytest -m policy``.  Pins the contracts the conformance kit and the
fleet kernel lean on: every governor's output stays inside its declared
``limit_range``; step and list governors are *total* over their whole
input domain (any signal value, any zone label — known or not — maps to
a limit from the declared set); linear governors return their endpoint
limits exactly at and beyond the pivots, with no last-ulp wobble.
"""

from __future__ import annotations

import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

from repro.policy.governors import (
    ConstGovernor,
    LinearGovernor,
    ListGovernor,
    StepGovernor,
    parse_governor,
)

pytestmark = pytest.mark.policy

fractions = st.floats(min_value=0.0, max_value=1.0, allow_nan=False)
signals = st.floats(min_value=-1e6, max_value=1e6, allow_nan=False)
pivots = st.floats(min_value=-1e5, max_value=1e5, allow_nan=False)
step_entries = st.lists(
    st.tuples(pivots, fractions), min_size=1, max_size=6,
    unique_by=lambda entry: entry[0],
)
zone_labels = st.text(alphabet="abcdefgh", min_size=1, max_size=8)


@given(value=fractions, signal=signals)
def test_const_is_signal_independent(value, signal):
    governor = ConstGovernor(value)
    assert governor.limit(signal) == value
    assert governor.limit_range == (value, value)


@given(steps=step_entries, below=fractions, signal=signals)
def test_step_total_and_within_declared_range(steps, below, signal):
    governor = StepGovernor(steps, below=below)
    limit = governor.limit(signal)
    assert limit in {below} | {value for _, value in steps}
    lo, hi = governor.limit_range
    assert lo <= limit <= hi


@given(steps=step_entries, below=fractions)
def test_step_thresholds_are_inclusive(steps, below):
    governor = StepGovernor(steps, below=below)
    ordered = sorted(steps)
    for threshold, value in ordered:
        assert governor.limit(threshold) == value
    assert governor.limit(ordered[0][0] - 1.0) == below


@given(table=st.dictionaries(zone_labels, fractions, min_size=1, max_size=6),
       probe=zone_labels)
def test_list_total_over_any_label(table, probe):
    governor = ListGovernor(table)
    limit = governor.limit(probe)
    if probe in table:
        assert limit == table[probe]
    else:
        # Unknown zones fall back to the most conservative table entry.
        assert limit == min(table.values())
    lo, hi = governor.limit_range
    assert lo <= limit <= hi


@given(lo=pivots, hi=pivots, limit_lo=fractions, limit_hi=fractions,
       signal=signals)
def test_linear_endpoints_exact_and_interior_bounded(lo, hi, limit_lo,
                                                     limit_hi, signal):
    assume(hi > lo)
    governor = LinearGovernor(lo, hi, limit_lo, limit_hi)
    # Endpoint exactness: == on floats, deliberately.
    assert governor.limit(lo) == limit_lo
    assert governor.limit(hi) == limit_hi
    assert governor.limit(lo - 1.0) == limit_lo
    assert governor.limit(hi + 1.0) == limit_hi
    limit = governor.limit(signal)
    range_lo, range_hi = governor.limit_range
    assert range_lo - 1e-9 <= limit <= range_hi + 1e-9


@given(lo=pivots, hi=pivots, limit_lo=fractions, limit_hi=fractions,
       a=signals, b=signals)
def test_linear_monotone_when_capacity_ramps_down(lo, hi, limit_lo,
                                                  limit_hi, a, b):
    assume(hi > lo)
    assume(limit_lo >= limit_hi)
    governor = LinearGovernor(lo, hi, limit_lo, limit_hi)
    if a <= b:
        # Up to rounding only: the exact-endpoint contract wins at the
        # pivots, and an interior evaluation one ulp inside a pivot can
        # round a hair past the endpoint limit.
        assert governor.limit(a) >= governor.limit(b) - 1e-9


grid_limits = st.integers(min_value=0, max_value=20).map(lambda n: n / 20.0)
grid_steps = st.lists(
    st.tuples(st.integers(min_value=-1000, max_value=1000).map(float),
              grid_limits),
    min_size=1, max_size=6, unique_by=lambda entry: entry[0],
)


@given(steps=grid_steps, below=grid_limits, signal=signals)
def test_parse_round_trips_describe_for_step(steps, below, signal):
    # describe() renders %g tokens, lossless for these grid values, so
    # the reparsed governor must agree everywhere.
    governor = StepGovernor(steps, below=below)
    reparsed = parse_governor(f"{governor.describe()}:below={below:g}")
    assert reparsed.limit(signal) == governor.limit(signal)


@pytest.mark.parametrize("spec", [
    "const:nan", "const:inf", "const:-inf", "const:nan%",
    "list:red=nan", "list:red=0.5:default=inf",
    "step:nan=50%", "step:100=inf", "step:100=50%:below=nan",
    "linear:nan:500", "linear:100:inf", "linear:100:500:max:nan",
])
def test_non_finite_numbers_rejected(spec):
    # A NaN limit compares false with everything, so the control it feeds
    # takes whichever branch that leaves it in, without an error.
    with pytest.raises(ValueError, match="not a finite number"):
        parse_governor(spec)
