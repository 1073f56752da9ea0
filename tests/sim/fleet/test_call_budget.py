"""The numpy call budget of a fleet tick.

At small batches a fleet tick costs about what its numpy calls cost,
whatever the site count, so the count is pinned: a change that adds
calls to the tick must say so here, and one that removes calls lowers
the pin.  The batch is the three insure/video golden sites over their
first 20 minutes: the sun is up, and the window holds discharge, landed
charge and float ticks.
"""

from __future__ import annotations

import dataclasses

from repro.sim.fleet.debug import count_calls
from repro.sim.fleet.kernel import _FleetBatch
from repro.sim.fleet.validator import spec_for_cell

#: Numpy calls of the 240 ticks below, counted by ``count_calls``.
PINNED_CALLS = 47925


def _batch() -> _FleetBatch:
    return _FleetBatch([
        dataclasses.replace(spec_for_cell("insure", "video", weather),
                            duration_s=1200.0)
        for weather in ("sunny", "cloudy", "rainy")
    ])


def test_tick_call_count_is_pinned():
    batch = _batch()
    count = count_calls(batch)
    per_tick = count.per_tick()
    assert count.total == PINNED_CALLS, (
        f"{count.total} numpy calls over {count.ticks} ticks "
        f"({per_tick['total']:.1f} per tick), pinned {PINNED_CALLS}: "
        + ", ".join(f"{stage} {calls:.1f}" for stage, calls in sorted(per_tick.items()))
    )
    # Every stage of the ladder's split shows up.
    assert {"sense", "controller", "rack", "plant", "metrics", "tick"} <= set(per_tick)


def test_counting_leaves_the_trajectory_alone():
    from repro.sim.fleet import controllers

    counted = _batch()
    count_calls(counted)
    plain = _batch()
    controllers.start(plain)
    for k in range(plain.steps):
        plain.step_tick(k)
    assert counted.summaries() == plain.summaries()
