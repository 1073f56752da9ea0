"""The Python call budget of a scalar tick.

A scalar tick costs about what its Python calls cost, so the count of
calls to ``repro`` functions is pinned per stage: a change that adds
calls to the tick must say so here, and one that removes calls lowers the
pin.  Three windows of 1,440 ticks (two hours) are counted:

* insure/video/sunny: VM actuation, the TPM and SPM periods, charging
  and the float trickle;
* baseline/seismic/cloudy: duty actuation and the baseline controller;
* the BENCH cell (insure/seismic/sunny at 1000 W, seed 1) with the
  default observability bundle, for the observers' stage.

The pins do not depend on the interpreter version (CI runs 3.10 and
3.12, the counts were taken on 3.11): the counter counts only functions
defined in ``repro`` files, so the generated ``__init__`` of a dataclass
or ``__new__`` of a named tuple and every stdlib or numpy frame are
left out; it skips list, dict and set comprehension frames, which 3.12
inlines into their caller (PEP 709); and every version reports a
``call`` event per generator resumption, so a generator expression
counts the same everywhere.  Builtin calls are reported but not pinned.
Nothing in the count depends on timing: the span tracer's timings steer
only builtin calls.
"""

from __future__ import annotations

import pytest

from repro.core.system import day_site
from repro.sim.debug import count_calls
from repro.validate.golden import cell_site

TICKS = 1440

#: ``repro`` calls of the windows below, by stage, counted by
#: ``repro.sim.debug.count_calls``.
PINNED = {
    "insure-video-sunny": {
        "solar": 1440, "sense": 18743, "tpm": 16295, "spm": 461, "policy": 1440,
        "rack": 7076, "plant": 88260, "metrics": 26550, "observers": 4680,
        "engine": 2,
    },
    "baseline-seismic-cloudy": {
        "solar": 1440, "sense": 19643, "tpm": 3186, "policy": 1440, "rack": 3866,
        "plant": 84646, "metrics": 23556, "observers": 4680, "engine": 2,
    },
    "bench-observed": {
        "solar": 1440, "sense": 18995, "tpm": 15761, "spm": 483, "policy": 1440,
        "rack": 4969, "plant": 89977, "metrics": 27669, "observers": 7958,
        "engine": 1203,
    },
}


def _bench(observability):
    return day_site("insure", "seismic", "sunny", mean_w=1000.0, seed=1,
                    initial_soc=0.55).build(observability=observability)


BUILDS = {
    "insure-video-sunny": lambda: cell_site("insure", "video", "sunny").build(),
    "baseline-seismic-cloudy": lambda: cell_site("baseline", "seismic",
                                                 "cloudy").build(),
    "bench-observed": lambda: _bench(True),
}


@pytest.mark.parametrize("window", sorted(PINNED))
def test_tick_call_count_is_pinned(window):
    count = count_calls(BUILDS[window](), TICKS)
    per_tick = count.per_tick()
    assert dict(count.by_stage) == PINNED[window], (
        f"{count.total} calls over {count.ticks} ticks "
        f"({per_tick['total']:.1f} per tick): "
        + ", ".join(f"{stage} {calls}" for stage, calls in sorted(count.by_stage.items()))
    )


def test_counting_leaves_the_trajectory_alone():
    counted = _bench(True)
    count_calls(counted, TICKS)
    plain = _bench(True)
    plain.run(TICKS * plain.engine.clock.dt)
    assert counted.engine.clock.step_index == plain.engine.clock.step_index
    counted.engine.end()
    assert vars(counted.metrics.summary()) == vars(plain.metrics.summary())
    assert counted.decisions.to_jsonl() == plain.decisions.to_jsonl()
