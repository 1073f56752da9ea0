"""Scalar-engine triage tooling: a call counter for the tick.

:func:`count_calls` steps an assembled system under ``sys.setprofile``
and counts the calls of the Python functions defined in the ``repro``
package, split by stage.  A scalar tick costs about what its Python calls
cost, so the count leads an optimisation without host noise and a
tier-1 test pins it (``tests/sim/test_call_budget.py``), as
:func:`repro.sim.fleet.debug.count_calls` does for the fleet's numpy
calls.

Not used by the simulation paths; imported by tests and by hand::

    PYTHONPATH=src python -m repro.sim.debug insure video sunny [ticks]
"""

from __future__ import annotations

import dataclasses
import os
import sys
from collections import Counter
from types import CodeType
from typing import TYPE_CHECKING

if TYPE_CHECKING:  # annotations only; repro.core imports the engine
    from repro.core.system import InSituSystem

#: The per-component split of a scalar tick, in tick order.  Every call
#: goes to the engine component or controller period running when it is
#: made: ``sense`` is the controller's own step (the PLC scan, the
#: register decode, the estimators and the solar EMA), ``tpm`` and
#: ``spm`` its periods, ``policy`` its policy overlays.  The baseline's
#: one control period runs at the TPM's 30 s and counts as ``tpm``.
#: ``engine`` holds the calls outside every component (the run's own
#: entry, not per tick).
STAGES = ("solar", "sense", "tpm", "spm", "policy", "rack", "plant",
          "metrics", "observers", "engine")

#: Frames Python 3.12 inlines into their caller (PEP 709), so they are
#: never counted: a pinned count is then the same on 3.10, 3.11 and 3.12.
_INLINED = frozenset({"<listcomp>", "<dictcomp>", "<setcomp>"})

_PACKAGE_DIR = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


@dataclasses.dataclass
class CallCount:
    """Calls of ``ticks`` ticks: ``repro`` functions by stage and by
    function, and builtin (``c_call``) calls by stage."""

    ticks: int
    by_stage: Counter
    by_function: Counter
    builtins: Counter

    @property
    def total(self) -> int:
        return sum(self.by_stage.values())

    def per_tick(self) -> dict[str, float]:
        """``repro`` calls per tick of every stage, plus ``total``."""
        out = {stage: calls / self.ticks for stage, calls in self.by_stage.items()}
        out["total"] = self.total / self.ticks
        return out

    def builtins_per_tick(self) -> dict[str, float]:
        """Builtin calls per tick of every stage, plus ``total``."""
        out = {stage: calls / self.ticks for stage, calls in self.builtins.items()}
        out["total"] = sum(self.builtins.values()) / self.ticks
        return out


def _code(fn) -> CodeType | None:
    fn = getattr(fn, "__func__", fn)
    code = getattr(fn, "__code__", None)
    if code is None:
        code = getattr(getattr(type(fn), "__call__", None), "__code__", None)
    return code


def _stage_entries(system: InSituSystem) -> dict[CodeType, str]:
    """Code object -> stage, for every function that enters a stage."""
    roles = {
        id(system.source): "solar",
        id(system.controller): "sense",
        id(system.rack): "rack",
        id(system.plant): "plant",
        id(system.metrics): "metrics",
    }
    entries: dict[CodeType, str] = {}
    for component in system.engine.components:
        code = _code(type(component).step)
        if code is not None:
            entries[code] = roles.get(id(component), "engine")
    controller = type(system.controller)
    for name, stage in (("_temporal_period", "tpm"), ("_spatial_period", "spm"),
                        ("_online_period", "tpm"), ("_charging_period", "tpm"),
                        ("_step_policies", "policy")):
        code = _code(getattr(controller, name, None))
        if code is not None:
            entries[code] = stage
    for _name, callback, _every in system.engine.observers:
        code = _code(callback)
        if code is not None:
            entries[code] = "observers"
    return entries


def count_calls(system: InSituSystem, ticks: int) -> CallCount:
    """Step ``system`` ``ticks`` ticks under ``sys.setprofile`` and count
    its calls by stage.

    A call counts when its function is defined in the ``repro`` package;
    a generator counts once per resumption.  List, dict and set
    comprehensions are not counted (3.12 inlines them), nor are the
    functions that dataclasses and named tuples generate (they are not
    defined in a ``repro`` file).  Builtin calls are counted apart.  The
    engine's start hooks run before counting, so only ticks are counted.
    The profile hook only observes, so the trajectory is unchanged.
    """
    entries = _stage_entries(system)
    counted: dict[CodeType, bool] = {}
    by_stage: Counter = Counter()
    by_function: Counter = Counter()
    builtins: Counter = Counter()
    #: (frame, stage) of the stage entries on the stack, innermost last.
    stack: list = [(None, "engine")]

    def profile(frame, event, arg):
        if event == "call":
            code = frame.f_code
            keep = counted.get(code)
            if keep is None:
                keep = counted[code] = (
                    code.co_filename.startswith(_PACKAGE_DIR)
                    and code.co_name not in _INLINED
                )
            stage = entries.get(code)
            if stage is not None:
                stack.append((frame, stage))
            if keep:
                by_stage[stack[-1][1]] += 1
                by_function[code] += 1
        elif event == "return":
            if stack[-1][0] is frame:
                stack.pop()
        elif event == "c_call":
            builtins[stack[-1][1]] += 1

    engine = system.engine
    engine.begin(ticks * engine.clock.dt)
    previous = sys.getprofile()
    sys.setprofile(profile)
    try:
        engine.advance(ticks)
    finally:
        sys.setprofile(previous)
    return CallCount(ticks, by_stage, Counter({
        f"{os.path.relpath(code.co_filename, _PACKAGE_DIR)}:"
        f"{getattr(code, 'co_qualname', code.co_name)}": calls
        for code, calls in by_function.items()
    }), builtins)


def main(argv: list[str] | None = None) -> int:
    """Print a golden cell's calls per tick by stage (default: its day)."""
    from repro.sim.fleet.debug import build_scalar_system
    from repro.validate.golden import DT_SECONDS, DURATION_S

    args = list(sys.argv[1:] if argv is None else argv)
    if len(args) < 3:
        print("usage: python -m repro.sim.debug "
              "<controller> <workload> <weather> [ticks]")
        return 2
    ticks = int(args[3]) if len(args) > 3 else round(DURATION_S / DT_SECONDS)
    count = count_calls(build_scalar_system(*args[:3]), ticks)
    per_tick, builtin = count.per_tick(), count.builtins_per_tick()
    print(f"{count.ticks} ticks, {per_tick['total']:.1f} repro calls and "
          f"{builtin['total']:.1f} builtin calls per tick")
    for stage in STAGES:
        if stage in per_tick or stage in builtin:
            print(f"  {stage:<10} {per_tick.get(stage, 0.0):7.1f} "
                  f"{builtin.get(stage, 0.0):7.1f}")
    for name, calls in count.by_function.most_common(15):
        print(f"  {calls / count.ticks:7.2f}  {name}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
