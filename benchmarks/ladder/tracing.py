"""Span recording around the program's layers, from outside the program.

The ladder never edits ``src/``: it measures a layer by replacing the
public callable that enters it (a method on a class, or a function on a
module) with a wrapper that opens a span, calls the original and closes
the span.  :func:`install` applies every wrapper in :data:`SPANS` and
returns an :class:`Installed` handle whose :meth:`~Installed.remove`
puts every original back, so an untraced run executes exactly the
program's own code.

Per span name the :class:`Tracer` keeps the call count, the inclusive
time and the self time (inclusive minus the part covered by child
spans).  Raw spans -- name, start, end, parent and work-item id -- are
kept only for the first work item, up to :data:`RAW_SPAN_CAP`, and are
written to a JSONL file at exit.
"""

from __future__ import annotations

import functools
import importlib
import json
from collections.abc import Callable
from contextlib import contextmanager
from pathlib import Path
from time import perf_counter
from typing import Any

#: Raw spans kept for the first work item.  A full scalar day is ~17k
#: ticks of ~15 spans each; the cap keeps the first few thousand ticks
#: and the file at a few megabytes.
RAW_SPAN_CAP = 20_000


def _session_id_arg(args: tuple) -> str:
    return args[1]


def _session_of_self(args: tuple) -> str:
    return args[0].id


#: (span name, "module:Qualified.attr", work-item extractor or None).
#: Several targets may share a span name; their counts and times add up.
SPANS: tuple[tuple[str, str, Callable[[tuple], Any] | None], ...] = (
    # Scalar engine: one tick is solar -> controller -> rack -> plant ->
    # metrics, then the observers.
    ("sim.engine", "repro.sim.engine:Engine.run", None),
    ("sim.engine", "repro.sim.engine:Engine.advance", None),
    ("solar", "repro.solar.field:TracePlayer.step", None),
    ("core.controller", "repro.core.energy_manager:InsureController.step", None),
    ("core.controller", "repro.core.baseline:BaselineController.step", None),
    ("core.sense", "repro.core.sensing:BatteryTelemetry.refresh", None),
    ("core.sense", "repro.power.plc:ProgrammableLogicController.step", None),
    ("policy", "repro.policy.policy:Policy.step", None),
    ("cluster.rack", "repro.cluster.rack:ServerRack.step", None),
    ("core.plant", "repro.core.system:PlantCoupler.step", None),
    ("power.bus", "repro.power.bus:PowerBus.resolve", None),
    ("battery", "repro.battery.unit:BatteryUnit.apply_discharge", None),
    ("battery", "repro.battery.unit:BatteryUnit.apply_charge", None),
    ("battery", "repro.battery.unit:BatteryUnit.idle", None),
    ("battery", "repro.battery.charger:SolarCharger.step", None),
    ("battery", "repro.battery.charger:SolarCharger.float_step", None),
    ("workloads", "repro.workloads.base:Workload.step", None),
    ("telemetry.metrics", "repro.telemetry.metrics:MetricsCollector.step", None),
    ("sim.recorder", "repro.sim.trace:TraceRecorder.__call__", None),
    ("obs.alerts", "repro.obs.alerts:AlertEngine.__call__", None),
    ("build", "repro.solar.traces:make_day_trace", None),
    ("build", "repro.core.system:build_system", None),
    # Serving: sessions interleave on one loop, so the session id is the
    # work item of every span below a session call.
    ("serve.session_build", "repro.serve.session:Session.__init__", _session_id_arg),
    ("serve.slice", "repro.serve.session:Session.step_slice", _session_of_self),
    ("serve.advance", "repro.core.system:InSituSystem.advance", None),
    ("serve.tap", "repro.obs.stream:StreamTap.poll", None),
    ("serve.sse", "repro.serve.sse:EventBuffer.append", None),
    ("serve.sse", "repro.serve.sse:BufferedEvent.encode", None),
    ("serve.finalize", "repro.serve.session:Session._complete", None),
    # Fleet kernel: private stage methods of the batch, the only seams
    # the vectorized tick has today.
    ("fleet.build", "repro.sim.fleet.kernel:_FleetBatch.__init__", None),
    ("fleet.tick", "repro.sim.fleet.kernel:_FleetBatch.step_tick", None),
    ("fleet.sense", "repro.sim.fleet.kernel:_FleetBatch._sense", None),
    ("fleet.controller", "repro.sim.fleet.controllers:insure_step", None),
    ("fleet.controller", "repro.sim.fleet.controllers:baseline_step", None),
    ("fleet.policy", "repro.sim.fleet.kernel:_FleetBatch._policy_step", None),
    ("fleet.rack", "repro.sim.fleet.kernel:_FleetBatch._rack_step", None),
    ("fleet.plant", "repro.sim.fleet.kernel:_FleetBatch._plant_step", None),
    ("fleet.metrics", "repro.sim.fleet.kernel:_FleetBatch._metrics_step", None),
    ("fleet.summaries", "repro.sim.fleet.kernel:_FleetBatch.summaries", None),
)


class Tracer:
    """Nested span bookkeeping: per-name aggregates plus capped raw spans."""

    def __init__(self) -> None:
        #: name -> [count, inclusive seconds, self seconds]
        self.stats: dict[str, list] = {}
        #: Inclusive seconds of spans opened with no span around them.
        self.root_s = 0.0
        #: Work-item id stamped on spans opened now (None outside items).
        self.item: Any = None
        #: [name, start, end, parent index or -1, item, self seconds] per
        #: kept span; self time counts every child, kept or dropped.
        self.raw: list[list] = []
        self.raw_item: Any = None
        self.raw_dropped = 0
        # Open spans: [name, start, child seconds, raw index or None].
        self._stack: list[list] = []

    def enter(self, name: str) -> None:
        start = perf_counter()
        index = None
        item = self.item
        if item is not None:
            if self.raw_item is None:
                self.raw_item = item
            if item == self.raw_item:
                if len(self.raw) < RAW_SPAN_CAP:
                    index = len(self.raw)
                    parent = self._stack[-1][3] if self._stack else None
                    self.raw.append([name, start, None,
                                     -1 if parent is None else parent, item, None])
                else:
                    self.raw_dropped += 1
        self._stack.append([name, start, 0.0, index])

    def leave(self) -> None:
        end = perf_counter()
        name, start, child, index = self._stack.pop()
        duration = end - start
        stat = self.stats.get(name)
        if stat is None:
            stat = self.stats[name] = [0, 0.0, 0.0]
        stat[0] += 1
        stat[1] += duration
        stat[2] += duration - child
        if self._stack:
            self._stack[-1][2] += duration
        else:
            self.root_s += duration
        if index is not None:
            self.raw[index][2] = end
            self.raw[index][5] = duration - child

    @contextmanager
    def item_scope(self, item: Any):
        """Stamp spans opened inside the block with work-item ``item``."""
        previous, self.item = self.item, item
        try:
            yield
        finally:
            self.item = previous

    def count(self, name: str) -> int:
        return self.stats.get(name, (0, 0.0, 0.0))[0]

    def total_s(self, name: str) -> float:
        return self.stats.get(name, (0, 0.0, 0.0))[1]

    def self_s(self, name: str) -> float:
        return self.stats.get(name, (0, 0.0, 0.0))[2]

    def to_dict(self) -> dict[str, Any]:
        """Aggregates and raw spans as plain JSON-compatible data."""
        return {"stats": self.stats, "root_s": self.root_s, "raw": self.raw,
                "raw_item": self.raw_item, "raw_dropped": self.raw_dropped}

    def load(self, data: dict[str, Any]) -> None:
        """Take over what :meth:`to_dict` wrote in another process."""
        self.stats = {name: list(stat) for name, stat in data["stats"].items()}
        self.root_s = data["root_s"]
        self.raw = data["raw"]
        self.raw_item = data["raw_item"]
        self.raw_dropped = data["raw_dropped"]

    def write_jsonl(self, path: Path, workload: str) -> Path:
        """Write the raw spans: a header line, then one span per line.

        Times are seconds from the first kept span's start.
        """
        t0 = self.raw[0][1] if self.raw else 0.0
        lines = [json.dumps({
            "workload": workload, "item": self.raw_item,
            "spans": len(self.raw), "dropped": self.raw_dropped,
        })]
        for index, (name, start, end, parent, item, self_s) in enumerate(self.raw):
            lines.append(json.dumps({
                "id": index, "name": name, "start_s": start - t0,
                "end_s": None if end is None else end - t0,
                "self_s": self_s, "parent": parent, "item": item,
            }))
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        return path


def _resolve(target: str) -> tuple[Any, str]:
    """``"pkg.mod:Class.attr"`` -> (owner object, attribute name)."""
    module_name, _, path = target.partition(":")
    owner: Any = importlib.import_module(module_name)
    *parents, attr = path.split(".")
    for part in parents:
        owner = getattr(owner, part)
    return owner, attr


def _wrap(tracer: Tracer, name: str, fn: Callable,
          item_of: Callable[[tuple], Any] | None) -> Callable:
    enter, leave = tracer.enter, tracer.leave
    if item_of is None:
        def wrapper(*args, **kwargs):
            enter(name)
            try:
                return fn(*args, **kwargs)
            finally:
                leave()
    else:
        def wrapper(*args, **kwargs):
            with tracer.item_scope(item_of(args)):
                enter(name)
                try:
                    return fn(*args, **kwargs)
                finally:
                    leave()
    return functools.wraps(fn)(wrapper)


class Installed:
    """Handle on applied wrappers; :meth:`remove` restores the originals."""

    def __init__(self) -> None:
        self.originals: list[tuple[Any, str, Any]] = []

    def remove(self) -> None:
        while self.originals:
            owner, attr, original = self.originals.pop()
            setattr(owner, attr, original)


def install(tracer: Tracer, spans=SPANS) -> Installed:
    """Wrap every target in ``spans``; targets are resolved at call time."""
    installed = Installed()
    try:
        for name, target, item_of in spans:
            owner, attr = _resolve(target)
            original = vars(owner)[attr]
            installed.originals.append((owner, attr, original))
            setattr(owner, attr, _wrap(tracer, name, original, item_of))
    except BaseException:
        installed.remove()
        raise
    return installed
