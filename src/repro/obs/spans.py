"""Span-based wall-time tracing of the tick loop.

The simulation engine's hot loop (engine step → sense → decide → actuate →
integrate) is opaque in a post-hoc trace: the arrays say *what* happened,
not *where the ticks went*.  A :class:`SpanTracer` attributes wall time to
named, nestable spans — one per component at the engine level, finer-
grained ``controller.sense`` / ``controller.decide.*`` spans inside the
power managers — with self-time accounting (a parent's time excludes its
children's).

Cost model: tracing is **sampled by tick stride**.  The engine asks
:meth:`SpanTracer.begin_tick` once per tick; on the 1-in-``stride`` ticks
that sample, spans record real timings, on all other ticks ``span()``
returns a shared no-op handle.  On the BENCH cell the per-tick hooks
alone (``begin_tick``, the null spans and the decision calls) cost under
1 % of a full day, but the default observability stack costs 5–11 %,
over the 5 % gate in ``benchmarks/test_perf_engine.py`` (see
``docs/observability.md``).
Tracing never mutates simulation state, so same-seed traces are
bit-identical with tracing on or off.
"""

from __future__ import annotations

import heapq
import time
from dataclasses import dataclass
from collections.abc import Callable
from typing import Any

#: Default 1-in-N tick sampling stride.
DEFAULT_STRIDE = 16

#: Hottest ticks retained for the profile report.
DEFAULT_HOT_TICKS = 5


class _NullSpan:
    """Shared no-op context manager handed out when not sampling."""

    __slots__ = ()

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, *exc: object) -> bool:
        return False


_NULL_SPAN = _NullSpan()


class NullTracer:
    """Tracer stand-in with zero bookkeeping; every span is a no-op."""

    __slots__ = ()

    sampling = False

    def span(self, name: str) -> _NullSpan:
        return _NULL_SPAN

    def begin_tick(self, index: int, t: float) -> bool:
        return False

    def end_tick(self) -> None:  # pragma: no cover - never sampled
        pass


NULL_TRACER = NullTracer()


@dataclass
class SpanStats:
    """Aggregated wall time for one span name across sampled ticks."""

    name: str
    count: int = 0
    total_s: float = 0.0
    self_s: float = 0.0
    max_s: float = 0.0

    @property
    def mean_s(self) -> float:
        return self.total_s / self.count if self.count else 0.0


class _Span:
    """Live span handle; created only on sampled ticks."""

    __slots__ = ("_tracer", "_name", "_start", "_child_s")

    def __init__(self, tracer: "SpanTracer", name: str) -> None:
        self._tracer = tracer
        self._name = name
        self._child_s = 0.0

    def __enter__(self) -> "_Span":
        self._tracer._stack.append(self)
        self._start = self._tracer._timer()
        return self

    def __exit__(self, *exc: object) -> bool:
        tracer = self._tracer
        elapsed = tracer._timer() - self._start
        stack = tracer._stack
        stack.pop()
        if stack:
            stack[-1]._child_s += elapsed
        tracer._record(self._name, elapsed, elapsed - self._child_s)
        return False


class SpanTracer:
    """Nestable span timing with per-tick sampling and hottest-tick capture.

    Parameters
    ----------
    stride:
        Sample one tick in every ``stride`` (1 = every tick).
    hot_ticks:
        Number of slowest sampled ticks to retain, each with its
        per-span self-time breakdown.
    timer:
        Clock used for measurements (injectable for deterministic tests).
    """

    def __init__(
        self,
        stride: int = DEFAULT_STRIDE,
        hot_ticks: int = DEFAULT_HOT_TICKS,
        timer: Callable[[], float] = time.perf_counter,
    ) -> None:
        if stride < 1:
            raise ValueError(f"stride must be >= 1, got {stride}")
        if hot_ticks < 0:
            raise ValueError(f"hot_ticks must be >= 0, got {hot_ticks}")
        self.stride = int(stride)
        self.hot_ticks = int(hot_ticks)
        self._timer = timer
        self.sampling = False
        self.ticks_seen = 0
        self.sampled_ticks = 0
        self.tick_seconds = 0.0
        self.max_tick_seconds = 0.0
        self.stats: dict[str, SpanStats] = {}
        self._stack: list[_Span] = []
        #: Min-heap of (elapsed, tick_index, sim_t, {span: self_s}).
        self._hot: list[tuple[float, int, float, dict[str, float]]] = []
        self._tick_index = 0
        self._tick_t = 0.0
        self._tick_self: dict[str, float] = {}
        self._tick_start = 0.0

    # ------------------------------------------------------------------
    # Tick protocol (driven by the engine)
    # ------------------------------------------------------------------
    def begin_tick(self, index: int, t: float) -> bool:
        """Start a tick; returns True when this tick is sampled."""
        self.ticks_seen += 1
        if index % self.stride:
            return False
        self.sampling = True
        self._tick_index = index
        self._tick_t = t
        self._tick_self = {}
        self._tick_start = self._timer()
        return True

    def end_tick(self) -> None:
        """Close a sampled tick: total it and fold into the hot-tick heap."""
        elapsed = self._timer() - self._tick_start
        self.sampling = False
        self.sampled_ticks += 1
        self.tick_seconds += elapsed
        if elapsed > self.max_tick_seconds:
            self.max_tick_seconds = elapsed
        if self.hot_ticks:
            entry = (elapsed, self._tick_index, self._tick_t, self._tick_self)
            if len(self._hot) < self.hot_ticks:
                heapq.heappush(self._hot, entry)
            elif elapsed > self._hot[0][0]:
                heapq.heapreplace(self._hot, entry)

    # ------------------------------------------------------------------
    # Spans
    # ------------------------------------------------------------------
    def span(self, name: str):
        """A context manager timing ``name``; no-op when not sampling."""
        if not self.sampling:
            return _NULL_SPAN
        return _Span(self, name)

    def _record(self, name: str, elapsed: float, self_s: float) -> None:
        stats = self.stats.get(name)
        if stats is None:
            stats = self.stats[name] = SpanStats(name)
        stats.count += 1
        stats.total_s += elapsed
        stats.self_s += self_s
        if elapsed > stats.max_s:
            stats.max_s = elapsed
        self._tick_self[name] = self._tick_self.get(name, 0.0) + self_s

    # ------------------------------------------------------------------
    # Reporting
    # ------------------------------------------------------------------
    @property
    def mean_tick_seconds(self) -> float:
        return self.tick_seconds / self.sampled_ticks if self.sampled_ticks else 0.0

    def report_rows(self) -> list[dict[str, Any]]:
        """Per-span aggregate rows, hottest (by self time) first."""
        total_self = sum(s.self_s for s in self.stats.values()) or 1.0
        rows = []
        for stats in sorted(self.stats.values(), key=lambda s: s.self_s, reverse=True):
            rows.append(
                {
                    "span": stats.name,
                    "calls": stats.count,
                    "total_s": stats.total_s,
                    "self_s": stats.self_s,
                    "mean_us": stats.mean_s * 1e6,
                    "max_us": stats.max_s * 1e6,
                    "share": stats.self_s / total_self,
                }
            )
        return rows

    def hottest(self) -> list[dict[str, Any]]:
        """The slowest sampled ticks, slowest first, with breakdowns."""
        ordered = sorted(self._hot, key=lambda e: e[0], reverse=True)
        return [
            {
                "tick": index,
                "t": t,
                "wall_us": elapsed * 1e6,
                "breakdown": dict(sorted(spans.items(), key=lambda kv: kv[1], reverse=True)),
            }
            for elapsed, index, t, spans in ordered
        ]

    def to_folded(self) -> str:
        """Folded-stack lines (``flamegraph.pl`` / speedscope compatible).

        Span nesting is flattened to ``tick;<span>`` with self-time
        weights in microseconds, which is what flamegraph renderers sum.
        """
        lines = [
            f"tick;{stats.name} {max(1, round(stats.self_s * 1e6))}"
            for stats in sorted(self.stats.values(), key=lambda s: s.name)
        ]
        return "\n".join(lines) + ("\n" if lines else "")

    def bind_registry(self, registry, prefix: str = "engine") -> None:
        """Expose tracer aggregates through a :class:`MetricsRegistry`."""
        registry.gauge(f"{prefix}.sampled_ticks").set_function(lambda: self.sampled_ticks)
        registry.gauge(f"{prefix}.ticks_seen").set_function(lambda: self.ticks_seen)
        registry.gauge(f"{prefix}.mean_tick_seconds").set_function(lambda: self.mean_tick_seconds)
        registry.gauge(f"{prefix}.max_tick_seconds").set_function(lambda: self.max_tick_seconds)
