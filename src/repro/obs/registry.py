"""Zero-dependency metrics registry.

Counters and gauges that simulation components register into.  The
design follows the usual pull-model conventions (Prometheus client
libraries) but stays import-light and allocation-light so the registry can
live inside the tick loop's blast radius without perturbing it:

* **Counters** are monotonically increasing totals (relay operations,
  decision events, sessions served).
* **Gauges** hold a point-in-time value.  A gauge may instead be bound to
  a zero-argument callable (:meth:`Gauge.set_function`), in which case the
  live value is read *at collection time* — instrumented components pay
  nothing per tick for such metrics.

Every registry belongs to one owner: a run's
:class:`~repro.obs.hub.Observability` bundle or the serve daemon's
session manager; there is no process-wide registry.  Snapshots export as
JSONL (one metric sample per line, greppable and joinable against the
decision-event log) and as the Prometheus text exposition format.
"""

from __future__ import annotations

import json
import math
import re
from collections.abc import Callable, Mapping
from typing import Any

_PROM_NAME_RE = re.compile(r"[^a-zA-Z0-9_:]")


def _prom_name(name: str) -> str:
    """A metric name valid in the Prometheus exposition format."""
    sanitized = _PROM_NAME_RE.sub("_", name)
    if sanitized and sanitized[0].isdigit():
        sanitized = "_" + sanitized
    return sanitized


def _prom_escape_label(value: str) -> str:
    """Escape a label value per the exposition format: backslash, double
    quote and line feed (in that order, so the backslashes we add are not
    re-escaped)."""
    return str(value).replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")


def _prom_escape_help(text: str) -> str:
    """HELP text escaping: backslash and line feed only (quotes are legal)."""
    return text.replace("\\", "\\\\").replace("\n", "\\n")


def _prom_labels(labels: Mapping[str, str]) -> str:
    if not labels:
        return ""
    inner = ",".join(f'{key}="{_prom_escape_label(labels[key])}"' for key in sorted(labels))
    return "{" + inner + "}"


def _prom_float(value: float) -> str:
    if value == math.inf:
        return "+Inf"
    if value == -math.inf:
        return "-Inf"
    return repr(float(value))


class Metric:
    """Base class carrying identity: name, help text and fixed labels."""

    kind = "untyped"

    def __init__(self, name: str, help: str = "", labels: Mapping[str, str] | None = None) -> None:
        if not name:
            raise ValueError("metric name must be non-empty")
        self.name = name
        self.help = help
        self.labels: dict[str, str] = dict(labels or {})

    def sample(self) -> dict[str, Any]:
        """One JSON-compatible sample of the current state."""
        raise NotImplementedError

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"{type(self).__name__}({self.name!r}, labels={self.labels!r})"


class Counter(Metric):
    """Monotonically increasing total."""

    kind = "counter"

    def __init__(self, name: str, help: str = "", labels: Mapping[str, str] | None = None) -> None:
        super().__init__(name, help, labels)
        self.value = 0.0

    def inc(self, amount: float = 1.0) -> None:
        if amount < 0:
            raise ValueError(f"counters only go up; got {amount}")
        self.value += amount

    def sample(self) -> dict[str, Any]:
        return {
            "name": self.name,
            "kind": self.kind,
            "labels": self.labels,
            "value": self.value,
        }


class Gauge(Metric):
    """Point-in-time value, settable or bound to a collection-time callable."""

    kind = "gauge"

    def __init__(self, name: str, help: str = "", labels: Mapping[str, str] | None = None) -> None:
        super().__init__(name, help, labels)
        self._value = 0.0
        self._fn: Callable[[], float] | None = None

    def set(self, value: float) -> None:
        self._fn = None
        self._value = float(value)

    def set_function(self, fn: Callable[[], float]) -> None:
        """Bind the gauge to ``fn``; the value is read at collection time."""
        self._fn = fn

    @property
    def value(self) -> float:
        if self._fn is not None:
            return float(self._fn())
        return self._value

    def sample(self) -> dict[str, Any]:
        return {
            "name": self.name,
            "kind": self.kind,
            "labels": self.labels,
            "value": self.value,
        }


class MetricsRegistry:
    """Get-or-create metric store shared by the instrumented components."""

    def __init__(self) -> None:
        self._metrics: dict[tuple[str, tuple[tuple[str, str], ...]], Metric] = {}

    def _get_or_create(self, cls: type, name: str, help: str, labels: dict[str, str]):
        key = (name, tuple(sorted(labels.items())))
        existing = self._metrics.get(key)
        if existing is not None:
            if not isinstance(existing, cls):
                raise ValueError(
                    f"metric {name!r} already registered as {existing.kind}, not {cls.kind}"
                )
            return existing
        metric = cls(name, help=help, labels=labels)
        self._metrics[key] = metric
        return metric

    def counter(self, name: str, help: str = "", **labels: str) -> Counter:
        return self._get_or_create(Counter, name, help, labels)

    def gauge(self, name: str, help: str = "", **labels: str) -> Gauge:
        return self._get_or_create(Gauge, name, help, labels)

    def __len__(self) -> int:
        return len(self._metrics)

    def __iter__(self):
        return iter(self._metrics.values())

    def get(self, name: str, **labels: str) -> Metric | None:
        return self._metrics.get((name, tuple(sorted(labels.items()))))

    # ------------------------------------------------------------------
    # Export
    # ------------------------------------------------------------------
    def _sorted(self) -> list[Metric]:
        return sorted(self._metrics.values(), key=lambda m: (m.name, sorted(m.labels.items())))

    def collect(self) -> list[dict[str, Any]]:
        """All metric samples (gauge functions are read now), name-sorted."""
        return [metric.sample() for metric in self._sorted()]

    def to_jsonl(self) -> str:
        """One JSON object per metric sample, newline-delimited."""
        return "".join(json.dumps(sample, sort_keys=True) + "\n" for sample in self.collect())

    def write_jsonl(self, path) -> None:
        from pathlib import Path

        Path(path).write_text(self.to_jsonl(), encoding="utf-8")

    def to_prometheus(self) -> str:
        """The Prometheus text exposition format (version 0.0.4).

        ``# HELP`` / ``# TYPE`` appear exactly once per metric family; the
        help text comes from whichever family member carries one (children
        created later with ``help=""`` must not suppress it), and label
        values are escaped per the format.
        """
        metrics = self._sorted()
        family_help: dict[str, str] = {}
        for metric in metrics:
            name = _prom_name(metric.name)
            if metric.help and name not in family_help:
                family_help[name] = metric.help
        lines: list[str] = []
        seen_headers: set[str] = set()
        for metric in metrics:
            name = _prom_name(metric.name)
            if name not in seen_headers:
                seen_headers.add(name)
                help_text = family_help.get(name)
                if help_text:
                    lines.append(f"# HELP {name} {_prom_escape_help(help_text)}")
                lines.append(f"# TYPE {name} {metric.kind}")
            lines.append(f"{name}{_prom_labels(metric.labels)} {_prom_float(metric.value)}")
        return "\n".join(lines) + ("\n" if lines else "")
