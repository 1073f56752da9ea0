"""Parallel experiment fan-out.

Every experiment matrix in the reproduction — controller × solar level ×
seed in the full-system comparison, Table 6's day × scheme grid, the
micro-benchmark sweep, the provisioning sweep — is a set of *independent*
deterministic cells.  :func:`run_cells` executes such a set through a
``concurrent.futures.ProcessPoolExecutor`` with ordered result collection,
so results are identical to the serial loop regardless of worker count,
and degrades gracefully to in-process execution when only one worker is
requested (or the platform cannot spawn a pool at all).

Determinism: each cell carries its own explicit seed (see
:func:`derive_seed` for deriving stable per-cell seeds from a base seed
and the cell's labels), and results are returned in submission order, so
the output never depends on scheduling.
"""

from __future__ import annotations

import hashlib
import os
import pickle
import time
import warnings
from collections.abc import Callable, Mapping, Sequence
from typing import Any

from repro.obs.ledger import SIGNED_EDGES
from repro.obs.registry import global_registry

ENV_WORKERS = "REPRO_WORKERS"
ENV_BACKEND = "REPRO_BACKEND"

#: run_cells execution backends.  ``pool`` is the default (process pool,
#: degrading to serial); ``fleet`` routes the whole cell batch through
#: the vectorized SoA kernel when an adapter exists for the cell
#: function, falling back to pool/serial otherwise.
BACKENDS = ("fleet", "pool", "serial")


def _cell_label(index: int, cell: Mapping[str, Any]) -> str:
    """A short human-readable id for one cell (index + leading kwargs)."""
    parts = []
    for key, value in cell.items():
        if isinstance(value, (str, int, float, bool)):
            parts.append(f"{key}={value}")
        if len(parts) == 4:
            break
    detail = ", ".join(parts)
    return f"cell #{index}" + (f" ({detail})" if detail else "")


class CellExecutionError(Exception):
    """A pool-executed cell raised; names the failing cell for triage.

    Raised instead of the bare worker exception so a 200-cell sweep that
    dies in worker 7 reports *which* cell blew up, not just the traceback
    of the cell function.  The original exception is chained as
    ``__cause__``.  Deliberately not a ``RuntimeError`` subclass: the
    pool-infrastructure fallback catches ``RuntimeError`` and this must
    propagate, not trigger a silent serial re-run.
    """

    def __init__(self, index: int, cell: Mapping[str, Any],
                 cause: BaseException) -> None:
        self.index = index
        self.cell = dict(cell)
        super().__init__(
            f"{_cell_label(index, cell)} raised "
            f"{type(cause).__name__}: {cause}"
        )

#: Histogram buckets for cell runtimes (sub-second replays to minutes).
_CELL_SECONDS_BUCKETS = (0.01, 0.05, 0.1, 0.25, 0.5, 1.0, 2.5, 5.0, 10.0,
                         30.0, 60.0, 120.0, 300.0)

#: Emit the pool-unavailable warning once per process, not once per batch
#: (a matrix run dispatches many batches; the ``runner.pool_fallbacks_total``
#: counter still tracks every occurrence).
_POOL_WARNING_EMITTED = False


def derive_seed(base_seed: int, *labels: object, bits: int = 31) -> int:
    """A stable per-cell seed from a base seed and the cell's labels.

    Uses SHA-256 rather than ``hash()`` so the value is identical across
    processes and Python invocations (``PYTHONHASHSEED`` does not matter).
    """
    material = ":".join([str(int(base_seed))] + [str(label) for label in labels])
    digest = hashlib.sha256(material.encode()).digest()
    return int.from_bytes(digest[:8], "big") % (1 << bits)


def default_workers(cells: int | None = None) -> int:
    """Worker count: ``REPRO_WORKERS`` env, else CPU count, capped to cells."""
    raw = os.environ.get(ENV_WORKERS, "").strip()
    if raw:
        try:
            workers = max(1, int(raw))
        except ValueError:
            workers = 1
    else:
        workers = os.cpu_count() or 1
    if cells is not None:
        workers = min(workers, max(1, cells))
    return workers


def _run_serial(fn: Callable[..., Any], cells: Sequence[Mapping[str, Any]]) -> list[Any]:
    """Serial loop with per-cell runtime rollups into the global registry."""
    registry = global_registry()
    cell_seconds = registry.histogram("runner.cell_seconds",
                                      "wall time per experiment cell",
                                      buckets=_CELL_SECONDS_BUCKETS)
    cells_total = registry.counter("runner.cells_total",
                                   "experiment cells executed")
    failures = registry.counter("runner.cell_failures_total",
                                "experiment cells that raised")
    results = []
    for cell in cells:
        t0 = time.perf_counter()
        try:
            results.append(fn(**cell))
        except Exception:
            failures.inc()
            raise
        cell_seconds.observe(time.perf_counter() - t0)
        cells_total.inc()
    return results


def _fall_back_to_serial(fn, cells, exc: BaseException) -> list[Any]:
    """Warn (once per process) and degrade to the serial loop."""
    global _POOL_WARNING_EMITTED
    if not _POOL_WARNING_EMITTED:
        _POOL_WARNING_EMITTED = True
        warnings.warn(
            f"process pool unavailable for {len(cells)} cell(s) "
            f"({type(exc).__name__}: {exc}); running serially",
            RuntimeWarning,
            stacklevel=3,
        )
    global_registry().counter("runner.pool_fallbacks_total",
                              "times the process pool was unavailable").inc()
    return _run_serial(fn, cells)


def _roll_up_obs(results: Sequence[Any]) -> None:
    """Fold per-cell observability payloads into the global registry.

    Cells that return a mapping with ``ledger_edges`` (edge → Wh) and/or
    ``alert_counts`` (rule → count) contribute to the fleet totals
    ``runner.ledger_wh_total{edge=...}`` and ``runner.alerts_total{rule=...}``.
    Signed balance edges (Δstored, residuals) are accounting checks, not
    flows, and are excluded — as is any negative value (counters only go up).
    """
    registry = global_registry()
    for result in results:
        if not isinstance(result, Mapping):
            continue
        edges = result.get("ledger_edges")
        if isinstance(edges, Mapping):
            for edge, wh in edges.items():
                if edge not in SIGNED_EDGES and wh > 0.0:
                    registry.counter("runner.ledger_wh_total",
                                     "fleet-total energy per flow edge",
                                     edge=edge).inc(float(wh))
        alerts = result.get("alert_counts")
        if isinstance(alerts, Mapping):
            for rule, count in alerts.items():
                if count > 0:
                    registry.counter("runner.alerts_total",
                                     "fleet-total alerts per rule",
                                     rule=rule).inc(int(count))


def _try_fleet_backend(
    fn: Callable[..., Any], cells: Sequence[Mapping[str, Any]]
) -> list[Any] | None:
    """Route the batch through the vectorized kernel; None on fallback."""
    from repro.experiments.adapters import run_cells_fleet
    from repro.sim.fleet import FleetUnsupported

    registry = global_registry()
    t0 = time.perf_counter()
    try:
        results = run_cells_fleet(fn, cells)
    except FleetUnsupported as exc:
        registry.counter(
            "runner.fleet_fallbacks_total",
            "cell batches the fleet backend routed back to pool/serial",
        ).inc()
        warnings.warn(
            f"fleet backend unavailable for {len(cells)} cell(s) "
            f"({type(exc).__name__}: {exc}); using pool/serial",
            RuntimeWarning,
            stacklevel=3,
        )
        return None
    registry.histogram("runner.batch_seconds",
                       "wall time per parallel cell batch",
                       buckets=_CELL_SECONDS_BUCKETS).observe(
        time.perf_counter() - t0)
    registry.counter("runner.cells_total",
                     "experiment cells executed").inc(len(cells))
    registry.counter("runner.fleet_cells_total",
                     "experiment cells executed by the fleet backend").inc(
        len(cells))
    return results


def run_cells(
    fn: Callable[..., Any],
    cells: Sequence[Mapping[str, Any]],
    max_workers: int | None = None,
    backend: str | None = None,
) -> list[Any]:
    """Run ``fn(**cell)`` for every cell; results in submission order.

    Parameters
    ----------
    fn:
        A *module-level* callable (it must be picklable to cross the
        process boundary).  Each cell is a mapping of keyword arguments.
    max_workers:
        Pool size; ``None`` uses :func:`default_workers`.  A value of 1 —
        or any failure to stand up a process pool (missing ``fork``,
        sandboxed interpreter, …) — falls back to the serial loop, whose
        results are identical by construction.
    backend:
        One of :data:`BACKENDS`; ``None`` reads ``REPRO_BACKEND`` and
        defaults to ``pool`` (pool with serial fallback).  ``fleet``
        batches every cell through the vectorized SoA kernel when the
        cell function has a registered adapter, and degrades to the
        pool/serial path when any cell is unsupported.  ``serial``
        forces the in-process loop.
    """
    cells = list(cells)
    if not cells:
        return []
    if backend is None:
        backend = os.environ.get(ENV_BACKEND, "").strip() or "pool"
    if backend not in BACKENDS:
        raise ValueError(
            f"unknown backend {backend!r} (expected one of {BACKENDS})"
        )
    if backend == "fleet":
        results = _try_fleet_backend(fn, cells)
        if results is not None:
            _roll_up_obs(results)
            return results
    if backend == "serial":
        results = _run_serial(fn, cells)
        _roll_up_obs(results)
        return results
    workers = default_workers(len(cells)) if max_workers is None else max_workers
    workers = min(max(1, int(workers)), len(cells))
    if workers <= 1:
        results = _run_serial(fn, cells)
        _roll_up_obs(results)
        return results

    try:
        from concurrent.futures import ProcessPoolExecutor
    except ImportError as exc:  # pragma: no cover - stdlib always has it
        results = _fall_back_to_serial(fn, cells, exc)
        _roll_up_obs(results)
        return results

    registry = global_registry()
    try:
        from concurrent.futures.process import BrokenProcessPool

        # Probe fn's picklability up front: an unpicklable callable (lambda,
        # closure) fails for every cell, and the failure type varies by
        # Python version (PicklingError vs AttributeError), so catching it
        # here keeps the degrade-to-serial path deterministic and leaves
        # the in-pool wrapper below to report genuine per-cell bugs.
        pickle.dumps(fn)

        t0 = time.perf_counter()
        with ProcessPoolExecutor(max_workers=workers) as pool:
            futures = [pool.submit(fn, **cell) for cell in cells]
            results = []
            for index, future in enumerate(futures):
                try:
                    results.append(future.result())
                except (BrokenProcessPool, pickle.PicklingError):
                    # Pool infrastructure failure, not a cell bug: let the
                    # fallback handler below re-run the batch serially.
                    raise
                except Exception as exc:
                    # The cell itself raised.  Re-raise named so a big
                    # sweep reports which cell failed, and skip the
                    # pointless serial re-run of the whole batch.
                    registry.counter(
                        "runner.cell_failures_total",
                        "experiment cells that raised").inc()
                    raise CellExecutionError(index, cells[index], exc) from exc
        registry.histogram("runner.batch_seconds",
                           "wall time per parallel cell batch",
                           buckets=_CELL_SECONDS_BUCKETS).observe(
            time.perf_counter() - t0)
        registry.counter("runner.cells_total",
                         "experiment cells executed").inc(len(cells))
        _roll_up_obs(results)
        return results
    except (OSError, ValueError, RuntimeError, NotImplementedError,
            ImportError, AttributeError, pickle.PicklingError) as exc:
        # Platforms without fork/spawn support, restricted environments
        # (e.g. a sandboxed /dev/shm breaking multiprocessing locks), or
        # unpicklable work (lambdas, closures) degrade to the serial
        # path, whose results are identical by construction.
        results = _fall_back_to_serial(fn, cells, exc)
        _roll_up_obs(results)
        return results
