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

A *site cell* (:func:`site_cell`) describes one site as a
:class:`~repro.core.system.SiteSpec`: the pool runs its scalar build,
and the ``fleet`` backend batches the same specs through the vectorized
kernel.
"""

from __future__ import annotations

import functools
import hashlib
import os
import pickle
import warnings
from collections.abc import Callable, Mapping, Sequence
from typing import Any

from repro.sim.cache import (
    cache_key,
    cached_cell,
    default_cache,
    summary_from_payload,
    summary_to_payload,
)

ENV_WORKERS = "REPRO_WORKERS"
ENV_BACKEND = "REPRO_BACKEND"

#: run_cells execution backends.  ``pool`` is the default (process pool,
#: degrading to the in-process loop); ``fleet`` routes the whole cell
#: batch through the vectorized SoA kernel when the cell function is a
#: site cell, falling back to the pool otherwise.
BACKENDS = ("fleet", "pool")


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

#: Emit the pool-unavailable warning once per process, not once per batch
#: (a matrix run dispatches many batches).
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
    """The in-process loop every other path degrades to."""
    return [fn(**cell) for cell in cells]


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
    return _run_serial(fn, cells)


def site_cell(namespace: str) -> Callable[[Callable[..., Any]], Callable[..., Any]]:
    """Turn a function returning a :class:`~repro.core.system.SiteSpec`
    into a cached cell (:func:`~repro.sim.cache.cached_cell`) that runs it.

    Called, the cell runs ``spec.build().run(spec.duration_s)``; the
    ``fleet`` backend calls the describing function, kept as
    ``cell.site``, on each cell's bound arguments and batches the specs.
    """

    def decorate(site: Callable[..., Any]) -> Callable[..., Any]:
        @functools.wraps(site)
        def run(*args: Any, **kwargs: Any) -> Any:
            spec = site(*args, **kwargs)
            return spec.build().run(spec.duration_s)

        cell = cached_cell(namespace)(run)
        cell.site = site  # type: ignore[attr-defined]
        return cell

    return decorate


def _run_fleet(fn: Callable[..., Any], cells: Sequence[Mapping[str, Any]]) -> list[Any]:
    """Batch the sites of a site cell's cells through the fleet kernel;
    results in input order.

    Raises :class:`~repro.sim.fleet.FleetUnsupported` when ``fn`` is no
    site cell or the kernel refuses a site: the signal to run the batch
    on the pool.  Results are cached like the cell's own, keyed on its
    bound arguments, but under ``fleet.<namespace>``: the kernel is only
    tolerance-equal to the scalar reference (see
    :mod:`repro.sim.fleet.validator`), so neither replays as the other.
    """
    from repro.sim.fleet import FleetUnsupported, simulate_fleet

    site = getattr(fn, "site", None)
    if site is None:
        raise FleetUnsupported(f"{getattr(fn, '__qualname__', fn)} describes no site")
    namespace = "fleet." + fn.namespace
    cache = default_cache()
    results: list[Any] = [None] * len(cells)
    specs, keys, pending = [], [], []
    for index, cell in enumerate(cells):
        params, use_cache = fn.bind(**cell)
        key = cache_key(namespace, **params) if use_cache and cache.enabled else None
        cached = cache.get(key) if key is not None else None
        if cached is not None:
            results[index] = summary_from_payload(cached)
            continue
        specs.append(site(**params))
        keys.append(key)
        pending.append(index)
    summaries = simulate_fleet(specs) if specs else []
    for index, key, summary in zip(pending, keys, summaries, strict=True):
        results[index] = run = summary_from_payload(summary)
        if key is not None:
            cache.put(key, summary_to_payload(run))
    return results


def _try_fleet_backend(
    fn: Callable[..., Any], cells: Sequence[Mapping[str, Any]]
) -> list[Any] | None:
    """Route the batch through the vectorized kernel; None on fallback."""
    from repro.sim.fleet import FleetUnsupported

    try:
        return _run_fleet(fn, cells)
    except FleetUnsupported as exc:
        warnings.warn(
            f"fleet backend unavailable for {len(cells)} cell(s) "
            f"({type(exc).__name__}: {exc}); using the pool",
            RuntimeWarning,
            stacklevel=3,
        )
        return None


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
        batches every cell through the vectorized SoA kernel when ``fn``
        is a :func:`site_cell`, and degrades to the pool when any cell is
        unsupported.
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
            return results
    workers = default_workers(len(cells)) if max_workers is None else max_workers
    workers = min(max(1, int(workers)), len(cells))
    if workers <= 1:
        return _run_serial(fn, cells)

    try:
        from concurrent.futures import ProcessPoolExecutor
    except ImportError as exc:  # pragma: no cover - stdlib always has it
        return _fall_back_to_serial(fn, cells, exc)

    try:
        from concurrent.futures.process import BrokenProcessPool

        # Probe fn's picklability up front: an unpicklable callable (lambda,
        # closure) fails for every cell, and the failure type varies by
        # Python version (PicklingError vs AttributeError), so catching it
        # here keeps the degrade-to-serial path deterministic and leaves
        # the in-pool wrapper below to report genuine per-cell bugs.
        pickle.dumps(fn)

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
                    raise CellExecutionError(index, cells[index], exc) from exc
        return results
    except (OSError, ValueError, RuntimeError, NotImplementedError,
            ImportError, AttributeError, pickle.PicklingError) as exc:
        # Platforms without fork/spawn support, restricted environments
        # (e.g. a sandboxed /dev/shm breaking multiprocessing locks), or
        # unpicklable work (lambdas, closures) degrade to the serial
        # path, whose results are identical by construction.
        return _fall_back_to_serial(fn, cells, exc)
