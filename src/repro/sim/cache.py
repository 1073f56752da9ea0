"""Content-addressed run cache.

Day-long simulations are deterministic functions of their configuration:
(trace parameters, controller, dt, seed, …) plus the code itself.  This
module memoises their summarised outputs on disk so repeated benchmark and
test invocations of identical configurations are near-instant, while any
change to the configuration *or to the repro source tree* produces a
different key and transparently invalidates stale entries.

Keying scheme
-------------
``cache_key(kind, **parts)`` hashes a canonical JSON encoding of the
parts together with :func:`code_fingerprint` — a SHA-256 over the contents
of every ``repro`` source file, computed once per process.  Entries are
stored as JSON files named by the key, written atomically (temp file +
rename) so concurrent worker processes can share one cache directory.

Experiment cells
----------------
:func:`cached_cell` memoises a cell function — one deterministic day
run returning a :class:`~repro.telemetry.metrics.RunSummary` — under
``namespace`` plus every bound argument with its defaults applied, so
passing a default explicitly and omitting it share one entry.  The
decorated function takes one more keyword, ``use_cache`` (default
True); ``use_cache=False`` recomputes and stores nothing.

Configuration
-------------
The cache directory comes from ``REPRO_CACHE_DIR``:

* unset  — ``~/.cache/repro-insure`` (created on demand);
* a path — use that directory;
* ``off`` (or ``0``/``none``/``disabled``) — disable caching entirely.
"""

from __future__ import annotations

import dataclasses
import functools
import hashlib
import inspect
import json
import os
import tempfile
from pathlib import Path
from collections.abc import Callable
from typing import Any

ENV_VAR = "REPRO_CACHE_DIR"
_DISABLED_VALUES = {"off", "0", "none", "disabled"}

_code_fingerprint: str | None = None


def code_fingerprint() -> str:
    """SHA-256 over the repro package sources (cached per process).

    Any edit to any module under ``repro`` changes the fingerprint, so the
    cache can never serve results computed by different code.
    """
    global _code_fingerprint
    if _code_fingerprint is None:
        package_root = Path(__file__).resolve().parent.parent
        digest = hashlib.sha256()
        for path in sorted(package_root.rglob("*.py")):
            digest.update(str(path.relative_to(package_root)).encode())
            digest.update(b"\0")
            digest.update(path.read_bytes())
            digest.update(b"\0")
        _code_fingerprint = digest.hexdigest()
    return _code_fingerprint


def cache_key(kind: str, **parts: Any) -> str:
    """Stable key for one run configuration.

    ``parts`` must be JSON-encodable; the encoding is canonical (sorted
    keys, no whitespace) so semantically equal configurations collide and
    different ones practically never do.
    """
    payload = json.dumps(
        {"kind": kind, "parts": parts, "code": code_fingerprint()},
        sort_keys=True,
        separators=(",", ":"),
    )
    return hashlib.sha256(payload.encode()).hexdigest()


class RunCache:
    """A directory of JSON result payloads addressed by content key.

    Parameters
    ----------
    directory:
        Cache root; ``None`` resolves from ``REPRO_CACHE_DIR`` (see module
        docstring).  A resolved value of ``None`` means caching is off and
        every operation is a no-op / miss.
    """

    def __init__(self, directory: str | os.PathLike | None = None) -> None:
        if directory is None:
            self.directory = default_cache_dir()
        else:
            self.directory = Path(directory)

    @property
    def enabled(self) -> bool:
        return self.directory is not None

    def _path(self, key: str) -> Path:
        return self.directory / f"{key}.json"

    def get(self, key: str) -> Any | None:
        """Return the stored payload for ``key``, or None on a miss."""
        if not self.enabled:
            return None
        path = self._path(key)
        try:
            with open(path, encoding="utf-8") as handle:
                return json.load(handle)
        except (OSError, json.JSONDecodeError):
            return None

    def put(self, key: str, payload: Any) -> None:
        """Store ``payload`` under ``key`` (atomic; safe across processes)."""
        if not self.enabled:
            return
        try:
            self.directory.mkdir(parents=True, exist_ok=True)
            fd, tmp_name = tempfile.mkstemp(
                dir=self.directory, prefix=".tmp-", suffix=".json"
            )
            try:
                with os.fdopen(fd, "w", encoding="utf-8") as handle:
                    json.dump(payload, handle)
                os.replace(tmp_name, self._path(key))
            except BaseException:
                try:
                    os.unlink(tmp_name)
                except OSError:
                    pass
                raise
        except OSError:
            # A read-only or full filesystem degrades to "no cache", never
            # to a failed experiment.
            return

    def fetch_or_compute(
        self, key: str, compute: Callable[[], Any]
    ) -> tuple[Any, bool]:
        """Return ``(payload, hit)``; computes and stores on a miss."""
        cached = self.get(key)
        if cached is not None:
            return cached, True
        payload = compute()
        self.put(key, payload)
        return payload, False

    def clear(self) -> int:
        """Delete every entry; returns how many were removed."""
        if not self.enabled or not self.directory.is_dir():
            return 0
        removed = 0
        for path in self.directory.glob("*.json"):
            try:
                path.unlink()
                removed += 1
            except OSError:
                pass
        return removed

    def entry_count(self) -> int:
        if not self.enabled or not self.directory.is_dir():
            return 0
        return sum(1 for _ in self.directory.glob("*.json"))


def default_cache_dir() -> Path | None:
    """Resolve the cache directory from the environment (None = disabled)."""
    raw = os.environ.get(ENV_VAR, "").strip()
    if raw.lower() in _DISABLED_VALUES and raw:
        return None
    if raw:
        return Path(raw)
    return Path.home() / ".cache" / "repro-insure"


def default_cache() -> RunCache:
    """A cache honouring the current environment (cheap to construct)."""
    return RunCache()


# ----------------------------------------------------------------------
# RunSummary serialisation
# ----------------------------------------------------------------------
def summary_to_payload(summary: Any) -> dict[str, Any]:
    """Encode a :class:`~repro.telemetry.metrics.RunSummary` as JSON data.

    All fields are ints/floats; JSON round-trips them exactly (floats are
    serialised via ``repr`` which is lossless for IEEE doubles).
    """
    return dataclasses.asdict(summary)


def summary_from_payload(payload: dict[str, Any]) -> Any:
    from repro.telemetry.metrics import RunSummary

    return RunSummary(**payload)


# ----------------------------------------------------------------------
# Memoised experiment cells
# ----------------------------------------------------------------------
def cached_cell(namespace: str) -> Callable[[Callable[..., Any]], Callable[..., Any]]:
    """Memoise a RunSummary-returning cell function in the run cache.

    The key is ``namespace`` plus every bound argument, defaults applied.
    The returned function accepts ``use_cache`` on top of the wrapped
    signature and exposes ``namespace`` and ``bind(*args, **kwargs)``,
    which returns ``(bound arguments, use_cache)``; the fleet backend
    keys its own results from the same two (see
    :mod:`repro.experiments.adapters`).
    """

    def decorate(fn: Callable[..., Any]) -> Callable[..., Any]:
        signature = inspect.signature(fn)

        def bind(*args: Any, use_cache: bool = True,
                 **kwargs: Any) -> tuple[dict[str, Any], bool]:
            bound = signature.bind(*args, **kwargs)
            bound.apply_defaults()
            return dict(bound.arguments), use_cache

        @functools.wraps(fn)
        def cell(*args: Any, **kwargs: Any) -> Any:
            params, use_cache = bind(*args, **kwargs)
            cache = default_cache() if use_cache else None
            if cache is None or not cache.enabled:
                return fn(**params)
            payload, _ = cache.fetch_or_compute(
                cache_key(namespace, **params),
                lambda: summary_to_payload(fn(**params)),
            )
            return summary_from_payload(payload)

        cell.namespace = namespace  # type: ignore[attr-defined]
        cell.bind = bind  # type: ignore[attr-defined]
        return cell

    return decorate
