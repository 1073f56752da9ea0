"""Simulation-as-a-service: an asyncio daemon hosting live sessions.

The paper's in-situ installation is ultimately a *service* — a long-lived
plant whose controllers react to live signals — and this package turns
the reproduction into one.  ``repro serve`` boots a zero-dependency
asyncio daemon that hosts many concurrent simulation sessions:

* a session is created from a JSON :mod:`manifest <repro.serve.manifest>`
  (a golden cell id, a scenario cell, or an explicit configuration);
* the engine steps cooperatively in tick-budget slices
  (:mod:`repro.serve.session`), so hundreds of sessions interleave on
  one event loop;
* metrics, alerts, ledger deltas and decision events stream over
  Server-Sent Events (:mod:`repro.serve.sse`, fed by
  :class:`repro.obs.stream.StreamTap`);
* external clients inject decisions mid-run — attach a policy, force a
  limit, swap a governor, fire a raw control action — through the
  :mod:`repro.policy` registries, every injection recorded as an
  ``inject.*`` decision event so flight reports attribute it for free.

Determinism safety net: a served session with no injections reproduces
the pinned golden summaries within the
:class:`~repro.sim.fleet.validator.FleetValidator` tolerances (the
session's final ``summary`` event carries the verdict).

See ``docs/serving.md`` for the manifest schema, endpoint catalogue and
SSE event types.
"""

from repro.serve.client import ServeClient, SSEvent
from repro.serve.daemon import ServeDaemon
from repro.serve.manager import SessionManager
from repro.serve.manifest import (
    SessionManifest,
    parse_manifest,
    render_manifest,
)
from repro.serve.session import Session, SessionError, SessionState
from repro.serve.sse import EventBuffer, SSEParser, encode_event

__all__ = [
    "EventBuffer",
    "SSEParser",
    "SSEvent",
    "ServeClient",
    "ServeDaemon",
    "Session",
    "SessionError",
    "SessionManager",
    "SessionManifest",
    "encode_event",
    "parse_manifest",
    "render_manifest",
]
