"""Cooperative session scheduler.

The :class:`SessionManager` owns every hosted :class:`~repro.serve.session.Session`
and steps the RUNNING ones round-robin, one tick slice each, yielding to
the event loop between slices.  Slice sizes come from each session's
manifest (``tick_slice``), so a fast smoke session and a full-day run
interleave fairly: wall-clock per scheduling turn is bounded, not ticks.

The manager is loop-agnostic: :meth:`step_once` is a plain synchronous
method (used directly by tests), and :meth:`run` is the asyncio pump the
daemon spawns.

Finished sessions (``done`` or ``failed``) stay until a client deletes
them, up to ``max_sessions`` of them: past that, each one that finishes
reaps the oldest finished one, so a daemon whose clients never delete
holds a bounded number.  Daemon-level counters (sessions created/completed,
slices stepped) live in a private
:class:`~repro.obs.registry.MetricsRegistry` exported at ``/metrics``.
"""

from __future__ import annotations

import asyncio
from collections.abc import Iterable

from repro.obs.registry import MetricsRegistry
from repro.serve.manifest import SessionManifest
from repro.serve.session import Session, SessionError, SessionState


class CapacityError(SessionError):
    """Raised when the daemon is at ``max_sessions`` live sessions."""


class SessionManager:
    """Create, look up, schedule and reap sessions."""

    def __init__(self, max_sessions: int = 64,
                 max_buffered_events: int = 4096) -> None:
        if max_sessions < 1:
            raise ValueError("max_sessions must be >= 1")
        self.max_sessions = int(max_sessions)
        self.max_buffered_events = int(max_buffered_events)
        self.sessions: dict[str, Session] = {}
        #: Ids of finished sessions still held, oldest first.
        self._finished: dict[str, None] = {}
        self.registry = MetricsRegistry()
        self._counter = 0
        self._wakeup: asyncio.Event | None = None
        self._created = self.registry.counter(
            "serve.sessions_created_total", "sessions created")
        self._completed = self.registry.counter(
            "serve.sessions_completed_total", "sessions run to completion")
        self._failed = self.registry.counter(
            "serve.sessions_failed_total", "sessions that raised")
        self._slices = self.registry.counter(
            "serve.slices_total", "cooperative slices stepped")
        self._injections = self.registry.counter(
            "serve.injections_total", "decision injections applied")
        self.registry.gauge(
            "serve.sessions_live", "sessions in a live state"
        ).set_function(lambda: float(len(self.live_sessions())))

    # ------------------------------------------------------------------
    # Session CRUD
    # ------------------------------------------------------------------
    def live_sessions(self) -> list[Session]:
        return [s for s in self.sessions.values()
                if s.state in SessionState.LIVE]

    def create(self, manifest: SessionManifest,
               autostart: bool = False) -> Session:
        if len(self.live_sessions()) >= self.max_sessions:
            raise CapacityError(
                f"at capacity ({self.max_sessions} live sessions); "
                f"reap finished sessions or raise --max-sessions"
            )
        self._counter += 1
        session = Session(f"s-{self._counter:04d}", manifest,
                          max_buffered_events=self.max_buffered_events)
        self.sessions[session.id] = session
        self._created.inc()
        if autostart:
            session.start()
        self.kick()
        return session

    def get(self, session_id: str) -> Session:
        try:
            return self.sessions[session_id]
        except KeyError:
            raise KeyError(f"no session {session_id!r}") from None

    def remove(self, session_id: str) -> Session:
        """Reap a session (any state); its event buffer goes with it."""
        self._finished.pop(session_id, None)
        return self.sessions.pop(self.get(session_id).id)

    def list_info(self) -> list[dict]:
        return [s.info() for s in self.sessions.values()]

    # ------------------------------------------------------------------
    # Scheduling
    # ------------------------------------------------------------------
    def runnable(self) -> Iterable[Session]:
        return [s for s in self.sessions.values()
                if s.state == SessionState.RUNNING]

    def step_once(self) -> int:
        """One scheduler turn: each RUNNING session steps one slice.

        Returns the total ticks executed (0 = everyone idle/done).
        """
        executed = 0
        for session in list(self.runnable()):
            executed += self._step(session)
        return executed

    def _step(self, session: Session) -> int:
        """Step one slice of ``session``; count it and, if the session
        finished, reap past ``max_sessions`` finished sessions."""
        before = session.state
        ticks = session.step_slice()
        if ticks:
            self._slices.inc()
        if session.state == before or session.state in SessionState.LIVE:
            return ticks
        (self._completed if session.state == SessionState.DONE
         else self._failed).inc()
        if session.id in self.sessions:  # not deleted mid-turn
            self._finished[session.id] = None
        while len(self._finished) > self.max_sessions:
            oldest = next(iter(self._finished))
            del self._finished[oldest]
            del self.sessions[oldest]
        return ticks

    def kick(self) -> None:
        """Wake the asyncio pump (new session, resume, injection)."""
        if self._wakeup is not None:
            self._wakeup.set()

    def note_injection(self) -> None:
        self._injections.inc()

    async def run(self) -> None:
        """The daemon's stepping pump; runs until cancelled.

        Steps sessions as long as any are RUNNING, yielding to the loop
        after every session's slice so HTTP handling stays responsive;
        parks on an event when idle.
        """
        self._wakeup = asyncio.Event()
        try:
            while True:
                stepped_any = False
                for session in list(self.runnable()):
                    if self._step(session):
                        stepped_any = True
                    await asyncio.sleep(0)  # let HTTP handlers run
                if not stepped_any:
                    self._wakeup.clear()
                    try:
                        await asyncio.wait_for(self._wakeup.wait(), timeout=0.25)
                    except asyncio.TimeoutError:
                        pass
        finally:
            self._wakeup = None
