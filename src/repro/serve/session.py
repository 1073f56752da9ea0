"""One hosted simulation session: sliced stepping, streaming, injection.

A :class:`Session` wraps an assembled :class:`~repro.core.system.InSituSystem`
(with observability attached) behind the engine's non-blocking
``begin_run``/``advance``/``finalize`` API.  The session manager calls
:meth:`Session.step_slice` repeatedly — each call runs at most
``manifest.tick_slice`` engine ticks, then drains the
:class:`~repro.obs.stream.StreamTap` into the session's SSE
:class:`~repro.serve.sse.EventBuffer` — so hundreds of sessions
interleave cooperatively on one event loop.

Sessions are plain synchronous objects (no asyncio in this module): the
daemon drives them from its loop, and the unit suite drives them
directly.

A session that finishes (``done`` or ``failed``) releases its plant: the
system, the observability bundle and the tap go, and what the session
still answers with stays — the summary, the event buffer, the final
simulated time and the final Prometheus text of its metrics.

Decision injection
------------------
:meth:`inject` lets an external client steer a live run through the
:mod:`repro.policy` registries.  Four kinds:

* ``policy`` — attach a whole new policy overlay (wire format as in the
  manifest schema);
* ``limit`` — force a capacity limit through an attached policy's
  control method, one-shot;
* ``governor`` — swap an attached policy's governor for a new rule
  string (takes effect at the policy's next evaluation);
* ``control`` — fire a raw control action (registry name + limit) bound
  directly to the controller.

Every injection is recorded as an ``inject.<kind>`` decision event
before it acts, so the decision log — and therefore flight reports and
the SSE stream — attribute external steering for free.  A session that
received any injection reports ``injected: true`` and skips the golden
verdict (its trajectory is intentionally off the pinned rails).
"""

from __future__ import annotations

import json
from collections.abc import Mapping
from dataclasses import asdict
from typing import Any

from repro.obs.stream import StreamTap
from repro.serve.manifest import (
    ManifestError,
    SessionManifest,
    _number,
    build_session_system,
    golden_verdict,
    render_manifest,
)
from repro.serve.sse import EventBuffer


class SessionState:
    """Session lifecycle states (plain strings on the wire)."""

    CREATED = "created"
    RUNNING = "running"
    PAUSED = "paused"
    DONE = "done"
    FAILED = "failed"

    #: States a session can still step or accept injections in.
    LIVE = (CREATED, RUNNING, PAUSED)


class SessionError(RuntimeError):
    """Invalid session operation (maps to HTTP 400/409)."""


class Session:
    """A hosted run stepped in tick-budget slices."""

    def __init__(
        self,
        session_id: str,
        manifest: SessionManifest,
        max_buffered_events: int = 4096,
    ) -> None:
        self.id = session_id
        self.manifest = manifest
        self.system, self.obs = build_session_system(manifest)
        self.tap = StreamTap(self.obs)
        self.events = EventBuffer(max_events=max_buffered_events)
        self.state = SessionState.CREATED
        self.total_ticks = self.system.begin_run(manifest.duration_s)
        self.ticks_done = 0
        self.injections = 0
        self.summary_payload: dict[str, Any] | None = None
        self.error: str | None = None
        #: The final simulated time and metrics text, once released.
        self._final_t = 0.0
        self._final_metrics = ""
        self._emit("hello", {
            "session": self.id,
            "manifest": render_manifest(manifest),
            "total_ticks": self.total_ticks,
        })

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def clock_t(self) -> float:
        if self.system is None:
            return self._final_t
        return self.system.engine.clock.t

    def metrics_text(self) -> str:
        """The per-session Prometheus exposition (final once finished)."""
        if self.obs is None:
            return self._final_metrics
        return self.obs.registry.to_prometheus()

    def info(self) -> dict[str, Any]:
        """The session descriptor returned by the HTTP endpoints."""
        return {
            "session": self.id,
            "state": self.state,
            "cell": self.manifest.cell,
            "ticks_done": self.ticks_done,
            "total_ticks": self.total_ticks,
            "sim_t": self.clock_t,
            "injections": self.injections,
            "last_event_id": self.events.last_id,
            "error": self.error,
        }

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def start(self) -> None:
        if self.state != SessionState.CREATED:
            raise SessionError(f"cannot start a {self.state} session")
        self._set_state(SessionState.RUNNING)

    def pause(self) -> None:
        if self.state != SessionState.RUNNING:
            raise SessionError(f"cannot pause a {self.state} session")
        self._set_state(SessionState.PAUSED)

    def resume(self) -> None:
        if self.state != SessionState.PAUSED:
            raise SessionError(f"cannot resume a {self.state} session")
        self._set_state(SessionState.RUNNING)

    def step_slice(self) -> int:
        """Run one cooperative slice; returns the ticks executed.

        Only RUNNING sessions step.  When the run's tick budget is
        exhausted the session finalizes: summary + verdict events are
        emitted and the state moves to DONE.
        """
        if self.state != SessionState.RUNNING:
            return 0
        try:
            executed = self.system.advance(self.manifest.tick_slice)
            self.ticks_done += executed
            self._flush_tap()
            if self.system.remaining_steps <= 0:
                self._complete()
            return executed
        except Exception as exc:  # keep the daemon alive; fail the session
            self.error = f"{type(exc).__name__}: {exc}"
            self._set_state(SessionState.FAILED)
            self._emit("error", {"error": self.error, "t": self.clock_t})
            self._emit("end", {"session": self.id, "state": self.state})
            self._release()
            return 0

    # ------------------------------------------------------------------
    # Decision injection
    # ------------------------------------------------------------------
    def inject(self, payload: Mapping[str, Any]) -> dict[str, Any]:
        """Apply one decision injection; returns an acknowledgement dict.

        Applied between slices by construction (the daemon and the
        stepping loop share one thread), so the injection lands at a
        well-defined tick boundary and the recorded event carries it.
        """
        if self.state not in SessionState.LIVE:
            raise SessionError(f"cannot inject into a {self.state} session")
        if not isinstance(payload, Mapping):
            raise SessionError("injection must be a JSON object")
        kind = payload.get("kind")
        handlers = {
            "policy": self._inject_policy,
            "limit": self._inject_limit,
            "governor": self._inject_governor,
            "control": self._inject_control,
        }
        if kind not in handlers:
            raise SessionError(
                f"unknown injection kind {kind!r}; known: {sorted(handlers)}"
            )
        ack = handlers[kind](payload)
        self.injections += 1
        self._flush_tap()  # stream the inject.* event immediately
        return {"session": self.id, "kind": kind, "t": self.clock_t, **ack}

    def _manager(self):
        return self.system.controller

    def _charger(self):
        return self.system.plant.bus.charger

    def _find_policy(self, name: Any):
        for policy in self._manager().policies:
            if policy.name == name:
                return policy
        attached = [p.name for p in self._manager().policies]
        raise SessionError(f"no attached policy {name!r}; attached: {attached}")

    @staticmethod
    def _limit(payload: Mapping[str, Any]) -> float:
        """The injected ``limit``, held to the manifest's rule for numbers:
        a finite int or float."""
        try:
            return _number(payload, "limit", None)
        except ManifestError as exc:
            raise SessionError(str(exc)) from None

    def _record(self, kind: str, **data: Any) -> None:
        self.obs.decisions.record(self.clock_t, kind, "serve", **data)

    def _check_control_pairing(self, control_name: Any) -> None:
        from repro.policy.controls import DVFS_CONTROLS

        if control_name in DVFS_CONTROLS and not hasattr(self._manager(), "duty"):
            raise SessionError(
                f"control {control_name!r} requires the insure controller; "
                f"this session runs {self.manifest.controller!r}"
            )

    def _inject_policy(self, payload: Mapping[str, Any]) -> dict[str, Any]:
        from repro.policy.registry import build_policy
        from repro.serve.manifest import ManifestError, parse_policy

        try:
            spec = parse_policy(payload.get("policy"))
        except ManifestError as exc:
            raise SessionError(str(exc)) from None
        if any(p.name == spec.name for p in self._manager().policies):
            raise SessionError(f"policy {spec.name!r} already attached")
        self._check_control_pairing(spec.control)
        policy = build_policy(spec, self.manifest.seed)
        self._record("inject.policy", policy=spec.name, signal=spec.signal,
                     governor=spec.governor, control=spec.control,
                     interval_s=spec.interval_s)
        self._manager().attach_policy(policy, charger=self._charger())
        return {"policy": spec.name, "describe": policy.describe()}

    def _inject_limit(self, payload: Mapping[str, Any]) -> dict[str, Any]:
        policy = self._find_policy(payload.get("policy"))
        limit = self._limit(payload)
        self._record("inject.limit", policy=policy.name, limit=limit)
        changed = policy.control.apply(limit, self.clock_t)
        return {"policy": policy.name, "limit": limit, "changed": bool(changed)}

    def _inject_governor(self, payload: Mapping[str, Any]) -> dict[str, Any]:
        from repro.policy.registry import make_governor

        policy = self._find_policy(payload.get("policy"))
        spec = payload.get("governor")
        if not isinstance(spec, str) or not spec:
            raise SessionError(f"governor must be a rule string, got {spec!r}")
        try:
            governor = make_governor(spec)
        except ValueError as exc:
            raise SessionError(f"bad governor spec: {exc}") from None
        self._record("inject.governor", policy=policy.name, governor=spec,
                     previous=policy.governor.describe())
        policy.governor = governor
        policy._last_limit = None  # re-announce the limit at next evaluation
        return {"policy": policy.name, "governor": governor.describe()}

    def _inject_control(self, payload: Mapping[str, Any]) -> dict[str, Any]:
        from repro.policy.registry import make_control

        name = payload.get("control")
        limit = self._limit(payload)
        try:
            control = make_control(name)
        except ValueError as exc:
            raise SessionError(str(exc)) from None
        self._check_control_pairing(name)
        control.bind(self._manager(), self._charger())
        control.source = f"serve:{self.id}"
        self._record("inject.control", control=name, limit=limit)
        changed = control.apply(limit, self.clock_t)
        return {"control": name, "limit": limit, "changed": bool(changed)}

    # ------------------------------------------------------------------
    # Event plumbing
    # ------------------------------------------------------------------
    def _emit(self, event: str, payload: Mapping[str, Any]) -> None:
        self.events.append(event, json.dumps(payload, sort_keys=True))

    def _set_state(self, state: str) -> None:
        self.state = state
        self._emit("state", {
            "session": self.id, "state": state,
            "t": self.clock_t, "ticks_done": self.ticks_done,
        })

    def _flush_tap(self) -> None:
        for event in self.tap.poll(self.clock_t):
            event_type = event.pop("type")
            self._emit(event_type, event)

    def _complete(self) -> None:
        summary = self.system.finalize()
        summary_dict = {
            name: value for name, value in vars(summary).items()
        }
        verdict = None
        if self.injections == 0:
            cell_verdict = golden_verdict(self.manifest, summary_dict)
            if cell_verdict is not None:
                verdict = {
                    "cell": cell_verdict.cell,
                    "ok": cell_verdict.ok,
                    "mismatches": {
                        var: [got, want]
                        for var, (got, want) in sorted(
                            cell_verdict.mismatches.items())
                    },
                }
        self.summary_payload = {
            "session": self.id,
            "summary": summary_dict,
            "closure": asdict(self.obs.ledger.closure()),
            "decision_counts": self.obs.decisions.counts(),
            "alert_counts": self.obs.alerts.counts(),
            "injected": self.injections > 0,
            "golden": verdict,
        }
        self._emit("summary", self.summary_payload)
        self._set_state(SessionState.DONE)
        self._emit("end", {"session": self.id, "state": self.state})
        self._release()

    def _release(self) -> None:
        """Drop the plant of a finished session, keeping what it answers."""
        self._final_t = self.clock_t
        try:
            self._final_metrics = self.obs.registry.to_prometheus()
        except Exception as exc:  # a failed plant may not render
            self._final_metrics = f"# metrics unavailable: {type(exc).__name__}\n"
        self.system = self.obs = self.tap = None
