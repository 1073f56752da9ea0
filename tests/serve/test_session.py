"""Session lifecycle, injection semantics, sliced-run determinism."""

from __future__ import annotations

import gc
import json
import weakref

import pytest
from hypothesis import settings
from hypothesis.stateful import RuleBasedStateMachine, invariant, rule

from repro.serve.manager import CapacityError, SessionManager
from repro.serve.manifest import parse_manifest
from repro.serve.session import Session, SessionError, SessionState

#: A short explicit manifest the lifecycle tests run (30 sim-minutes).
SHORT = {
    "controller": "insure", "workload": "seismic", "weather": "cloudy",
    "seed": 3, "duration_s": 1800.0, "tick_slice": 60,
    "policies": [{"name": "cap", "signal": "carbon",
                  "governor": "const:0.9", "control": "duty_cap"}],
}


def drive(manager: SessionManager, session: Session, max_turns: int = 10_000):
    turns = 0
    while session.state == SessionState.RUNNING:
        manager.step_once()
        turns += 1
        assert turns < max_turns, "session did not finish"


def events_of(session: Session, kind: str):
    return [e for e in session.events.events_after(0) if e.event == kind]


class TestLifecycle:
    def test_create_to_completion(self):
        manager = SessionManager(max_sessions=2)
        session = manager.create(parse_manifest(SHORT), autostart=True)
        assert session.state == SessionState.RUNNING
        drive(manager, session)
        assert session.state == SessionState.DONE
        assert session.ticks_done == session.total_ticks == 360
        summary = session.summary_payload
        assert summary["closure"]["ok"]
        assert not summary["injected"]
        assert summary["golden"] is None  # explicit manifests have no pin
        # Stream shape: hello first, end last, ids strictly increasing.
        all_events = session.events.events_after(0)
        assert all_events[0].event == "hello"
        assert all_events[-1].event == "end"
        ids = [e.id for e in all_events]
        assert ids == sorted(ids)

    def test_hello_event_carries_manifest(self):
        session = Session("t-1", parse_manifest(SHORT))
        hello = json.loads(events_of(session, "hello")[0].data)
        assert hello["session"] == "t-1"
        assert hello["total_ticks"] == 360
        assert hello["manifest"]["controller"] == "insure"

    def test_pause_resume(self):
        manager = SessionManager()
        session = manager.create(parse_manifest(SHORT), autostart=True)
        manager.step_once()
        session.pause()
        ticks_at_pause = session.ticks_done
        assert manager.step_once() == 0  # paused sessions do not step
        assert session.ticks_done == ticks_at_pause
        session.resume()
        drive(manager, session)
        assert session.state == SessionState.DONE

    def test_state_transition_guards(self):
        session = Session("t-2", parse_manifest(SHORT))
        with pytest.raises(SessionError):
            session.pause()  # created, not running
        with pytest.raises(SessionError):
            session.resume()
        session.start()
        with pytest.raises(SessionError):
            session.start()

    def test_created_sessions_do_not_step(self):
        manager = SessionManager()
        session = manager.create(parse_manifest(SHORT), autostart=False)
        assert manager.step_once() == 0
        assert session.state == SessionState.CREATED

    def test_capacity_counts_live_only(self):
        manager = SessionManager(max_sessions=1)
        first = manager.create(parse_manifest(SHORT), autostart=True)
        with pytest.raises(CapacityError):
            manager.create(parse_manifest(SHORT))
        drive(manager, first)  # DONE sessions free their slot
        manager.create(parse_manifest(SHORT))

    def test_reap(self):
        manager = SessionManager()
        session = manager.create(parse_manifest(SHORT))
        assert manager.remove(session.id) is session
        with pytest.raises(KeyError):
            manager.get(session.id)

    def test_finished_sessions_release_their_plant_and_are_reaped(self):
        manager = SessionManager(max_sessions=2)
        first = manager.create(parse_manifest(SHORT), autostart=True)
        # What a live SSE client would have received, byte for byte.
        streamed = [e.encode() for e in first.events.events_after(0)]
        first.events.subscribe(lambda event: streamed.append(event.encode()))
        drive(manager, first)
        info, summary = first.info(), first.summary_payload
        metrics = first.metrics_text()
        assert "engine_ticks" in metrics and info["sim_t"] == 1800.0
        sessions = [first]
        for seed in (4, 5, 6, 7):
            session = manager.create(parse_manifest({**SHORT, "seed": seed}),
                                     autostart=True)
            drive(manager, session)
            sessions.append(session)
            finished = [s for s in manager.sessions.values()
                        if s.state not in SessionState.LIVE]
            assert len(finished) <= manager.max_sessions
        assert [s.id for s in manager.sessions.values()] == [
            s.id for s in sessions[-2:]]
        for session in sessions:
            assert (session.system, session.obs, session.tap) == (None, None, None)
        # A released session answers exactly as it did when it finished.
        assert (first.info(), first.summary_payload) == (info, summary)
        assert first.metrics_text() == metrics
        assert [e.encode() for e in first.events.events_after(0)] == streamed

    def test_reaped_sessions_plant_is_freed_without_gc(self):
        manager = SessionManager(max_sessions=2)
        first = manager.create(parse_manifest(SHORT), autostart=True)
        assert first.system.controller.policies  # SHORT's overlay is attached
        parts = [weakref.ref(part) for part in
                 (first.system, first.system.plant, first.system.controller)]
        gc.disable()
        try:
            drive(manager, first)
            for seed in (4, 5):
                drive(manager, manager.create(
                    parse_manifest({**SHORT, "seed": seed}), autostart=True))
            assert first.id not in manager.sessions  # reaped
            assert [part() for part in parts] == [None, None, None]
        finally:
            gc.enable()

    def test_failed_sessions_release_their_plant(self):
        manager = SessionManager()
        session = manager.create(parse_manifest(SHORT), autostart=True)
        manager.step_once()
        t = session.clock_t
        session.system.engine.advance = None
        manager.step_once()
        assert session.state == SessionState.FAILED
        assert (session.system, session.obs, session.tap) == (None, None, None)
        assert session.info()["sim_t"] == t > 0.0
        assert "engine_ticks" in session.metrics_text()

    def test_manager_metrics(self):
        manager = SessionManager()
        session = manager.create(parse_manifest(SHORT), autostart=True)
        drive(manager, session)
        samples = {s["name"]: s["value"]
                   for s in manager.registry.collect()}
        assert samples["serve.sessions_created_total"] == 1.0
        assert samples["serve.sessions_completed_total"] == 1.0
        assert samples["serve.sessions_live"] == 0.0


class TestInjection:
    def make_running(self):
        manager = SessionManager()
        session = manager.create(parse_manifest(SHORT), autostart=True)
        manager.step_once()
        return manager, session

    def test_limit_injection_records_decision(self):
        manager, session = self.make_running()
        ack = session.inject({"kind": "limit", "policy": "cap",
                              "limit": 0.6})
        assert ack["changed"] is True
        assert session.injections == 1
        decisions = [json.loads(e.data) for e in events_of(session, "decision")]
        kinds = [d["kind"] for d in decisions]
        assert "inject.limit" in kinds
        drive(manager, session)
        assert session.summary_payload["injected"] is True
        assert session.summary_payload["golden"] is None
        assert session.summary_payload["decision_counts"]["inject.limit"] == 1

    def test_governor_swap_takes_effect(self):
        manager, session = self.make_running()
        ack = session.inject({"kind": "governor", "policy": "cap",
                              "governor": "const:0.5"})
        assert ack["governor"] == "const:0.5"
        policy = session.system.controller.policies[0]
        assert policy.governor.describe() == "const:0.5"
        drive(manager, session)
        # The reset _last_limit forces the swapped governor to re-announce
        # its limit at the next evaluation, so the new rule provably ran.
        assert policy._last_limit == 0.5
        decisions = [json.loads(e.data) for e in events_of(session, "decision")]
        limits = [d["data"]["limit"] for d in decisions
                  if d["kind"] == "policy.limit" and d["source"] == "cap"]
        assert 0.5 in limits

    def test_policy_attach(self):
        manager, session = self.make_running()
        session.inject({"kind": "policy", "policy": {
            "name": "soc-guard", "signal": "soc",
            "governor": "linear:0.2:0.5", "control": "vm_retarget"}})
        names = [p.name for p in session.system.controller.policies]
        assert names == ["cap", "soc-guard"]
        with pytest.raises(SessionError, match="already attached"):
            session.inject({"kind": "policy", "policy": {
                "name": "soc-guard", "signal": "soc",
                "governor": "const:1", "control": "vm_retarget"}})
        drive(manager, session)

    def test_raw_control_injection(self):
        manager, session = self.make_running()
        # charge_current_cap starts at 1.0, so capping to 0.5 always
        # actuates (unlike vm_retarget, whose target may already be low).
        ack = session.inject({"kind": "control",
                              "control": "charge_current_cap",
                              "limit": 0.5})
        assert ack["changed"] is True
        assert session.system.plant.bus.charger.cap_fraction == 0.5
        decisions = [json.loads(e.data) for e in events_of(session, "decision")]
        sources = {d["source"] for d in decisions
                   if d["kind"] == "charge.current_cap"}
        assert "serve:" + session.id in sources
        drive(manager, session)

    @pytest.mark.parametrize("payload, match", [
        ({"kind": "bogus"}, "unknown injection kind"),
        ({}, "unknown injection kind"),
        ({"kind": "limit", "policy": "nope", "limit": 0.5}, "no attached"),
        ({"kind": "limit", "policy": "cap", "limit": "x"}, "number"),
        ({"kind": "limit", "policy": "cap", "limit": True}, "number"),
        ({"kind": "governor", "policy": "cap", "governor": "wat:1"},
         "governor"),
        ({"kind": "control", "control": "nope", "limit": 0.5},
         "unknown control"),
        ({"kind": "limit", "policy": "cap", "limit": float("nan")}, "finite"),
        ({"kind": "limit", "policy": "cap", "limit": float("inf")}, "finite"),
        ({"kind": "control", "control": "charge_current_cap",
          "limit": float("nan")}, "finite"),
        ({"kind": "control", "control": "duty_cap",
          "limit": float("-inf")}, "finite"),
        ({"kind": "limit", "policy": "cap", "limit": 10 ** 400}, "finite"),
    ])
    def test_invalid_injections(self, payload, match):
        _, session = self.make_running()
        with pytest.raises(SessionError, match=match):
            session.inject(payload)
        assert session.injections == 0

    def test_injection_refused_after_done(self):
        manager, session = self.make_running()
        drive(manager, session)
        with pytest.raises(SessionError, match="done"):
            session.inject({"kind": "limit", "policy": "cap", "limit": 0.5})

    def test_dvfs_control_refused_on_baseline(self):
        manifest = parse_manifest({
            "controller": "baseline", "workload": "seismic",
            "weather": "sunny", "duration_s": 600.0, "tick_slice": 30})
        session = Session("t-3", manifest)
        session.start()
        with pytest.raises(SessionError, match="insure"):
            session.inject({"kind": "control", "control": "duty_cap",
                            "limit": 0.5})


class TestFailureIsolation:
    def test_step_failure_fails_session_not_manager(self):
        manager = SessionManager()
        session = manager.create(parse_manifest(SHORT), autostart=True)
        healthy = manager.create(parse_manifest({**SHORT, "seed": 4}),
                                 autostart=True)
        session.system.engine.advance = None  # induce a crash mid-step
        manager.step_once()
        assert session.state == SessionState.FAILED
        assert session.error is not None
        kinds = [e.event for e in session.events.events_after(0)]
        assert "error" in kinds and kinds[-1] == "end"
        drive(manager, healthy)
        assert healthy.state == SessionState.DONE


class SessionLifecycle(RuleBasedStateMachine):
    """Every (state, verb) pair of one session, checked as a state machine.

    ``start`` is allowed only from created, ``pause`` only from running,
    ``resume`` only from paused, and an injection in any live state.
    Every other pair raises :class:`SessionError` (the daemon answers it
    with 409 for the lifecycle verbs and 400 for injections) and leaves
    the state and tick count as they were.
    """

    MANIFEST = parse_manifest({"cell": "insure:video:sunny",
                               "duration_s": 600, "tick_slice": 40})
    INJECTION = {"kind": "control", "control": "duty_cap", "limit": 0.8}
    #: Verb -> (states it is allowed from, state it leads to or None).
    ALLOWED = {
        "start": ((SessionState.CREATED,), SessionState.RUNNING),
        "pause": ((SessionState.RUNNING,), SessionState.PAUSED),
        "resume": ((SessionState.PAUSED,), SessionState.RUNNING),
        "inject": (SessionState.LIVE, None),
    }

    def __init__(self) -> None:
        super().__init__()
        self.session = Session("machine", self.MANIFEST)

    def _apply(self, verb: str, action) -> None:
        session = self.session
        before = (session.state, session.ticks_done)
        allowed_from, after = self.ALLOWED[verb]
        if before[0] in allowed_from:
            action()
            assert session.state == (after or before[0])
        else:
            with pytest.raises(SessionError):
                action()
            assert (session.state, session.ticks_done) == before

    @rule()
    def start(self) -> None:
        self._apply("start", self.session.start)

    @rule()
    def pause(self) -> None:
        self._apply("pause", self.session.pause)

    @rule()
    def resume(self) -> None:
        self._apply("resume", self.session.resume)

    @rule()
    def inject(self) -> None:
        injections = self.session.injections
        self._apply("inject", lambda: self.session.inject(self.INJECTION))
        expected = injections + (self.session.state in SessionState.LIVE)
        assert self.session.injections == expected

    @rule()
    def step_slice(self) -> None:
        session = self.session
        state, done = session.state, session.ticks_done
        executed = session.step_slice()
        if state == SessionState.RUNNING:
            assert executed == min(self.MANIFEST.tick_slice,
                                   session.total_ticks - done)
        else:
            assert executed == 0 and session.state == state
        assert session.ticks_done == done + executed

    @invariant()
    def ticks_within_budget(self) -> None:
        assert 0 <= self.session.ticks_done <= self.session.total_ticks

    @invariant()
    def summary_exactly_when_done(self) -> None:
        done = self.session.state == SessionState.DONE
        assert (self.session.summary_payload is not None) == done


TestSessionLifecycle = SessionLifecycle.TestCase
TestSessionLifecycle.settings = settings(max_examples=50,
                                         stateful_step_count=20,
                                         deadline=None)


@pytest.mark.golden
class TestServedDeterminism:
    """A served, injection-free golden cell matches its pinned record."""

    def test_golden_cell_reproduces(self):
        manager = SessionManager()
        session = manager.create(
            parse_manifest({"cell": "insure:seismic:cloudy"}),
            autostart=True)
        drive(manager, session, max_turns=100_000)
        verdict = session.summary_payload["golden"]
        assert verdict is not None
        assert verdict["ok"], verdict["mismatches"]
        assert session.summary_payload["closure"]["ok"]

    def test_scenario_cell_reproduces(self):
        manager = SessionManager()
        session = manager.create(
            parse_manifest({"cell": "scenario-grid-hybrid"}),
            autostart=True)
        drive(manager, session, max_turns=100_000)
        verdict = session.summary_payload["golden"]
        assert verdict is not None
        assert verdict["ok"], verdict["mismatches"]
