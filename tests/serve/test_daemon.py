"""Daemon end-to-end over real sockets: HTTP API, SSE streaming, resume.

The daemon runs on its own event loop in a background thread; the
blocking :class:`~repro.serve.client.ServeClient` talks to it exactly
the way the CI smoke driver does.
"""

from __future__ import annotations

import asyncio
import json
import socket
import threading
import time

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from repro.serve import daemon as daemon_module
from repro.serve.client import ServeClient, ServeError
from repro.serve.daemon import HttpError, ServeDaemon

#: Manifest small enough that a session finishes in well under a second.
QUICK = {
    "controller": "insure", "workload": "seismic", "weather": "cloudy",
    "seed": 7, "duration_s": 1800.0, "tick_slice": 60,
    "policies": [{"name": "cap", "signal": "carbon",
                  "governor": "const:0.9", "control": "duty_cap"}],
}


#: A simulated week (about 120k ticks): a session the lifecycle matrix
#: starts cannot finish while a case inspects it, and every case deletes it.
LONG = {**QUICK, "duration_s": 7 * 86400.0}
LIMIT = {"kind": "limit", "policy": "cap", "limit": 0.6}
#: Status of each POST verb by session state: 409 for a lifecycle verb
#: the state does not allow, 400 for an injection into a finished session.
VERB_STATUS = {
    "created": {"start": 200, "pause": 409, "resume": 409, "inject": 200},
    "running": {"start": 409, "pause": 200, "resume": 409, "inject": 200},
    "paused": {"start": 409, "pause": 409, "resume": 200, "inject": 200},
    "done": {"start": 409, "pause": 409, "resume": 409, "inject": 400},
    "failed": {"start": 409, "pause": 409, "resume": 409, "inject": 400},
}


def _status(call, *args) -> int:
    """The HTTP status of one client call."""
    try:
        call(*args)
    except ServeError as exc:
        return exc.status
    return 200


def _session_in(client: ServeClient, daemon: ServeDaemon, state: str) -> str:
    """Create a session and drive it into ``state``; returns its id."""
    if state == "done":
        sid = client.create_session(QUICK)["session"]
        assert client.wait_done(sid, timeout=60.0)["state"] == "done"
        return sid
    sid = client.create_session(
        LONG, autostart=state in ("running", "paused"))["session"]
    if state == "paused":
        client.pause(sid)
    elif state == "failed":
        # Break the session in the daemon's thread before it first steps.
        daemon.manager.get(sid).system.engine.advance = None
        client.start(sid)
        assert client.wait_done(sid, timeout=60.0)["state"] == "failed"
    return sid


def _raw_status(client: ServeClient, request: bytes) -> int:
    """Send raw request bytes and return the status code of the reply."""
    with socket.create_connection((client.host, client.port),
                                  timeout=10.0) as sock:
        sock.sendall(request)
        reply = b""
        while chunk := sock.recv(4096):
            reply += chunk
    return int(reply.split(b" ", 2)[1])


def _post_status(client: ServeClient, body: bytes) -> int:
    """POST ``body`` as a session manifest; the reply's status code."""
    return _raw_status(
        client,
        b"POST /v1/sessions HTTP/1.1\r\nContent-Length: "
        + str(len(body)).encode() + b"\r\n\r\n" + body,
    )


@pytest.fixture()
def daemon():
    instance = ServeDaemon(port=0, max_sessions=4)
    loop = asyncio.new_event_loop()
    ready = threading.Event()

    def run():
        asyncio.set_event_loop(loop)
        loop.run_until_complete(instance.start())
        ready.set()
        loop.run_forever()

    thread = threading.Thread(target=run, daemon=True)
    thread.start()
    assert ready.wait(10), "daemon failed to boot"
    yield instance
    asyncio.run_coroutine_threadsafe(instance.stop(), loop).result(10)
    loop.call_soon_threadsafe(loop.stop)
    thread.join(10)


@pytest.fixture()
def client(daemon):
    c = ServeClient(port=daemon.port, timeout=30.0)
    c.wait_ready(timeout=10.0)
    return c


@pytest.mark.serve
class TestDaemonEndToEnd:
    def test_healthz_and_cells(self, client):
        health = client.healthz()
        assert health["ok"] is True
        cells = client.cells()
        assert "insure:seismic:cloudy" in cells
        assert any(c.startswith("scenario-") for c in cells)

    def test_session_runs_to_completion_over_sse(self, client):
        info = client.create_session(QUICK)
        events = list(client.stream(info["session"]))
        kinds = [e.event for e in events]
        assert kinds[0] == "hello"
        assert kinds[-1] == "end"
        for required in ("state", "metrics", "ledger", "summary"):
            assert required in kinds
        ids = [e.id for e in events]
        assert ids == sorted(ids) and len(set(ids)) == len(ids)
        summary = client.summary(info["session"])
        assert summary["closure"]["ok"]
        streamed = next(e for e in events if e.event == "summary")
        assert streamed.payload == summary

    def test_last_event_id_resume(self, client):
        info = client.create_session(QUICK)
        sid = info["session"]
        events = list(client.stream(sid))
        cut = events[len(events) // 2].id
        resumed = list(client.stream(sid, last_event_id=cut))
        assert resumed[0].id == cut + 1
        assert [e.id for e in resumed] == [e.id for e in events
                                           if e.id > cut]

    def test_pause_inject_resume(self, client):
        # Every step happens before ``start``, so nothing races the run.
        info = client.create_session(QUICK, autostart=False)
        sid = info["session"]
        assert info["state"] == "created"
        for verb in (client.pause, client.resume):
            with pytest.raises(ServeError) as excinfo:
                verb(sid)
            assert excinfo.value.status == 409
        ack = client.inject(sid, {"kind": "limit", "policy": "cap",
                                  "limit": 0.6})
        assert ack["kind"] == "limit"
        client.start(sid)
        done = client.wait_done(sid, timeout=60.0)
        assert done["state"] == "done"
        assert done["injections"] == 1
        summary = client.summary(sid)
        assert summary["injected"] is True
        assert summary["decision_counts"]["inject.limit"] == 1

    def test_concurrent_sessions_interleave(self, client):
        sids = [client.create_session({**QUICK, "seed": s})["session"]
                for s in (1, 2, 3)]
        for sid in sids:
            done = client.wait_done(sid, timeout=60.0)
            assert done["state"] == "done"
        listing = {s["session"]: s for s in client.list_sessions()}
        assert set(sids) <= set(listing)

    def test_http_error_mapping(self, client):
        with pytest.raises(ServeError) as excinfo:
            client.get_session("s-9999")
        assert excinfo.value.status == 404
        with pytest.raises(ServeError) as excinfo:
            client.create_session({"cell": "bogus:x:y"})
        assert excinfo.value.status == 400
        with pytest.raises(ServeError) as excinfo:
            client._request("GET", "/no/such/route")
        assert excinfo.value.status == 404
        with pytest.raises(ServeError) as excinfo:
            client._request("PUT", "/v1/sessions")
        assert excinfo.value.status == 405
        sessions = client.healthz()["sessions"]
        for length in (b"abc", b"-1"):
            status = _raw_status(
                client,
                b"POST /v1/sessions HTTP/1.1\r\nContent-Length: " + length
                + b"\r\n\r\n",
            )
            assert status == 400, length
        assert client.healthz()["sessions"] == sessions

    def test_infinite_duration_is_a_bad_request(self, client):
        # json.loads accepts the Infinity token; the manifest must not.
        body = b'{"cell": "insure:video:sunny", "duration_s": Infinity}'
        sessions = client.healthz()["sessions"]
        assert _post_status(client, body) == 400
        assert client.healthz()["sessions"] == sessions

    def test_overflowing_mean_w_is_a_bad_request(self, client):
        # Finite, but the day trace scaled to it is not.
        body = b'{"mean_w": 1e308}'
        sessions = client.healthz()["sessions"]
        assert _post_status(client, body) == 400
        assert client.healthz()["sessions"] == sessions

    @pytest.mark.parametrize("request_bytes, status", [
        # A head that never ends runs into the per-request deadline.
        (b"POST /v1/sessions HTTP/1.1\r\nContent-Length: 2\r\n", 408),
        (b"POST /v1/sessions HTTP/1.1\r\n" + b"X: 1\r\n" * 5000
         + b"\r\n", 431),
        # A line past the stream's 64 KiB buffer limit.
        (b"POST /v1/sessions HTTP/1.1\r\nX: " + b"a" * 70_000
         + b"\r\n\r\n", 431),
    ], ids=["head-never-ends", "5000-headers", "70kb-line"])
    def test_request_head_limits(self, client, monkeypatch, request_bytes,
                                 status):
        monkeypatch.setattr(daemon_module, "REQUEST_TIMEOUT_S", 0.5)
        sessions = client.healthz()["sessions"]
        assert _raw_status(client, request_bytes) == status
        assert client.healthz()["sessions"] == sessions

    def test_summary_conflict_until_done(self, client):
        info = client.create_session(QUICK, autostart=False)
        with pytest.raises(ServeError) as excinfo:
            client.summary(info["session"])
        assert excinfo.value.status == 409

    def test_capacity_maps_to_503(self, client, daemon):
        sids = []
        for _ in range(daemon.manager.max_sessions):
            sids.append(client.create_session(
                QUICK, autostart=False)["session"])
        with pytest.raises(ServeError) as excinfo:
            client.create_session(QUICK)
        assert excinfo.value.status == 503
        for sid in sids:
            client.delete_session(sid)

    def test_metrics_endpoints(self, client):
        info = client.create_session(QUICK)
        client.wait_done(info["session"], timeout=60.0)
        daemon_metrics = client.metrics()
        assert "serve_sessions_created_total" in daemon_metrics
        session_metrics = client.session_metrics(info["session"])
        assert "engine_ticks" in session_metrics

    @pytest.mark.parametrize("state", list(VERB_STATUS))
    def test_lifecycle_matrix(self, client, daemon, state):
        sessions = client.healthz()["sessions"]
        sid = _session_in(client, daemon, state)
        assert client.healthz()["sessions"] == sessions + 1
        verbs = {"start": client.start, "pause": client.pause,
                 "resume": client.resume,
                 "inject": lambda s: client.inject(s, LIMIT)}
        expected = VERB_STATUS[state]
        # The verbs that leave the state as it is, then the one that moves it.
        moving = [verb for verb in ("start", "pause", "resume")
                  if expected[verb] == 200]
        for verb in [verb for verb in verbs if verb not in moving]:
            assert _status(verbs[verb], sid) == expected[verb], verb
        assert client.get_session(sid)["state"] == state
        assert _status(client.summary, sid) == (200 if state == "done" else 409)
        assert _status(client.session_metrics, sid) == 200
        for verb in moving:
            assert _status(verbs[verb], sid) == 200, verb
        assert client.delete_session(sid)["reaped"] is True
        assert _status(client.get_session, sid) == 404
        assert client.healthz()["sessions"] == sessions

    def test_non_finite_injection_is_a_bad_request(self, client):
        # json.loads accepts NaN and Infinity; an injected limit must not.
        sid = client.create_session(QUICK, autostart=False)["session"]
        for body in (b'{"kind": "limit", "policy": "cap", "limit": NaN}',
                     b'{"kind": "control", "control": "charge_current_cap", '
                     b'"limit": Infinity}'):
            request = (f"POST /v1/sessions/{sid}/inject HTTP/1.1\r\n"
                       f"Content-Length: {len(body)}\r\n\r\n").encode()
            assert _raw_status(client, request + body) == 400, body
        assert client.get_session(sid)["injections"] == 0
        client.delete_session(sid)

    def test_reap(self, client):
        info = client.create_session(QUICK, autostart=False)
        sid = info["session"]
        assert client.delete_session(sid)["reaped"] is True
        with pytest.raises(ServeError) as excinfo:
            client.get_session(sid)
        assert excinfo.value.status == 404


# ----------------------------------------------------------------------
# Fuzz: request bytes the daemon does not control
# ----------------------------------------------------------------------
@st.composite
def near_valid_requests(draw):
    """A request head and body with each part valid or mangled: bad
    methods and targets, CRLF or bare LF, repeated, missing or bogus
    Content-Length, more than MAX_HEADERS lines, and truncation anywhere."""
    eol = draw(st.sampled_from([b"\r\n", b"\n"]))
    line = b" ".join([
        draw(st.sampled_from([b"GET", b"POST", b"DELETE", b"get"])
             | st.binary(max_size=6)),
        draw(st.sampled_from([b"/healthz", b"/v1/sessions", b"/v1/cells"])
             | st.binary(max_size=12)),
        draw(st.sampled_from([b"HTTP/1.1", b"HTTP/1.0"])
             | st.binary(max_size=6)),
    ])
    body = draw(st.binary(max_size=48))
    lengths = st.sampled_from([str(len(body)).encode(),
                               str(len(body) + 7).encode(), b"-1", b"abc",
                               b"", b"+3", b"1_0", "\u0663".encode(),
                               str(daemon_module.MAX_BODY_BYTES + 1).encode()])
    headers = draw(st.lists(
        st.tuples(st.sampled_from([b"Content-Length", b"content-length",
                                   b"Host", b"X"]) | st.binary(max_size=8),
                  lengths | st.binary(max_size=12)),
        max_size=5))
    headers += [(b"X", b"1")] * draw(st.sampled_from(
        [0, daemon_module.MAX_HEADERS + 1]))
    raw = eol.join([line, *(name + b": " + value for name, value in headers)])
    raw += eol + eol + body
    return raw[:draw(st.integers(min_value=0, max_value=len(raw)))]


@settings(max_examples=200, deadline=None)
@given(data=st.binary(max_size=256) | near_valid_requests(),
       limit=st.sampled_from([64, 2 ** 16]))
def test_read_request_parses_or_answers_4xx(data, limit):
    async def read():
        # limit=64 drives lines past the stream limit without 64 KiB inputs.
        reader = asyncio.StreamReader(limit=limit)
        reader.feed_data(data)
        reader.feed_eof()
        return await ServeDaemon()._read_request(reader)

    try:
        _method, _target, headers, body = asyncio.run(read())
    except HttpError as exc:
        assert 400 <= exc.status < 500
    except asyncio.IncompleteReadError:
        pass  # A truncated body: _handle_connection treats it as a hang-up.
    else:
        assert len(body) == int(headers.get("content-length") or "0")


def _raw_reply(client: ServeClient, data: bytes) -> bytes:
    """Send ``data``, half-close, and return every byte of the reply."""
    with socket.create_connection((client.host, client.port),
                                  timeout=10.0) as sock:
        sock.sendall(data)
        sock.shutdown(socket.SHUT_WR)
        reply = b""
        while chunk := sock.recv(4096):
            reply += chunk
    return reply


def _expected_read(data: bytes):
    """How the daemon's request reader takes ``data`` followed by EOF:
    the parsed request, an HttpError, or None for a truncated body."""
    async def read():
        reader = asyncio.StreamReader()
        reader.feed_data(data)
        reader.feed_eof()
        return await ServeDaemon()._read_request(reader)

    try:
        return asyncio.run(read())
    except HttpError as exc:
        return exc
    except asyncio.IncompleteReadError:
        return None


def _stray_tasks(daemon: ServeDaemon) -> list:
    """Tasks pending on the daemon's loop besides its own: the session
    pump and the wake-up wait the pump parks on (``wait_for`` runs it as
    a task)."""
    async def collect():
        mine = asyncio.current_task()
        return [t for t in asyncio.all_tasks()
                if t is not mine and t is not daemon._pump
                and t.get_coro().__qualname__ != "Event.wait"]

    return asyncio.run_coroutine_threadsafe(
        collect(), daemon._pump.get_loop()).result(5)


#: Complete requests the API serves: the read-only routes and a session
#: create from a valid manifest (an empty body is the default manifest).
_SERVED = {("GET", "/healthz"), ("GET", "/v1/cells"), ("GET", "/v1/sessions"),
           ("POST", "/v1/sessions")}


@pytest.mark.serve
@settings(max_examples=150, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.binary(max_size=256) | near_valid_requests())
# A body cut short of its Content-Length, and a served request.
@example(data=b"POST /v1/sessions HTTP/1.1\r\nContent-Length: 9\r\n\r\n{")
@example(data=b"GET /healthz HTTP/1.1\r\n\r\n")
def test_live_daemon_answers_fuzzed_requests(client, daemon, data):
    """Fuzzed bytes over a real socket: a truncated request is hung up on,
    a request the reader refuses gets that 4xx, any other request its
    route's answer (a 4xx unless it is a served route), and no session
    or connection task outlives the request."""
    sessions = client.healthz()["sessions"]
    reply = _raw_reply(client, data)
    expected = _expected_read(data)
    if expected is None:
        assert reply == b""
    elif isinstance(expected, HttpError):
        assert int(reply.split(b" ", 2)[1]) == expected.status
    else:
        method, target, _headers, _body = expected
        status = int(reply.split(b" ", 2)[1])
        route = (method, target.split("?")[0].rstrip("/"))
        assert 400 <= status < 500 or (route in _SERVED and status < 300), (
            status, route)
        if status == 201:  # a valid create: take the session back out
            client.delete_session(json.loads(reply.split(b"\r\n\r\n", 1)[1])["session"])
    assert client.healthz()["sessions"] == sessions
    deadline = time.monotonic() + 5.0
    while stray := _stray_tasks(daemon):
        assert time.monotonic() < deadline, stray
        time.sleep(0.01)
