"""Daemon end-to-end over real sockets: HTTP API, SSE streaming, resume.

The daemon runs on its own event loop in a background thread; the
blocking :class:`~repro.serve.client.ServeClient` talks to it exactly
the way the CI smoke driver does.
"""

from __future__ import annotations

import asyncio
import socket
import threading

import pytest

from repro.serve import daemon as daemon_module
from repro.serve.client import ServeClient, ServeError
from repro.serve.daemon import ServeDaemon

#: Manifest small enough that a session finishes in well under a second.
QUICK = {
    "controller": "insure", "workload": "seismic", "weather": "cloudy",
    "seed": 7, "duration_s": 1800.0, "tick_slice": 60,
    "policies": [{"name": "cap", "signal": "carbon",
                  "governor": "const:0.9", "control": "duty_cap"}],
}


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

    def test_reap(self, client):
        info = client.create_session(QUICK, autostart=False)
        sid = info["session"]
        assert client.delete_session(sid)["reaped"] is True
        with pytest.raises(ServeError) as excinfo:
            client.get_session(sid)
        assert excinfo.value.status == 404
