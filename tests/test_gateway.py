"""The HTTP gateway: wire behaviour, failure mapping, client policy.

Tier-1 scale: toy registered runners (no simulation) behind a real
asyncio server on an ephemeral loopback port, driven by the real
client — every status-code mapping, idempotency, streaming, and
disconnect-cancellation edge runs in well under a second each.  The
process-level chaos (kill -9, restarts, overload bursts) lives in
``tools/gateway_smoke.py``.
"""

import json
import random
import socket
import threading
import time

import pytest

from repro.gateway.server import Gateway, GatewayLimits
from repro.gateway.client import (
    GatewayError,
    GatewayUnavailable,
    RetryingClient,
)
from repro.service import ExperimentService, register_runner


class GatewayThread:
    """A real gateway on a background event loop, for sync tests."""

    def __init__(self, service, limits=None, drain_timeout_s=5.0):
        import asyncio

        self._asyncio = asyncio
        self.service = service
        self.gateway = None
        self.loop = None
        self._ready = threading.Event()
        self._limits = limits
        self._drain_timeout_s = drain_timeout_s
        self._thread = threading.Thread(target=self._run, daemon=True)
        self._thread.start()
        assert self._ready.wait(5.0), "gateway failed to start"

    def _run(self):
        self._asyncio.run(self._amain())

    async def _amain(self):
        self.loop = self._asyncio.get_running_loop()
        self.gateway = Gateway(self.service, "127.0.0.1", 0,
                               limits=self._limits,
                               drain_timeout_s=self._drain_timeout_s)
        await self.gateway.start()
        self.port = self.gateway.port
        self._ready.set()
        await self.gateway.run_until_drained()

    def begin_drain(self):
        self.loop.call_soon_threadsafe(self.gateway.begin_drain)

    def shutdown(self):
        # A test may have drained the gateway already; its loop is then
        # closed and must not be handed callbacks.
        if self._thread.is_alive():
            self.begin_drain()
        self._thread.join(timeout=10.0)
        assert not self._thread.is_alive(), "gateway failed to drain"

    def client(self, **kwargs):
        kwargs.setdefault("overall_timeout_s", 10.0)
        kwargs.setdefault("backoff_cap_s", 0.2)
        return RetryingClient("127.0.0.1", self.port, **kwargs)


def _register_toys():
    gate = threading.Event()

    def quick(x=1):
        return {"doubled": x * 2}

    def failing():
        raise ValueError("injected failure")

    def gated():
        gate.wait(10.0)
        return "released"

    def stepper(context=None, steps=3, step_s=0.0):
        for i in range(int(steps)):
            if context is not None and context.should_stop():
                return {"stopped_at": i}
            if step_s:
                time.sleep(step_s)
            if context is not None:
                context.progress(step=i + 1, total=int(steps))
        return {"stopped_at": None, "steps": int(steps)}

    stepper.accepts_context = True

    register_runner("_gw_quick", quick)
    register_runner("_gw_failing", failing)
    register_runner("_gw_gated", gated)
    register_runner("_gw_stepper", stepper)
    return gate


@pytest.fixture
def served():
    gate = _register_toys()
    service = ExperimentService(store=False, workers=2, queue_limit=4)
    gw = GatewayThread(service)
    try:
        yield gw, gate
    finally:
        gate.set()
        gw.shutdown()


def _raw(port, payload, timeout=5.0):
    with socket.create_connection(("127.0.0.1", port),
                                  timeout=timeout) as sock:
        sock.sendall(payload)
        sock.settimeout(timeout)
        chunks = b""
        try:
            while True:
                chunk = sock.recv(4096)
                if not chunk:
                    break
                chunks += chunk
        except socket.timeout:
            pass
        return chunks


class TestEndpoints:
    def test_submit_status_result_roundtrip(self, served):
        gw, _ = served
        client = gw.client()
        snap = client.submit("_gw_quick", {"x": 21})
        assert snap["attached"] is False
        final = client.wait(snap["id"], timeout_s=10.0)
        assert final["state"] == "done"
        assert final["result"] == {"doubled": 42}

    def test_health_ready_stats(self, served):
        gw, _ = served
        client = gw.client()
        assert client.health() == {"ok": True}
        assert client.ready() is True
        stats = client.server_stats()
        assert "gateway" in stats and "done" in stats
        assert stats["gateway"]["draining"] is False

    def test_unknown_runner_is_400_with_detail(self, served):
        gw, _ = served
        status, _, payload = gw.client().request(
            "POST", "/jobs", body={"runner": "_gw_nope"})
        assert status == 400
        assert payload["error"] == "unknown runner"
        assert "_gw_nope" in payload["detail"]

    def test_missing_job_is_404(self, served):
        gw, _ = served
        with pytest.raises(GatewayError) as err:
            gw.client().job(424242)
        assert err.value.status == 404

    def test_failed_job_reports_error(self, served):
        gw, _ = served
        client = gw.client()
        final = client.wait(client.submit("_gw_failing")["id"])
        assert final["state"] == "failed"
        assert "injected failure" in final["error"]

    def test_cancel_endpoint(self, served):
        gw, gate = served
        client = gw.client()
        job_id = client.submit("_gw_gated")["id"]
        out = client.cancel(job_id)
        assert out["cancelled"] is True
        gate.set()
        assert client.wait(job_id)["state"] == "cancelled"


class TestIdempotency:
    def test_retry_attaches_to_live_job(self, served):
        gw, gate = served
        client = gw.client()
        first = client.submit("_gw_gated", {})
        second = client.submit("_gw_gated", {})
        assert second["id"] == first["id"]
        assert second["attached"] is True
        gate.set()
        client.wait(first["id"])

    def test_done_job_attaches_but_failed_does_not(self, served):
        gw, _ = served
        client = gw.client()
        done_id = client.submit("_gw_quick", {"x": 5})["id"]
        client.wait(done_id)
        assert client.submit("_gw_quick", {"x": 5})["id"] == done_id

        failed_id = client.submit("_gw_failing")["id"]
        client.wait(failed_id)
        retry = client.submit("_gw_failing")
        assert retry["id"] != failed_id
        assert retry["attached"] is False
        client.wait(retry["id"])

    def test_param_order_does_not_fork_jobs(self, served):
        gw, gate = served
        client = gw.client()
        a = client.submit("_gw_stepper", {"steps": 2, "step_s": 0.2})
        b = client.submit("_gw_stepper", {"step_s": 0.2, "steps": 2})
        assert a["id"] == b["id"]
        gate.set()
        client.wait(a["id"])


class TestFailureMapping:
    def test_garbage_start_line_is_structured_400(self, served):
        gw, _ = served
        data = _raw(gw.port, b"GARBAGE\r\n\r\n")
        head, _, body = data.partition(b"\r\n\r\n")
        assert head.startswith(b"HTTP/1.1 400")
        assert json.loads(body)["error"] == "malformed request line"

    def test_oversized_body_is_413(self, served):
        gw, _ = served
        data = _raw(gw.port,
                    b"POST /jobs HTTP/1.1\r\nContent-Length: 99999999"
                    b"\r\n\r\n")
        assert data.startswith(b"HTTP/1.1 413")

    def test_bad_json_body_is_400(self, served):
        gw, _ = served
        body = b"this is not json"
        data = _raw(gw.port,
                    b"POST /jobs HTTP/1.1\r\nConnection: close\r\n"
                    b"Content-Length: "
                    + str(len(body)).encode() + b"\r\n\r\n" + body)
        head, _, payload = data.partition(b"\r\n\r\n")
        assert head.startswith(b"HTTP/1.1 400")
        assert json.loads(payload)["error"] == "malformed job request"

    def test_saturated_service_is_429_with_retry_after(self):
        gate = _register_toys()
        service = ExperimentService(store=False, workers=1, queue_limit=1)
        gw = GatewayThread(service)
        try:
            client = gw.client()
            client.submit("_gw_gated")  # occupies the single worker
            codes = set()
            for i in range(4):
                status, headers, _ = client.request(
                    "POST", "/jobs",
                    body={"runner": "_gw_quick", "params": {"x": i}},
                    retry_busy=False)
                codes.add(status)
                if status == 429:
                    assert any(k.lower() == "retry-after"
                               for k in headers), headers
            assert 429 in codes
        finally:
            gate.set()
            gw.shutdown()

    def test_draining_gateway_rejects_submissions_503(self, served):
        gw, gate = served
        client = gw.client()
        job_id = client.submit("_gw_gated")["id"]
        gw.begin_drain()
        deadline = time.monotonic() + 5.0
        while client.ready() and time.monotonic() < deadline:
            time.sleep(0.01)
        assert client.ready() is False
        status, headers, _ = client.request(
            "POST", "/jobs", body={"runner": "_gw_quick"},
            retry_busy=False)
        assert status == 503
        assert any(k.lower() == "retry-after" for k in headers)
        gate.set()
        # The drained gateway stops serving once the released job
        # finishes, so the result is read from the service itself.
        gw._thread.join(timeout=10.0)
        assert not gw._thread.is_alive(), "gateway failed to drain"
        assert gw.service.wait(job_id, timeout=10.0).state == "done"


class TestEventStream:
    def test_progress_events_then_done(self, served):
        gw, _ = served
        client = gw.client()
        job_id = client.submit("_gw_stepper", {"steps": 3})["id"]
        seen = list(client.stream_events(job_id))
        names = [name for name, _ in seen]
        assert names[0] == "snapshot" and names[-1] == "done"
        steps = [p["step"] for name, p in seen if name == "progress"]
        assert steps == [1, 2, 3]
        final = seen[-1][1]
        assert final["state"] == "done"
        assert final["result"]["stopped_at"] is None

    def test_stream_of_finished_job_closes_immediately(self, served):
        gw, _ = served
        client = gw.client()
        job_id = client.submit("_gw_quick", {"x": 2})["id"]
        client.wait(job_id)
        events = list(client.stream_events(job_id))
        assert events[-1][0] == "done"

    def test_events_for_missing_job_is_404(self, served):
        gw, _ = served
        with pytest.raises(GatewayError) as err:
            list(gw.client().stream_events(987654))
        assert err.value.status == 404

    @staticmethod
    def _open_stream(port, job_id, query=""):
        """Raw SSE subscription: returns the connected socket."""
        sock = socket.create_connection(("127.0.0.1", port), timeout=5.0)
        sock.sendall(f"GET /jobs/{job_id}/events{query} HTTP/1.1\r\n"
                     f"\r\n".encode("ascii"))
        sock.settimeout(5.0)
        head = sock.recv(64)
        assert head.startswith(b"HTTP/1.1 200"), head
        return sock

    def test_disconnect_cancels_job_when_requested(self, served):
        gw, _ = served
        client = gw.client()
        job_id = client.submit("_gw_stepper",
                               {"steps": 200, "step_s": 0.05})["id"]
        sock = self._open_stream(gw.port, job_id, "?cancel=1")
        sock.close()  # abrupt client death
        final = client.wait(job_id, timeout_s=10.0)
        assert final["state"] == "cancelled"

    def test_disconnect_without_flag_leaves_job_running(self, served):
        gw, _ = served
        client = gw.client()
        job_id = client.submit("_gw_stepper",
                               {"steps": 8, "step_s": 0.05})["id"]
        sock = self._open_stream(gw.port, job_id)
        sock.close()
        final = client.wait(job_id, timeout_s=10.0)
        assert final["state"] == "done"


class TestRetryingClient:
    def test_rides_out_a_dead_window(self):
        """Requests during an outage succeed once a server appears."""
        with socket.socket() as probe:
            probe.bind(("127.0.0.1", 0))
            port = probe.getsockname()[1]

        gate = _register_toys()
        holder = {}

        def boot_later():
            time.sleep(0.5)
            service = ExperimentService(store=False, workers=1)
            gw = GatewayThread(service)
            # Rebind the client to wherever the late server landed.
            client.port = gw.port
            holder["gw"] = gw

        client = RetryingClient("127.0.0.1", port, overall_timeout_s=15.0,
                                backoff_cap_s=0.2, breaker_failures=3,
                                breaker_reset_s=0.2)
        booter = threading.Thread(target=boot_later)
        booter.start()
        try:
            snap = client.submit("_gw_quick", {"x": 4})
            final = client.wait(snap["id"])
            assert final["result"] == {"doubled": 8}
            assert client.stats["retries"] >= 1
            assert client.stats["breaker_trips"] >= 1
        finally:
            booter.join()
            gate.set()
            holder["gw"].shutdown()

    def test_overall_deadline_raises_unavailable(self):
        with socket.socket() as probe:
            probe.bind(("127.0.0.1", 0))
            port = probe.getsockname()[1]
        client = RetryingClient("127.0.0.1", port, overall_timeout_s=0.5,
                                backoff_cap_s=0.05)
        t0 = time.monotonic()
        with pytest.raises(GatewayUnavailable):
            client.health()
        assert time.monotonic() - t0 < 5.0

    def test_breaker_opens_and_half_opens(self):
        with socket.socket() as probe:
            probe.bind(("127.0.0.1", 0))
            port = probe.getsockname()[1]
        client = RetryingClient("127.0.0.1", port, overall_timeout_s=0.8,
                                backoff_base_s=0.01, backoff_cap_s=0.02,
                                breaker_failures=2, breaker_reset_s=0.1)
        with pytest.raises(GatewayUnavailable):
            client.health()
        assert client.stats["breaker_trips"] >= 1
        assert client.breaker_state in ("open", "half-open")
        time.sleep(0.15)
        assert client.breaker_state == "half-open"
        assert client.stats["breaker_probes"] >= 1

    def test_full_jitter_backoff_bounds(self):
        client = RetryingClient("127.0.0.1", 1, backoff_base_s=0.1,
                                backoff_cap_s=0.5,
                                rng=random.Random(7))
        sleeps = []
        client_sleep = time.sleep
        try:
            import repro.gateway.client as mod
            mod.time.sleep = sleeps.append
            deadline = time.monotonic() + 60.0
            for attempt in range(1, 12):
                client._backoff(attempt, deadline)
        finally:
            mod.time.sleep = client_sleep
        assert all(0.0 <= s <= 0.5 for s in sleeps), sleeps
        assert len(set(sleeps)) > 1, "jitter is not jittering"

    def test_retry_after_overrides_short_jitter(self):
        client = RetryingClient("127.0.0.1", 1, backoff_base_s=0.0001,
                                backoff_cap_s=0.0001,
                                rng=random.Random(3))
        sleeps = []
        import repro.gateway.client as mod
        real_sleep = mod.time.sleep
        try:
            mod.time.sleep = sleeps.append
            client._backoff(1, time.monotonic() + 60.0, retry_after=0.7)
        finally:
            mod.time.sleep = real_sleep
        assert sleeps and sleeps[0] >= 0.7
