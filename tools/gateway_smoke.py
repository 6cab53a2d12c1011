#!/usr/bin/env python
"""Chaos gate for the HTTP experiment gateway (PR 9 contract).

Four passes against real ``python -m repro serve --http`` subprocesses
on the loopback interface:

1. **Kill-and-resubmit chaos.**  A reference sweep runs on a clean
   server; a second server is ``kill -9``'d mid-sweep, restarted on
   the same port + store, and the same spec resubmitted through the
   retrying client.  The recovered results must be bit-identical to
   the reference (per-trip SHA-256 digests) with warm per-trip store
   hits, and a post-restart resubmission must be a whole-job cache
   hit (``cached: true``) — the crash cost at most the interrupted
   trip.
2. **Malformed/slow-request fuzz.**  Garbage start-lines, bad
   versions, oversized start-lines/headers/bodies, broken
   Content-Length, chunked bodies, slow-loris trickles, and abrupt
   mid-request disconnects.  Every shape must map to the documented
   4xx/5xx JSON error (or a clean close) — never a hang, never a
   traceback.
3. **Overload burst.**  Concurrent submissions against ``--workers 1
   --queue-limit 2`` must surface 429 + ``Retry-After`` (and a
   connection flood against ``--max-connections`` an immediate 503),
   and every spec must still complete once the retrying clients ride
   out the burst.
4. **Graceful drain.**  SIGTERM mid-job flips ``/readyz`` to 503,
   the in-flight job reaches a terminal state, and the server exits 0.

Every server's stderr is scanned for tracebacks at teardown; a single
``Traceback`` anywhere fails the gate.  Exits 0 with a skip message
if loopback sockets are unavailable in the sandbox.
"""

import http.client
import json
import os
import pathlib
import signal
import socket
import subprocess
import sys
import tempfile
import threading
import time

REPO_ROOT = pathlib.Path(__file__).resolve().parents[1]
SRC = str(REPO_ROOT / "src")
sys.path.insert(0, SRC)

from repro.gateway.client import RetryingClient  # noqa: E402

#: Sweep spec for the chaos pass: long enough that the kill lands
#: mid-sweep, short enough for CI.
CHAOS_SPEC = {"trips": 4, "duration_s": 10.0, "testbed_seed": 0,
              "seed0": 0}


def _free_port():
    with socket.socket() as probe:
        probe.bind(("127.0.0.1", 0))
        return probe.getsockname()[1]


class ServerHandle:
    """One gateway subprocess with captured stderr."""

    def __init__(self, port, store_dir, extra_args=(), label="server"):
        self.label = label
        self.stderr_path = tempfile.NamedTemporaryFile(
            mode="w+", suffix=f"-{label}.stderr", delete=False)
        env = dict(os.environ)
        env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"]
                                   if env.get("PYTHONPATH") else "")
        if store_dir is not None:
            env["REPRO_RESULT_STORE"] = store_dir
        argv = [sys.executable, "-m", "repro", "serve",
                "--http", f"127.0.0.1:{port}"]
        if store_dir is not None:
            argv += ["--store", store_dir]
        argv += list(extra_args)
        self.proc = subprocess.Popen(argv, stdout=subprocess.PIPE,
                                     stderr=self.stderr_path, text=True,
                                     env=env)
        announce = self.proc.stdout.readline().strip()
        if "listening" not in announce:
            raise RuntimeError(f"{label} failed to boot: {announce!r}")
        self.port = int(announce.rsplit(":", 1)[1])

    def kill9(self):
        self.proc.kill()
        self.proc.wait()

    def sigterm(self, timeout=30):
        self.proc.send_signal(signal.SIGTERM)
        return self.proc.wait(timeout=timeout)

    def stderr_text(self):
        self.stderr_path.flush()
        return pathlib.Path(self.stderr_path.name).read_text()

    def assert_no_traceback(self):
        text = self.stderr_text()
        assert "Traceback" not in text, (
            f"{self.label} leaked a traceback:\n{text[-2000:]}")

    def cleanup(self):
        if self.proc.poll() is None:
            self.proc.kill()
            self.proc.wait()
        self.stderr_path.close()
        os.unlink(self.stderr_path.name)


def _raw_exchange(port, payload, read_timeout=5.0, expect_reply=True):
    """Send raw bytes, return the first response line (or '' on close)."""
    with socket.create_connection(("127.0.0.1", port),
                                  timeout=read_timeout) as sock:
        sock.sendall(payload)
        sock.settimeout(read_timeout)
        try:
            data = sock.recv(4096)
        except socket.timeout:
            return None  # caller decides whether a hang is a failure
        if not expect_reply:
            return data
        return data.split(b"\r\n", 1)[0].decode("latin-1") if data else ""


def _gateway_stats(conn):
    """The ``gateway`` counters of ``GET /stats`` on keep-alive *conn*."""
    conn.request("GET", "/stats")
    return json.loads(conn.getresponse().read())["gateway"]


def _await_connections(conn, count, timeout_s=4.0):
    """Read /stats on *conn* until the server counts *count* active
    connections; returns those gateway counters."""
    deadline = time.monotonic() + timeout_s
    while True:
        stats = _gateway_stats(conn)
        if stats["active_connections"] == count:
            return stats
        assert time.monotonic() < deadline, (
            f"server counts {stats['active_connections']} active "
            f"connections, expected {count}")
        time.sleep(0.02)


def _post_job(port, body, timeout=15.0):
    conn = http.client.HTTPConnection("127.0.0.1", port, timeout=timeout)
    try:
        conn.request("POST", "/jobs", body=json.dumps(body).encode(),
                     headers={"Content-Type": "application/json"})
        response = conn.getresponse()
        return (response.status, dict(response.getheaders()),
                json.loads(response.read() or b"{}"))
    finally:
        conn.close()


def chaos_pass():
    print("[gateway_smoke] chaos: reference sweep on a clean server...")
    with tempfile.TemporaryDirectory(prefix="gw-ref-") as ref_store:
        server = ServerHandle(_free_port(), ref_store, ["--workers", "1"],
                              label="reference")
        try:
            client = RetryingClient("127.0.0.1", server.port)
            reference = client.submit_and_wait("vanlan_cbr_sweep",
                                               CHAOS_SPEC, timeout_s=300)
            assert reference["state"] == "done", reference
            ref_trips = reference["result"]["trips"]
            assert server.sigterm() == 0
            server.assert_no_traceback()
        finally:
            server.cleanup()

    print("[gateway_smoke] chaos: kill -9 mid-sweep, restart, resubmit...")
    with tempfile.TemporaryDirectory(prefix="gw-chaos-") as store:
        port = _free_port()
        server = ServerHandle(port, store, ["--workers", "1"],
                              label="victim")
        victim_ok = False
        try:
            client = RetryingClient("127.0.0.1", server.port,
                                    overall_timeout_s=60.0)
            job = client.submit("vanlan_cbr_sweep", CHAOS_SPEC)
            killed = False
            try:
                for event, payload in client.stream_events(
                        job["id"], read_timeout_s=120.0):
                    if event == "progress":
                        server.kill9()
                        killed = True
                        break
                    if event == "done":
                        break
            except Exception:
                pass  # the stream died with the server
            assert killed, "sweep finished before the kill; raise trips"
            server.assert_no_traceback()
            victim_ok = True
        finally:
            if not victim_ok:
                print(server.stderr_text()[-2000:])
            server.cleanup()

        server = ServerHandle(port, store, ["--workers", "1"],
                              label="restarted")
        try:
            recovered = client.submit_and_wait("vanlan_cbr_sweep",
                                               CHAOS_SPEC, timeout_s=300)
            assert recovered["state"] == "done", recovered
            rec = recovered["result"]
            assert rec["trips"] == ref_trips, (
                "post-crash digests diverged from the reference:\n"
                f"{rec['trips']}\nvs\n{ref_trips}")
            assert rec["store"]["hits"] >= 1, (
                f"no warm per-trip hits after the crash: {rec['store']}")
            assert server.sigterm() == 0
            server.assert_no_traceback()
        finally:
            server.cleanup()

        # Third boot on the same store: the whole job must be a warm
        # whole-job cache hit — zero recompute after a full restart.
        server = ServerHandle(port, store, ["--workers", "1"],
                              label="warm")
        try:
            warm = client.submit_and_wait("vanlan_cbr_sweep", CHAOS_SPEC,
                                          timeout_s=60)
            assert warm["state"] == "done" and warm["cached"], (
                f"expected a whole-job store hit after restart: {warm}")
            assert warm["result"]["trips"] == ref_trips
            assert server.sigterm() == 0
            server.assert_no_traceback()
        finally:
            server.cleanup()
    print("[gateway_smoke] chaos: recovered bit-identical with warm "
          "store hits")


def fuzz_pass():
    print("[gateway_smoke] fuzz: malformed and slow requests...")
    server = ServerHandle(_free_port(), None,
                          ["--workers", "1", "--header-timeout", "1.0",
                           "--max-body-bytes", "4096"], label="fuzz")
    port = server.port
    try:
        cases = [
            ("garbage start line", b"GARBAGE\r\n\r\n", "400"),
            ("bad version", b"GET / HTTP/9.9\r\n\r\n", "505"),
            ("bad method", b"BREW /jobs HTTP/1.1\r\n\r\n", "405"),
            ("binary junk", bytes(range(256)) + b"\r\n\r\n", "400"),
            ("oversized start line",
             b"GET /" + b"a" * 8192 + b" HTTP/1.1\r\n\r\n", "431"),
            ("header without colon",
             b"GET /healthz HTTP/1.1\r\nbroken header\r\n\r\n", "400"),
            ("header flood",
             b"GET /healthz HTTP/1.1\r\n"
             + b"".join(b"x-h%d: y\r\n" % i for i in range(200))
             + b"\r\n", "431"),
            ("bad content-length",
             b"POST /jobs HTTP/1.1\r\nContent-Length: banana\r\n\r\n",
             "400"),
            ("oversized body",
             b"POST /jobs HTTP/1.1\r\nContent-Length: 999999\r\n\r\n",
             "413"),
            ("chunked body",
             b"POST /jobs HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n",
             "501"),
            ("unknown path", b"GET /nope HTTP/1.1\r\n\r\n", "404"),
            ("bad JSON body",
             b"POST /jobs HTTP/1.1\r\nContent-Length: 9\r\n\r\nnot json!",
             "400"),
            ("non-object body",
             b"POST /jobs HTTP/1.1\r\nContent-Length: 7\r\n\r\n[1,2,3]",
             "400"),
            ("unknown runner",
             b"POST /jobs HTTP/1.1\r\nContent-Length: 24\r\n\r\n"
             b'{"runner": "no-such-x"}\n', "400"),
            ("wrong method on /jobs", b"GET /jobs HTTP/1.1\r\n\r\n",
             "405"),
            ("missing job", b"GET /jobs/9999 HTTP/1.1\r\n\r\n", "404"),
        ]
        for name, payload, want in cases:
            status_line = _raw_exchange(port, payload)
            assert status_line is not None, f"{name}: server hung"
            assert f" {want} " in status_line + " ", (
                f"{name}: expected {want}, got {status_line!r}")

        # Slow-loris: trickle half a request line, then stall.  The
        # 1 s header deadline must hand the socket back with a 408.
        t0 = time.monotonic()
        with socket.create_connection(("127.0.0.1", port),
                                      timeout=10.0) as sock:
            sock.sendall(b"GET /heal")
            sock.settimeout(10.0)
            data = sock.recv(4096)
        waited = time.monotonic() - t0
        assert b" 408 " in data, f"slow-loris answer: {data[:80]!r}"
        assert waited < 8.0, f"slow-loris held the socket {waited:.1f}s"

        # Abrupt disconnects at every interesting phase.
        for fragment in (b"", b"GET", b"GET /healthz HTTP/1.1\r\n",
                         b"POST /jobs HTTP/1.1\r\nContent-Length: 50\r\n"
                         b"\r\n{\"runner\":"):
            with socket.create_connection(("127.0.0.1", port),
                                          timeout=5.0) as sock:
                if fragment:
                    sock.sendall(fragment)
            # no assertion: the pass is "server neither dies nor logs".

        # And the server is still perfectly healthy afterwards.
        client = RetryingClient("127.0.0.1", port)
        assert client.health() == {"ok": True}
        assert server.sigterm() == 0
        server.assert_no_traceback()
    finally:
        server.cleanup()
    print("[gateway_smoke] fuzz: every shape mapped to a structured "
          "4xx/5xx, zero tracebacks")


def overload_pass():
    print("[gateway_smoke] overload: burst against workers=1 "
          "queue_limit=2...")
    server = ServerHandle(_free_port(), None,
                          ["--workers", "1", "--queue-limit", "2",
                           "--max-connections", "6"], label="overload")
    port = server.port
    try:
        # Distinct specs (different seed0) so dedupe cannot absorb the
        # burst; each is a real ~0.5 s job.
        specs = [{"trips": 1, "duration_s": 6.0, "testbed_seed": 0,
                  "seed0": 100 + i} for i in range(8)]
        statuses = []
        lock = threading.Lock()

        def fire(spec):
            try:
                status, headers, _ = _post_job(
                    port, {"runner": "vanlan_cbr_sweep", "params": spec})
            except OSError:
                status, headers = -1, {}
            with lock:
                statuses.append((status, headers))

        threads = [threading.Thread(target=fire, args=(s,))
                   for s in specs]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        codes = [s for s, _ in statuses]
        assert any(code == 429 for code in codes), (
            f"burst produced no 429 backpressure: {codes}")
        for status, headers in statuses:
            if status == 429:
                retry_after = {k.lower(): v for k, v in
                               headers.items()}.get("retry-after")
                assert retry_after is not None, "429 without Retry-After"

        # Connection flood, checked against the server's own count:
        # a keep-alive connection reads /stats until it is the only
        # one left, five held sockets fill --max-connections, and the
        # next connection must get an immediate 503, counted as
        # exactly one rejection.
        stats_conn = http.client.HTTPConnection("127.0.0.1", port,
                                                timeout=5.0)
        held = []
        try:
            _await_connections(stats_conn, 1)
            for _ in range(5):
                held.append(socket.create_connection(
                    ("127.0.0.1", port), timeout=5.0))
            rejected = _await_connections(stats_conn, 6)[
                "connections_rejected"]
            flood = _raw_exchange(port, b"GET /healthz HTTP/1.1\r\n\r\n")
            assert flood is not None and " 503 " in flood + " ", (
                f"connection flood answer: {flood!r}")
            after = _gateway_stats(stats_conn)["connections_rejected"]
            assert after == rejected + 1, (
                f"flood probe rejections: {rejected} -> {after}")
        finally:
            for sock in held:
                sock.close()
            stats_conn.close()

        # Eventual completion: the retrying clients ride out the
        # backpressure and every spec completes.
        finals = []

        def complete(spec):
            client = RetryingClient("127.0.0.1", port,
                                    overall_timeout_s=120.0)
            final = client.submit_and_wait(
                "vanlan_cbr_sweep", spec, timeout_s=240.0)
            with lock:
                finals.append(final)

        threads = [threading.Thread(target=complete, args=(s,))
                   for s in specs]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert len(finals) == len(specs)
        assert all(f["state"] == "done" for f in finals), (
            [f["state"] for f in finals])
        assert server.sigterm() == 0
        server.assert_no_traceback()
    finally:
        server.cleanup()
    print("[gateway_smoke] overload: 429/503 surfaced, all "
          f"{len(finals)} specs eventually completed")


def drain_pass():
    print("[gateway_smoke] drain: SIGTERM with a job in flight...")
    server = ServerHandle(_free_port(), None, ["--workers", "1"],
                          label="drain")
    try:
        client = RetryingClient("127.0.0.1", server.port)
        job = client.submit("vanlan_cbr_sweep",
                            {"trips": 2, "duration_s": 8.0,
                             "testbed_seed": 0, "seed0": 7})
        assert client.ready()
        # A dedicated probe with a tight deadline: once the listener
        # closes, a long retry loop would outlive the drain window.
        probe = RetryingClient("127.0.0.1", server.port,
                               overall_timeout_s=1.0, backoff_cap_s=0.1)
        server.proc.send_signal(signal.SIGTERM)
        # Readiness must flip while the in-flight job finishes.
        deadline = time.monotonic() + 10.0
        saw_not_ready = False
        while time.monotonic() < deadline:
            try:
                if not probe.ready():
                    saw_not_ready = True
                    break
            except Exception:
                break  # listener already closed — also a valid drain end
            time.sleep(0.02)
        code = server.proc.wait(timeout=60)
        assert code == 0, f"drain exited {code}"
        assert saw_not_ready, "readyz never flipped to 503 during drain"
        server.assert_no_traceback()
        _ = job  # the job either finished or was finalized terminal
    finally:
        server.cleanup()
    print("[gateway_smoke] drain: readiness flipped, clean exit 0")


def main():
    try:
        with socket.socket() as probe:
            probe.bind(("127.0.0.1", 0))
    except OSError as exc:
        print(f"[gateway_smoke] SKIPPED: loopback sockets unavailable "
              f"in this sandbox ({exc})")
        return 0
    t0 = time.perf_counter()
    chaos_pass()
    fuzz_pass()
    overload_pass()
    drain_pass()
    print(f"[gateway_smoke] all passes green in "
          f"{time.perf_counter() - t0:.1f} s")
    return 0


if __name__ == "__main__":
    sys.exit(main())
