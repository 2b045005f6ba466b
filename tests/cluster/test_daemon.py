"""The HTTP skeleton all three daemons share: server, worker, registry.

Every worker and registry response must leave as one write on a
``TCP_NODELAY`` socket.  A head and a body sent as two small segments
with Nagle on wait for the client's delayed ACK, which stalls every
request on a kept-alive connection by about 40 ms.  A client that drops
the socket mid-response must end the connection quietly, not print a
``socketserver`` traceback.

What the skeleton gives every daemon alike: a malformed request body
length is a 400 with a JSON error, ``stop()`` severs idle kept-alive
clients, and SIGTERM shuts a daemon process down as cleanly as Ctrl-C.
"""

from __future__ import annotations

import http.client
import json
import os
import signal
import socket
import statistics
import struct
import subprocess
import sys
import threading
import time
from urllib.parse import urlsplit

import pytest

from repro.app.server import make_server
from repro.cluster import wire
from repro.cluster.registry import make_registry
from repro.cluster.worker import make_worker
from repro.telemetry import MetricsRegistry
from tests.cluster.test_wire import square

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

#: the keep-alive bar: a delayed-ACK stall costs ~40 ms per request
KEEPALIVE_P50_MS = 5.0


def _chunk_request(start: int, stop: int) -> bytes:
    return wire.encode_request(wire.encode_trial_work(square, {"base": 3}), start, stop)


def _connect(handle) -> http.client.HTTPConnection:
    url = urlsplit(handle.url)
    return http.client.HTTPConnection(url.hostname, url.port, timeout=10)


#: each daemon: a bound handle, its liveness route, and a POST route
#: that reads a request body
DAEMONS = {
    "server": (lambda: make_server(metrics_registry=MetricsRegistry()), "/health", "/session"),
    "worker": (lambda: make_worker(), "/healthz", "/trials"),
    "registry": (make_registry, "/healthz", "/register"),
}


def _keepalive_p50_ms(handle, requests, n: int = 50) -> float:
    """Median round trip of ``n`` requests cycled over one connection."""
    connection = _connect(handle)
    samples = []
    sock = None
    try:
        for i in range(n):
            method, path, body = requests[i % len(requests)]
            started = time.perf_counter()
            connection.request(method, path, body=body)
            response = connection.getresponse()
            response.read()
            samples.append(1000.0 * (time.perf_counter() - started))
            assert response.status == 200, (path, response.status)
            sock = sock or connection.sock
            assert connection.sock is sock, "the connection was not kept alive"
    finally:
        connection.close()
    return statistics.median(samples)


class _WriteSpy:
    """Stands in for a handler's ``wfile``, logging every write."""

    def __init__(self, inner, log: list[bytes]):
        self._inner = inner
        self._log = log

    def write(self, data) -> int:
        self._log.append(bytes(data))
        return self._inner.write(data)

    def __getattr__(self, name):
        return getattr(self._inner, name)


def _spy_on_writes(handle) -> tuple[list[bytes], list[int]]:
    """Log each response write and each socket's TCP_NODELAY flag."""
    writes: list[bytes] = []
    nodelay: list[int] = []
    base = handle._server.RequestHandlerClass

    class SpiedHandler(base):
        def setup(self):
            super().setup()
            nodelay.append(
                self.connection.getsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY)
            )
            self.wfile = _WriteSpy(self.wfile, writes)

    handle._server.RequestHandlerClass = SpiedHandler
    return writes, nodelay


def _assert_one_write(connection, writes, method, path, body=None):
    """Send one request; its whole response must have been one write."""
    before = len(writes)
    connection.request(method, path, body=body)
    response = connection.getresponse()
    payload = response.read()
    sent = writes[before:]
    assert len(sent) == 1, f"{method} {path}: {len(sent)} writes"
    head, _, rest = sent[0].partition(b"\r\n\r\n")
    assert head.startswith(f"HTTP/1.1 {response.status} ".encode())
    assert rest == payload and payload
    return response, payload


class TestKeepAliveLatency:
    def test_worker_healthz_and_stats(self):
        with make_worker() as handle:
            p50 = _keepalive_p50_ms(
                handle, [("GET", "/healthz", None), ("GET", "/stats", None)]
            )
        assert p50 < KEEPALIVE_P50_MS, f"worker keep-alive p50 {p50:.1f} ms"

    def test_worker_trial_chunks(self):
        with make_worker() as handle:
            p50 = _keepalive_p50_ms(handle, [("POST", "/trials", _chunk_request(0, 4))])
        assert p50 < KEEPALIVE_P50_MS, f"worker chunk p50 {p50:.1f} ms"

    def test_registry_routes(self, registry):
        registry.registry.register("127.0.0.1:9001")
        p50 = _keepalive_p50_ms(registry, [
            ("GET", "/healthz", None),
            ("GET", "/workers", None),
            ("POST", "/heartbeat", b'{"address": "127.0.0.1:9001"}'),
        ])
        assert p50 < KEEPALIVE_P50_MS, f"registry keep-alive p50 {p50:.1f} ms"


class TestOneWritePerResponse:
    def test_worker_responses(self):
        handle = make_worker()
        writes, nodelay = _spy_on_writes(handle)
        with handle:
            connection = _connect(handle)
            _assert_one_write(connection, writes, "GET", "/healthz")
            _assert_one_write(connection, writes, "GET", "/stats")
            _assert_one_write(connection, writes, "GET", "/nope")
            response, payload = _assert_one_write(
                connection, writes, "POST", "/trials", _chunk_request(2, 6)
            )
            assert response.getheader("Content-Type") == "application/octet-stream"
            assert wire.decode_response(payload, 2, 6) == square({"base": 3}, 4, 2)
            response, _ = _assert_one_write(
                connection, writes, "POST", "/trials", b"not a frame"
            )
            assert response.status == 400
            response, payload = _assert_one_write(
                connection, writes, "GET",
                "/debug/profile?seconds=0.05&hz=100&format=collapsed",
            )
            assert response.getheader("Content-Type") == "text/plain"
            connection.close()
        assert nodelay and all(nodelay)

    def test_registry_responses(self):
        handle = make_registry()
        writes, nodelay = _spy_on_writes(handle)
        with handle:
            connection = _connect(handle)
            for method, path, body in [
                ("POST", "/register", b'{"address": "127.0.0.1:9001"}'),
                ("POST", "/heartbeat", b'{"address": "127.0.0.1:9001"}'),
                ("POST", "/heartbeat", b'{"address": "127.0.0.1:9002"}'),
                ("POST", "/register", b"not json"),
                ("GET", "/healthz", None),
                ("GET", "/workers", None),
                ("GET", "/stats", None),
                ("POST", "/deregister", b'{"address": "127.0.0.1:9001"}'),
            ]:
                _assert_one_write(connection, writes, method, path, body)
            connection.close()
        assert nodelay and all(nodelay)

    @pytest.mark.parametrize("daemon", sorted(DAEMONS))
    def test_http_09_request_gets_the_bare_body(self, daemon):
        factory, health_path, _ = DAEMONS[daemon]
        with factory() as handle:
            url = urlsplit(handle.url)
            with socket.create_connection((url.hostname, url.port), timeout=10) as sock:
                sock.sendall(f"GET {health_path}\r\n\r\n".encode())
                raw = b"".join(iter(lambda: sock.recv(65536), b""))
        assert raw.startswith(b"{") and b'"status": "ok"' in raw


def _reset_mid_response(handle, entered, release, request: bytes) -> None:
    """Send ``request``, reset the socket while it is handled, then wait.

    ``entered`` is set by the daemon's gated step once the request has
    been read; the client then aborts with an RST and sets ``release``,
    so the daemon's response write hits a dead socket.  Returns once
    the handler thread has finished.
    """
    before = set(threading.enumerate())
    host, port = handle.address.rsplit(":", 1)
    sock = socket.create_connection((host, int(port)), timeout=10)
    sock.sendall(request)
    assert entered.wait(5), "the request never reached the handler"
    sock.setsockopt(socket.SOL_SOCKET, socket.SO_LINGER, struct.pack("ii", 1, 0))
    sock.close()
    time.sleep(0.05)  # let the RST land before the handler writes
    release.set()
    for thread in set(threading.enumerate()) - before:
        thread.join(timeout=5)
        assert not thread.is_alive()


def _gated(fn):
    """Wrap ``fn`` so it signals entry, then blocks until released."""
    entered, release = threading.Event(), threading.Event()

    def gated(*args, **kwargs):
        entered.set()
        release.wait(5)
        return fn(*args, **kwargs)

    return entered, release, gated


class TestClientGoneMidResponse:
    @pytest.mark.parametrize(
        "frame", [_chunk_request(0, 4), b"not a frame"], ids=["chunk", "bad-frame"]
    )
    def test_worker_ends_the_connection_quietly(self, capsys, frame):
        with make_worker() as handle:
            entered, release, handle.worker.run_chunk = _gated(handle.worker.run_chunk)
            _reset_mid_response(handle, entered, release, (
                b"POST /trials HTTP/1.1\r\nHost: worker\r\n"
                + f"Content-Length: {len(frame)}\r\n\r\n".encode() + frame
            ))
            # the daemon still serves new connections
            connection = _connect(handle)
            connection.request("GET", "/healthz")
            assert connection.getresponse().status == 200
            connection.close()
        assert capsys.readouterr().err == ""

    def test_registry_ends_the_connection_quietly(self, capsys):
        with make_registry() as handle:
            entered, release, handle.registry.workers = _gated(handle.registry.workers)
            _reset_mid_response(
                handle, entered, release,
                b"GET /workers HTTP/1.1\r\nHost: registry\r\n\r\n",
            )
        assert capsys.readouterr().err == ""


class TestBadContentLength:
    @pytest.mark.parametrize("daemon", sorted(DAEMONS))
    def test_non_numeric_length_is_a_json_400(self, capsys, daemon):
        factory, _, post_path = DAEMONS[daemon]
        with factory() as handle:
            url = urlsplit(handle.url)
            with socket.create_connection((url.hostname, url.port), timeout=10) as sock:
                sock.sendall(
                    f"POST {post_path} HTTP/1.1\r\nHost: daemon\r\n".encode()
                    + b"Content-Length: abc\r\n\r\n"
                )
                response = http.client.HTTPResponse(sock)
                response.begin()
                body = json.loads(response.read())
        assert response.status == 400
        assert "Content-Length" in body["error"]
        assert capsys.readouterr().err == ""


class TestUnreadBodyOn404:
    @pytest.mark.parametrize("daemon", sorted(DAEMONS))
    def test_next_request_on_the_connection_is_served(self, daemon):
        """A POST answered without reading its body must not poison
        the kept-alive connection: the body is not the next request."""
        factory, health_path, _ = DAEMONS[daemon]
        with factory() as handle:
            connection = _connect(handle)
            try:
                connection.request("POST", "/nope", body=b'{"x": 1}')
                response = connection.getresponse()
                response.read()
                assert response.status == 404
                connection.request("GET", health_path)
                response = connection.getresponse()
                assert response.status == 200
                assert response.getheader("Content-Type").startswith("application/json")
                assert json.loads(response.read())["status"] == "ok"
            finally:
                connection.close()


class TestStopSeversIdleConnections:
    @pytest.mark.parametrize("daemon", sorted(DAEMONS))
    def test_idle_kept_alive_client_is_cut_off(self, capsys, daemon):
        factory, health_path, _ = DAEMONS[daemon]
        handle = factory().start()
        connection = _connect(handle)
        try:
            connection.request("GET", health_path)
            response = connection.getresponse()
            response.read()
            assert response.status == 200 and not response.will_close
            started = time.perf_counter()
            handle.stop()
            assert time.perf_counter() - started < 5.0  # the stop's grace
            with pytest.raises((OSError, http.client.HTTPException)):
                connection.request("GET", health_path)
                connection.getresponse().read()
        finally:
            connection.close()
        time.sleep(0.1)  # let the severed handler thread wind down
        assert capsys.readouterr().err == ""


#: each daemon's command line, run as its own process on an ephemeral port
DAEMON_COMMANDS = {
    "server": [
        "repro.app.cli", "serve", "--dataset", "cs-departments",
        "--weight", "GRE=1.0", "--sensitive", "DeptSizeBin",
        "--id-column", "DeptName", "--port", "0",
    ],
    "worker": ["repro.cluster.worker", "--port", "0"],
    "registry": ["repro.cluster.registry", "--port", "0"],
}


class TestSigterm:
    @pytest.mark.parametrize("daemon", sorted(DAEMON_COMMANDS))
    def test_sigterm_stops_the_daemon_and_exits_zero(self, daemon):
        env = {**os.environ, "PYTHONUNBUFFERED": "1"}
        env["PYTHONPATH"] = os.pathsep.join(
            [os.path.join(REPO_ROOT, "src"), REPO_ROOT]
            + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
        )
        proc = subprocess.Popen(
            [sys.executable, "-m", *DAEMON_COMMANDS[daemon]],
            cwd=REPO_ROOT, env=env, text=True,
            stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        )
        try:
            banner = proc.stdout.readline()
            assert "http://" in banner, banner + proc.stderr.read()
            # an open kept-alive connection must not hold the exit up
            url = urlsplit(banner[banner.index("http://"):].split()[0])
            connection = http.client.HTTPConnection(url.hostname, url.port, timeout=10)
            connection.request("GET", DAEMONS[daemon][1])
            assert connection.getresponse().read()
            proc.send_signal(signal.SIGTERM)
            out, err = proc.communicate(timeout=30)
            connection.close()
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.communicate()
        assert proc.returncode == 0, err
        assert "(SIGTERM)" in out
        assert "Traceback" not in err
