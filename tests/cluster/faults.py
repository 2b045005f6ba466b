"""The fault-injection harness: every way a fleet breaks, on demand.

PR 4's conftest grew these fakes one test at a time; this module makes
them a reusable kit so robustness tests (and the CI chaos job) compose
faults instead of re-implementing them:

- :func:`dead_address` — an address nothing listens on (refused);
- :func:`faulty_worker` — probes healthy, fails every chunk (503),
  optionally after a delay (hung worker) or reporting the wrong
  protocol (mismatch must be rejected at probe time);
- :func:`half_closed_worker` — probes healthy, half-closes the chunk
  connection unanswered (a process SIGKILLed mid-request);
- :func:`slow_worker` — a *real* worker whose chunks succeed after a
  delay (distinguishes "slow" from "broken");
- :func:`kill_worker` — stop a live worker the way SIGKILL would: no
  drain, no deregistration, heartbeat silenced, sockets severed — the
  registry only learns via lease expiry;
- :func:`revive_worker` — bind a replacement on a specific port (the
  restart half of kill/restart);
- :func:`dropped_heartbeats` — silence a registered worker's heartbeat
  without touching the worker (the lease expires under a live daemon);
- :func:`partitioned_registry` — make a registry unreachable
  (connections die without a response) and heal it on exit.

Every fault here shapes *scheduling* only.  The determinism contract
(chunks execute at absolute trial indices) means a label computed
under any combination of these faults is byte-identical to serial —
which is exactly what the tests assert.
"""

from __future__ import annotations

import contextlib
import json
import socket
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

from repro.cluster import wire
from repro.cluster.daemon import DaemonHandle
from repro.cluster.registry import RegistryHandle
from repro.cluster.worker import WorkerHandle, make_worker

__all__ = [
    "boom_trial",
    "dead_address",
    "faulty_worker",
    "half_closed_worker",
    "slow_worker",
    "kill_worker",
    "revive_worker",
    "dropped_heartbeats",
    "partitioned_registry",
]


def boom_trial(payload, trial):
    """A genuinely buggy trial — module-level so it crosses the wire."""
    raise ValueError("bad trial")


def chaos_trial(payload, trial):
    """A deterministic trial slow enough to be mid-flight when a worker
    dies — module-level so subprocess workers can unpickle it."""
    time.sleep(payload.get("delay", 0.0))
    return float(payload["base"] + trial) * 0.5


def dead_address() -> str:
    """A host:port that was just free — connecting to it is refused."""
    probe = socket.socket()
    probe.bind(("127.0.0.1", 0))
    address = f"127.0.0.1:{probe.getsockname()[1]}"
    probe.close()
    return address


class _FaultyHandler(BaseHTTPRequestHandler):
    """Healthy on probe, broken on work — the faulty-worker template."""

    protocol_report: int = wire.PROTOCOL_VERSION
    trial_delay: float = 0.0
    # 503, not 500: a 500 is the worker's "the trial function raised"
    # signal, which the coordinator deliberately does NOT fail over
    trial_status: int = 503

    def log_message(self, format, *args):  # noqa: A002
        pass

    def _send_json(self, status: int, data: object) -> None:
        body = json.dumps(data).encode("utf-8")
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def do_GET(self):  # noqa: N802
        if self.path.partition("?")[0] == "/healthz":
            self._send_json(
                200, {"status": "ok", "protocol": self.protocol_report}
            )
        else:
            self._send_json(404, {"error": "unknown"})

    def do_POST(self):  # noqa: N802
        length = int(self.headers.get("Content-Length") or 0)
        self.rfile.read(length)
        if self.trial_delay:
            time.sleep(self.trial_delay)
        self._send_json(self.trial_status, {"error": "injected worker fault"})


@contextlib.contextmanager
def _serving(handler_cls):
    server = ThreadingHTTPServer(("127.0.0.1", 0), handler_cls)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    host, port = server.server_address[:2]
    try:
        yield f"{host}:{int(port)}"
    finally:
        server.shutdown()
        server.server_close()
        thread.join(timeout=5)


@contextlib.contextmanager
def faulty_worker(
    protocol: int | None = None,
    trial_delay: float = 0.0,
    trial_status: int = 503,
):
    """Serve a worker that probes healthy but fails every chunk.

    ``protocol`` overrides the version ``/healthz`` reports (a
    mismatched worker must be rejected at probe time and never sent a
    chunk).  ``trial_delay`` makes ``POST /trials`` hang that long
    before failing (the slow-worker case).
    """
    handler = type(
        "BoundFaultyHandler",
        (_FaultyHandler,),
        {
            "protocol_report": (
                protocol if protocol is not None else wire.PROTOCOL_VERSION
            ),
            "trial_delay": trial_delay,
            "trial_status": trial_status,
        },
    )
    with _serving(handler) as address:
        yield address


class _HalfClosedHandler(_FaultyHandler):
    """Healthy on probe; half-closes the chunk connection, no response.

    This reproduces a worker whose process died (or was SIGKILLed) right
    as the chunk arrived: the kernel sends FIN, the socket reads EOF,
    but the connection is never properly answered.  The coordinator
    must classify this as dead-at-dispatch and fail over immediately —
    not sit out the full chunk timeout.
    """

    hold: float = 5.0

    def do_POST(self):  # noqa: N802
        length = int(self.headers.get("Content-Length") or 0)
        self.rfile.read(length)
        try:
            self.connection.shutdown(socket.SHUT_WR)  # FIN, no response bytes
        except OSError:
            pass
        # keep the fd open so the client sees a half-close, not a reset
        time.sleep(self.hold)


@contextlib.contextmanager
def half_closed_worker(hold: float = 5.0):
    """Serve a worker that half-closes every chunk connection unanswered."""
    handler = type("BoundHalfClosedHandler", (_HalfClosedHandler,), {"hold": hold})
    with _serving(handler) as address:
        yield address


@contextlib.contextmanager
def slow_worker(delay: float, **make_kwargs):
    """A *real* worker whose chunks succeed — after ``delay`` seconds.

    Unlike :func:`faulty_worker`'s ``trial_delay`` (slow, then fails),
    this daemon eventually answers correctly: it tells apart
    coordinator behavior toward slowness (timeouts, hedging) from
    behavior toward breakage (failover, breakers).
    """
    handle = make_worker(**make_kwargs)
    original = handle.worker.run_chunk

    def delayed_run_chunk(data: bytes) -> bytes:
        time.sleep(delay)
        return original(data)

    handle.worker.run_chunk = delayed_run_chunk
    with handle:
        yield handle


def kill_worker(handle: WorkerHandle) -> str:
    """Stop ``handle`` the way ``kill -9`` would; returns its address.

    No drain, no graceful deregistration: the heartbeat simply stops
    (a dead process cannot beat), live connections are severed so a
    coordinator holding one sees EOF, and the listener closes so fresh
    connections are refused.  The registry only finds out when the
    lease TTL expires — exactly like a real crash.
    """
    address = handle.address
    if handle.heartbeat is not None:
        handle.heartbeat.stop(deregister=False)
    DaemonHandle.stop(handle)  # sockets only: no drain, no deregistration
    handle.worker.shutdown()
    return address


def revive_worker(address: str, **make_kwargs) -> WorkerHandle:
    """Bind a replacement worker on ``address`` (the restart after a kill).

    The port may linger in TIME_WAIT for a moment after a kill; retry
    briefly before giving up.
    """
    host, _, port = address.rpartition(":")
    deadline = time.monotonic() + 5.0
    while True:
        try:
            return make_worker(host=host, port=int(port), **make_kwargs)
        except OSError:
            if time.monotonic() >= deadline:
                raise
            time.sleep(0.05)


@contextlib.contextmanager
def dropped_heartbeats(handle: WorkerHandle):
    """Silence a registered worker's heartbeats inside the block.

    The daemon keeps serving chunks the whole time — only membership
    goes quiet, so the registry expires a lease under a perfectly
    healthy worker (a one-way partition between worker and registry).
    """
    if handle.heartbeat is None:
        raise ValueError("worker is not registered; nothing to drop")
    handle.heartbeat.pause()
    try:
        yield handle
    finally:
        handle.heartbeat.resume()


@contextlib.contextmanager
def partitioned_registry(handle: RegistryHandle):
    """Make a registry unreachable inside the block; heal it on exit.

    Connections are accepted and then die without a response —
    indistinguishable, to clients, from a network partition.  Workers
    must keep serving (and re-register when the partition heals);
    coordinators must keep scheduling on their last-known membership.
    """
    handle.partition(True)
    try:
        yield handle
    finally:
        handle.partition(False)
