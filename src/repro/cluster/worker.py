"""The trial worker daemon: one machine's slice of the Monte-Carlo load.

A worker is a stdlib ``http.server`` daemon (the same substrate as
:mod:`repro.app.server`) that executes trial-chunk requests framed by
:mod:`repro.cluster.wire`:

- ``POST /trials``  — body is one wire frame: pickled
  ``(trial_fn, payload)`` plus a trial-index span ``[start, stop)``.
  The worker runs the span through its local
  :class:`~repro.engine.backends.TrialBackend` (default ``vectorized``)
  at the span's *absolute* trial indices —
  :func:`repro.engine.backends.run_trial_span` — so per-trial RNG
  streams, and therefore label bytes, are identical to an unsharded
  run.  Responds with a result frame (200), a rejection (400: bad
  magic, version mismatch, corrupted body — counted, never executed),
  or a trial error (500: the trial function itself raised; the
  coordinator will re-raise it locally).
- ``GET /healthz``  — liveness + protocol version + backend names;
  the coordinator refuses to schedule onto a worker whose protocol
  differs from its own.  The probe's own response time is recorded in
  the worker's metrics registry (``repro_worker_healthz_seconds``).
  Once shutdown begins the same route answers **503** with status
  ``draining`` — probes see the worker leaving before its sockets
  close, so coordinators stop scheduling onto it instead of timing
  out against it.
- ``GET /stats``    — chunk/trial/rejection/error counters, daemon
  ``uptime_seconds``, the trace id of the last executed chunk, and —
  when registered — the heartbeat loop's registration stats.
- ``GET /debug/profile?seconds=N&hz=H&format=collapsed|json`` — an
  on-demand sampling-profiler window (:mod:`repro.telemetry.profiling`)
  over this worker's threads, same contract as the coordinator's
  endpoint; ``ranking-facts profile --fleet`` backhauls these from
  every registry-known worker in one sweep.  ``--profile`` (or
  ``REPRO_PROFILE=1``) additionally keeps a low-rate continuous
  sampler running from startup.

Fleet membership (:mod:`repro.cluster.registry`): started with
``--register URL`` the worker announces itself to a registry and
keeps its TTL lease alive with jittered heartbeats
(:class:`~repro.cluster.registry.HeartbeatLoop`).  On shutdown —
including SIGTERM to ``serve_worker_forever`` — it first drains
(``/healthz`` → 503), then deregisters gracefully, then closes; an
unclean death is reaped by the lease TTL instead.

Telemetry: a chunk request frame may carry the originating request's
trace id (:mod:`repro.cluster.wire`, protocol minor 1).  The worker
adopts it — chunk spans, metrics, and structured log lines
(``--log-level`` / ``REPRO_LOG_LEVEL``; :mod:`repro.telemetry.logging`)
all carry the coordinator's trace id, so one label request can be
followed across the process boundary.

Failover semantics from the worker's side: a worker holds **no** batch
state — each chunk is self-contained — so the coordinator can resend a
dead worker's span to any other worker (or run it locally) and the
recomputed results are byte-identical.  Workers can join or die at any
time without coordination.

Run one with ``ranking-facts worker`` or
``python -m repro.cluster.worker --port 8101``.
"""

from __future__ import annotations

import argparse
import os
import signal
import sys
import threading
import time
from collections.abc import Sequence
from urllib.parse import parse_qs

from repro.cluster import wire
from repro.cluster.daemon import DaemonHandle, DaemonHandler, DaemonServer
from repro.cluster.registry import DEFAULT_LEASE_TTL, HeartbeatLoop, RegistryClient
from repro.engine.backends import resolve_trial_backend, run_trial_span
from repro.errors import ClusterError
from repro.telemetry import (
    DEFAULT_CONTINUOUS_HZ,
    DEFAULT_WINDOW_HZ,
    MAX_BACKHAUL_SPANS,
    MetricsRegistry,
    SamplingProfiler,
    configure_logging,
    env_profile_enabled,
    get_default_profiler,
    get_default_registry,
    get_logger,
    merged_stats,
    span,
)

_log = get_logger("cluster.worker")

__all__ = [
    "TrialWorker",
    "WorkerHandle",
    "make_worker",
    "serve_worker_forever",
    "add_worker_arguments",
    "main",
]


class _SpanCapture:
    """A ``record``-compatible sink collecting a chunk's spans in order.

    Handed to ``span(buffer=...)`` for the chunk so its spans are
    captured for backhaul instead of landing in the process ring —
    the coordinator revives them (re-parented under its own attempt
    span) on the far side, which is where they become visible.
    """

    __slots__ = ("spans",)

    def __init__(self) -> None:
        self.spans: list = []

    def record(self, entry) -> None:
        self.spans.append(entry)


class TrialWorker:
    """The executing core of a worker daemon: backend + counters.

    Kept separate from the HTTP plumbing so tests (and future
    transports) can drive it directly.

    ``span_backhaul`` (default on) serializes the spans completed under
    a traced chunk into the response frame (wire minor 2, bounded by
    :data:`~repro.telemetry.collect.MAX_BACKHAUL_SPANS`), so the
    coordinator can assemble one cross-process trace.  Untraced chunks
    never pay for it — their response body stays the bare result list.
    """

    def __init__(
        self,
        backend: str | None = None,
        registry: MetricsRegistry | None = None,
        span_backhaul: bool = True,
    ):
        self.backend_requested = backend if backend is not None else "vectorized"
        if self.backend_requested == "remote":
            # a worker relaying to more workers would recurse
            raise ClusterError("a trial worker cannot use the 'remote' backend")
        self._backend = resolve_trial_backend(self.backend_requested)
        self.registry = registry if registry is not None else get_default_registry()
        self.span_backhaul = span_backhaul
        self._lock = threading.Lock()
        self._started = time.monotonic()
        self._chunks = 0
        self._trials = 0
        self._rejected = 0
        self._trial_errors = 0
        self._backhauled_spans = 0
        self._last_trace_id: str | None = None
        self._draining = False
        #: the daemon's HeartbeatLoop, when registered (set by make_worker)
        self.heartbeat: HeartbeatLoop | None = None
        #: the daemon's sampling profiler (set by make_worker)
        self.profiler: SamplingProfiler | None = None

    def run_chunk(self, data: bytes) -> bytes:
        """Decode one request frame, execute the span, return the response frame.

        :class:`ClusterError` (bad frame) and trial-function exceptions
        propagate to the HTTP layer, which maps them to 400 and 500.
        The frame's propagated trace id (if any) becomes the ambient
        trace for the chunk's span and log lines, and is echoed in the
        response frame.
        """
        try:
            fn, payload, start, stop, trace_id = wire.decode_request(data)
        except ClusterError as exc:
            with self._lock:
                self._rejected += 1
            _log.warning("rejected chunk frame: %s", exc)
            raise
        with self._lock:
            if trace_id is not None:
                self._last_trace_id = trace_id
        capture = (
            _SpanCapture()
            if (self.span_backhaul and trace_id is not None)
            else None
        )
        try:
            # adopting the coordinator's trace id makes this worker's
            # span, metrics, and log lines correlatable with the
            # originating request on the far side of the wire
            with span(
                "worker.chunk",
                trace_id=trace_id,
                registry=self.registry,
                buffer=capture,
                span_range=f"[{start}, {stop})",
                backend=self._backend.effective_name,
            ):
                results = run_trial_span(self._backend, fn, payload, start, stop)
        except Exception as exc:
            with self._lock:
                self._trial_errors += 1
            _log.error(
                "trial function raised in chunk [%d, %d): %s", start, stop, exc,
                extra={"trace_id": trace_id},
            )
            raise
        spans = None
        if capture is not None and capture.spans:
            spans = [
                entry.as_dict()
                for entry in capture.spans[:MAX_BACKHAUL_SPANS]
            ]
        with self._lock:
            self._chunks += 1
            self._trials += stop - start
            if spans:
                self._backhauled_spans += len(spans)
        _log.info(
            "executed chunk [%d, %d) on %s", start, stop,
            self._backend.effective_name, extra={"trace_id": trace_id},
        )
        return wire.encode_response(results, start, stop, trace_id, spans=spans)

    @property
    def draining(self) -> bool:
        """Whether shutdown has begun (``/healthz`` answers 503)."""
        with self._lock:
            return self._draining

    def begin_drain(self) -> None:
        """Flip ``/healthz`` to 503 *before* the sockets close.

        A coordinator probing mid-shutdown sees an explicit "leaving"
        instead of a connection error it must classify, and stops
        scheduling here; chunks already in flight still complete.
        """
        with self._lock:
            self._draining = True

    def health(self) -> dict[str, object]:
        """The ``/healthz`` body: liveness plus compatibility facts."""
        with self._lock:
            status = "draining" if self._draining else "ok"
        return {
            "status": status,
            "protocol": wire.PROTOCOL_VERSION,
            "protocol_minor": wire.PROTOCOL_MINOR,
            "backend": self.backend_requested,
            "backend_effective": self._backend.effective_name,
        }

    def stats(self) -> dict[str, object]:
        """The ``/stats`` body: counters, uptime, last chunk's trace id."""
        with self._lock:
            counters = {
                "chunks": self._chunks,
                "trials": self._trials,
                "rejected_frames": self._rejected,
                "trial_errors": self._trial_errors,
                "backhauled_spans": self._backhauled_spans,
                "backend": self.backend_requested,
                "backend_effective": self._backend.effective_name,
                "uptime_seconds": time.monotonic() - self._started,
                "last_trace_id": self._last_trace_id,
                "draining": self._draining,
            }
        if self.heartbeat is not None:
            counters["registration"] = self.heartbeat.stats()
        if self.profiler is not None:
            counters["profiles"] = {"profiler": self.profiler.stats()}
        return merged_stats(counters)

    def shutdown(self) -> None:
        """Release the local backend's resources (idempotent)."""
        self._backend.shutdown()


class _TrialWorkerHandler(DaemonHandler):
    """HTTP routes over one :class:`TrialWorker`."""

    worker: TrialWorker = None  # type: ignore[assignment]  # set by make_worker
    profile_source: str = "worker"  # refined to worker:<port> by make_worker

    server_version = "RankingFactsWorker/1.0"

    def do_GET(self) -> None:  # noqa: N802 (http.server API)
        path = self.path.partition("?")[0]
        if path == "/healthz":
            # the probe's own latency is a health signal: a loaded
            # worker answers slowly long before it answers wrongly
            started = time.perf_counter()
            body = self.worker.health()
            self._send_json(200 if body["status"] == "ok" else 503, body)
            self.worker.registry.histogram(
                "repro_worker_healthz_seconds",
                "Latency of this worker's own /healthz responses",
            ).observe(time.perf_counter() - started)
        elif path == "/stats":
            self._send_json(200, self.worker.stats())
        elif path == "/debug/profile":
            self._get_debug_profile()
        else:
            self._send_json(404, {"error": f"unknown path {self.path!r}"})

    def _get_debug_profile(self) -> None:
        """``GET /debug/profile?seconds=N&hz=H&format=collapsed|json``.

        The worker half of the fleet-wide profile backhaul: same
        parameters and payload shape as the coordinator's endpoint
        (:mod:`repro.app.server`), so one client can sweep both.  The
        handler thread blocks for the window while the sampler captures
        every *other* thread — chunk execution included.
        """
        profiler = self.worker.profiler
        if profiler is None:
            self._send_json(
                503, {"error": "profiling is not available on this worker"}
            )
            return
        params = parse_qs(self.path.partition("?")[2])
        try:
            seconds = float(params.get("seconds", ["2"])[-1])
            hz = float(params.get("hz", [str(DEFAULT_WINDOW_HZ)])[-1])
        except ValueError as exc:
            self._send_json(400, {"error": f"bad profile parameter: {exc}"})
            return
        fmt = params.get("format", ["json"])[-1]
        if fmt not in ("json", "collapsed"):
            self._send_json(
                400,
                {"error": f"unknown profile format {fmt!r}; use collapsed or json"},
            )
            return
        report = profiler.window(seconds, hz=hz)
        report.source = self.profile_source
        if fmt == "collapsed":
            self._send_bytes(
                200, "text/plain", report.to_collapsed().encode("utf-8")
            )
        else:
            self._send_json(200, report.as_dict())

    def do_POST(self) -> None:  # noqa: N802 (http.server API)
        path = self.path.partition("?")[0]
        if path != "/trials":
            self._send_json(404, {"error": f"unknown POST path {self.path!r}"})
            return
        length = int(self.headers.get("Content-Length") or 0)
        data = self.rfile.read(length) if length > 0 else b""
        try:
            response = self.worker.run_chunk(data)
        except ClusterError as exc:  # rejected frame: refuse, don't guess
            self._send_json(400, {"error": str(exc)})
        except Exception as exc:  # the trial itself raised
            self._send_json(500, {"error": f"{type(exc).__name__}: {exc}"})
        else:
            self._send_bytes(200, "application/octet-stream", response)


class WorkerHandle(DaemonHandle):
    """A running worker daemon plus its thread (context manager)."""

    def __init__(
        self,
        server: DaemonServer,
        worker: TrialWorker,
        heartbeat: HeartbeatLoop | None = None,
    ):
        super().__init__(server)
        self.worker = worker
        self.heartbeat = heartbeat
        #: whether this daemon started the process profiler's continuous
        #: sink (and so must stop it on shutdown); set by make_worker
        self.owns_continuous = False

    def start(self) -> "WorkerHandle":
        """Start serving in the background (and the heartbeat, if any)."""
        super().start()
        if self.heartbeat is not None:
            self.heartbeat.start()
        return self

    def stop(self) -> None:
        """Drain, deregister, stop serving, release the backend (idempotent).

        The order is the graceful-exit protocol: ``/healthz`` flips to
        503 first, then the registry lease is released, and only then
        do the sockets close — a coordinator watching either signal
        stops scheduling here before requests start failing.
        """
        self.worker.begin_drain()
        if self.heartbeat is not None:
            self.heartbeat.stop(deregister=True)
        super().stop()
        if self.owns_continuous and self.worker.profiler is not None:
            self.worker.profiler.stop_continuous()
            self.owns_continuous = False
        self.worker.shutdown()


def make_worker(
    host: str = "127.0.0.1",
    port: int = 0,
    backend: str | None = None,
    registry: MetricsRegistry | None = None,
    register_url: str | None = None,
    advertise: str | None = None,
    heartbeat_ttl: float = DEFAULT_LEASE_TTL,
    span_backhaul: bool = True,
    profile: bool | None = None,
    profile_hz: float | None = None,
) -> WorkerHandle:
    """Bind a worker daemon (port 0 = ephemeral, for tests).

    ``backend`` names the local :class:`TrialBackend` chunks execute on
    (default ``vectorized``; ``serial`` runs the scalar reference loop);
    ``registry`` scopes the daemon's metrics (default: process-wide).
    ``register_url`` points at a :mod:`repro.cluster.registry` service:
    the handle then announces itself on start (as ``advertise`` if
    given — for daemons whose bind address is not how coordinators
    reach them — else its own bound ``host:port``), heartbeats every
    ``heartbeat_ttl / 3`` seconds, and deregisters on stop.  The
    returned handle is a context manager that starts serving on entry.

    ``profile`` (default: the ``REPRO_PROFILE`` environment variable)
    keeps the process profiler's low-rate continuous sampler running;
    ``GET /debug/profile`` windows work either way.
    """
    worker = TrialWorker(
        backend=backend, registry=registry, span_backhaul=span_backhaul,
    )
    worker.profiler = get_default_profiler()
    if profile is None:
        profile = env_profile_enabled()
    owns_continuous = False
    if profile:
        owns_continuous = worker.profiler.start_continuous(
            hz=profile_hz or DEFAULT_CONTINUOUS_HZ
        )
    handler = type("BoundWorkerHandler", (_TrialWorkerHandler,), {"worker": worker})
    server = DaemonServer((host, port), handler)
    handler.profile_source = f"worker:{int(server.server_address[1])}"
    handle = WorkerHandle(server, worker)
    handle.owns_continuous = owns_continuous
    if register_url:
        handle.heartbeat = HeartbeatLoop(
            RegistryClient(register_url),
            advertise or handle.address,
            ttl=heartbeat_ttl,
            meta={
                "role": "worker",
                "protocol": wire.PROTOCOL_VERSION,
                "backend": worker.backend_requested,
            },
        )
        worker.heartbeat = handle.heartbeat  # surfaces in /stats
    return handle


def serve_worker_forever(
    host: str = "127.0.0.1",
    port: int = 8101,
    backend: str | None = None,
    log_level: str | None = None,
    register: str | None = None,
    advertise: str | None = None,
    heartbeat_ttl: float = DEFAULT_LEASE_TTL,
    profile: bool | None = None,
) -> None:
    """Run a worker daemon until interrupted (the CLI's ``worker``).

    ``log_level`` (or ``REPRO_LOG_LEVEL``) turns on structured JSON
    logs on stderr — chunk executions tagged with the coordinator's
    propagated trace ids; unset, the daemon stays as quiet as before.

    ``register`` (a registry URL) enrolls the daemon in a fleet.  Both
    SIGTERM and Ctrl-C exit gracefully: drain (``/healthz`` → 503),
    deregister, then stop — so an orchestrator's ordinary stop signal
    never leaves a stale lease behind.
    """
    log_level = log_level or os.environ.get("REPRO_LOG_LEVEL") or None
    if log_level:
        configure_logging(log_level)
    stop = threading.Event()
    previous = signal.signal(signal.SIGTERM, lambda *_: stop.set())
    try:
        with make_worker(
            host=host, port=port, backend=backend,
            register_url=register, advertise=advertise,
            heartbeat_ttl=heartbeat_ttl, profile=profile,
        ) as handle:
            registered = f", registered at {register}" if register else ""
            print(
                f"Ranking Facts trial worker on {handle.url} "
                f"(backend {handle.worker.backend_requested}{registered}, "
                "Ctrl-C to stop)"
            )
            try:
                stop.wait()
                print("worker draining (SIGTERM)")
            except KeyboardInterrupt:
                print("worker draining (interrupt)")
    finally:
        signal.signal(signal.SIGTERM, previous)


def add_worker_arguments(parser: argparse.ArgumentParser) -> None:
    """The worker daemon's options — shared with ``ranking-facts worker``.

    One source of truth, so the module entry point and the CLI
    subcommand cannot drift apart.
    """
    parser.add_argument("--host", default="127.0.0.1")
    parser.add_argument("--port", type=int, default=8101)
    parser.add_argument(
        "--backend",
        choices=("serial", "vectorized"),
        default="vectorized",
        help="local backend trial chunks execute on (default vectorized; "
        "'serial' is the scalar reference loop)",
    )
    parser.add_argument(
        "--log-level", default=None, metavar="LEVEL",
        help="emit structured JSON logs on stderr at this level (debug, "
        "info, ...); default: the REPRO_LOG_LEVEL environment variable, "
        "else quiet",
    )
    parser.add_argument(
        "--register", default=None, metavar="URL",
        help="registry service to announce this worker to (e.g. "
        "http://127.0.0.1:8100); heartbeats keep the lease alive and "
        "a graceful stop deregisters",
    )
    parser.add_argument(
        "--advertise", default=None, metavar="HOST:PORT",
        help="address to register instead of the bound one (when "
        "coordinators reach this worker through NAT or a proxy)",
    )
    parser.add_argument(
        "--heartbeat-ttl", type=float, default=DEFAULT_LEASE_TTL,
        metavar="SECONDS",
        help="registry lease TTL; heartbeats fire every TTL/3 "
        f"(default {DEFAULT_LEASE_TTL:g})",
    )
    parser.add_argument(
        "--profile", action="store_true", default=None,
        help="keep a low-rate continuous sampling profiler running "
        "(default: the REPRO_PROFILE environment variable); "
        "GET /debug/profile windows work either way",
    )


def main(argv: Sequence[str] | None = None) -> int:
    """``python -m repro.cluster.worker`` entry point."""
    parser = argparse.ArgumentParser(
        prog="repro.cluster.worker",
        description="Run a Ranking Facts Monte-Carlo trial worker daemon",
    )
    add_worker_arguments(parser)
    args = parser.parse_args(argv)
    serve_worker_forever(
        host=args.host, port=args.port, backend=args.backend,
        log_level=args.log_level,
        register=args.register, advertise=args.advertise,
        heartbeat_ttl=args.heartbeat_ttl, profile=args.profile,
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
