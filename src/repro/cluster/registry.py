"""The worker registry: dynamic fleet membership over TTL leases.

Static ``REPRO_TRIAL_WORKERS`` lists freeze the worker set at process
start — a replacement host needs a coordinator restart to join, and a
decommissioned one keeps eating probe timeouts forever.  This module
makes membership a *protocol*: workers announce themselves to a tiny
stdlib-HTTP registry service and keep their entry alive with heartbeat
leases; coordinators poll the live view and reshape their fleet
mid-run.

The service (``ranking-facts registry`` /
``python -m repro.cluster.registry``):

- ``POST /register``    — body ``{"address": "host:port", "ttl": 15,
  "meta": {...}}``; (re-)creates the worker's lease.  Registration is
  idempotent: a worker that lost contact simply registers again.
- ``POST /heartbeat``   — ``{"address": ...}``; renews the lease.  An
  unknown address gets 404, which tells the worker to re-register (the
  registry may have restarted and lost its in-memory table — workers
  are the source of truth about themselves).
- ``POST /deregister``  — ``{"address": ...}``; explicit, graceful
  removal (the worker is draining; don't wait for the TTL).
- ``GET /workers``      — the live membership: every lease whose TTL
  has not lapsed, expired ones pruned (and counted) on read.
- ``GET /healthz`` / ``GET /stats`` — the usual daemon surface.

Client side:

- :class:`RegistryClient` — one registry's HTTP API as methods, every
  failure a :class:`ClusterError`.
- :class:`HeartbeatLoop` — the worker's registration thread: register,
  then beat at ``ttl / 3`` with per-beat jitter (a fleet of workers
  started together must not heartbeat in lockstep), re-register on 404,
  deregister on graceful stop.  ``pause()`` stops beats without
  stopping the worker — the fault injection tests use it to simulate
  heartbeat loss on a live host.

The registry holds *soft* state only: every fact it serves is
re-announced by the workers within one TTL, so a restarted (or
partitioned) registry converges by itself and coordinators keep their
last-known membership in the meantime
(:class:`repro.cluster.coordinator.RemoteTrialBackend`).
"""

from __future__ import annotations

import argparse
import json
import random
import socket
import sys
import threading
import time
from collections.abc import Sequence

from repro.cluster import wire
from repro.cluster.daemon import (
    DaemonHandle,
    DaemonHandler,
    DaemonServer,
    serve_until_stopped,
)
from repro.errors import ClusterError
from repro.telemetry import (
    MetricsRegistry,
    configure_logging,
    get_default_registry,
    get_logger,
    merged_stats,
)

_log = get_logger("cluster.registry")

__all__ = [
    "WorkerRegistry",
    "RegistryClient",
    "HeartbeatLoop",
    "RegistryHandle",
    "make_registry",
    "serve_registry_forever",
    "add_registry_arguments",
    "main",
]

#: default lease time-to-live; a worker missing ~3 beats is dropped
DEFAULT_LEASE_TTL = 15.0


def _check_address(address: object) -> str:
    """Validate a ``host:port`` address; the registry never stores junk."""
    if not isinstance(address, str):
        raise ClusterError(f"worker address must be a string, got {address!r}")
    host, sep, port = address.rpartition(":")
    if not sep or not host:
        raise ClusterError(f"bad worker address {address!r}; expected host:port")
    try:
        int(port)
    except ValueError:
        raise ClusterError(
            f"bad worker address {address!r}; port {port!r} is not a number"
        ) from None
    return address


class _Lease:
    """One worker's registration: identity plus a heartbeat deadline."""

    __slots__ = ("address", "ttl", "meta", "registered_at", "renewed_at", "beats")

    def __init__(self, address: str, ttl: float, meta: dict):
        self.address = address
        self.ttl = ttl
        self.meta = meta
        self.registered_at = time.time()
        self.renewed_at = time.monotonic()
        self.beats = 0

    def expired(self, now: float) -> bool:
        return now - self.renewed_at > self.ttl

    def view(self, now: float) -> dict[str, object]:
        return {
            "address": self.address,
            "ttl": self.ttl,
            "registered_at": self.registered_at,
            "expires_in": max(0.0, self.ttl - (now - self.renewed_at)),
            "beats": self.beats,
            "meta": self.meta,
        }


class WorkerRegistry:
    """The membership table: TTL leases keyed by worker address.

    Pure state machine (no HTTP), so tests and future transports can
    drive it directly.  Expired leases are pruned lazily on every read
    or write — the registry needs no timer thread of its own.
    """

    def __init__(self, registry: MetricsRegistry | None = None):
        self.metrics = registry if registry is not None else get_default_registry()
        self._workers_gauge = self.metrics.gauge(
            "repro_registry_workers", "Live worker leases in the registry"
        )
        # the one count of lease events; stats() reads it back
        self._events = self.metrics.counter(
            "repro_registry_events_total",
            "Registry lease events (register, heartbeat, expire, deregister)",
            tag_names=("event",),
        )
        self._lock = threading.Lock()
        self._leases: dict[str, _Lease] = {}
        self._started = time.monotonic()

    def _prune(self, now: float) -> None:
        """Drop lapsed leases (caller holds the lock)."""
        for address in [
            address
            for address, lease in self._leases.items()
            if lease.expired(now)
        ]:
            del self._leases[address]
            self._events.inc(event="expire")
            _log.warning("lease expired: %s", address)
        self._workers_gauge.set(len(self._leases))

    def register(
        self,
        address: str,
        ttl: float = DEFAULT_LEASE_TTL,
        meta: dict | None = None,
    ) -> dict[str, object]:
        """Create (or replace) a lease; idempotent re-announcement."""
        address = _check_address(address)
        if not (isinstance(ttl, (int, float)) and ttl > 0):
            raise ClusterError(f"lease ttl must be a positive number, got {ttl!r}")
        lease = _Lease(address, float(ttl), dict(meta or {}))
        now = time.monotonic()
        with self._lock:
            self._prune(now)
            known = address in self._leases
            self._leases[address] = lease
            self._events.inc(event="register")
            self._workers_gauge.set(len(self._leases))
        _log.info(
            "worker %s %s (ttl %.1fs)",
            address, "re-registered" if known else "registered", ttl,
        )
        return lease.view(now)

    def heartbeat(self, address: str) -> dict[str, object]:
        """Renew a lease; raises :class:`KeyError` for unknown workers."""
        address = _check_address(address)
        now = time.monotonic()
        with self._lock:
            self._prune(now)
            lease = self._leases.get(address)
            if lease is None:
                raise KeyError(address)
            lease.renewed_at = now
            lease.beats += 1
            self._events.inc(event="heartbeat")
            return lease.view(now)

    def deregister(self, address: str) -> bool:
        """Remove a lease explicitly; True if it existed."""
        address = _check_address(address)
        with self._lock:
            lease = self._leases.pop(address, None)
            if lease is not None:
                self._events.inc(event="deregister")
            self._workers_gauge.set(len(self._leases))
        if lease is not None:
            _log.info("worker %s deregistered", address)
        return lease is not None

    def workers(self) -> list[dict[str, object]]:
        """Every live lease, oldest registration first."""
        now = time.monotonic()
        with self._lock:
            self._prune(now)
            leases = sorted(
                self._leases.values(), key=lambda lease: lease.registered_at
            )
            return [lease.view(now) for lease in leases]

    def stats(self) -> dict[str, object]:
        """Lease-event counts (read from the registry) and live workers."""
        with self._lock:
            self._prune(time.monotonic())
            workers = len(self._leases)
        events = self._events.count
        return merged_stats({
            "workers": workers,
            "registrations": events(event="register"),
            "heartbeats": events(event="heartbeat"),
            "expirations": events(event="expire"),
            "deregistrations": events(event="deregister"),
            "uptime_seconds": time.monotonic() - self._started,
        })


class _RegistryHandler(DaemonHandler):
    """HTTP routes over one :class:`WorkerRegistry`."""

    registry: WorkerRegistry = None  # type: ignore[assignment]  # see make_registry

    server_version = "RankingFactsRegistry/1.0"

    def _partitioned(self) -> bool:
        """Fault injection: a partitioned registry drops connections cold.

        A shutdown (not a close) sends FIN without a response byte and
        leaves the buffered writer empty, so the handler loop winds
        down quietly while the client sees exactly what a network
        partition looks like: EOF with no answer.
        """
        if getattr(self.server, "partitioned", False):
            try:
                self.connection.shutdown(socket.SHUT_RDWR)
            except OSError:
                pass
            self.close_connection = True
            return True
        return False

    def _read_json(self) -> dict:
        try:
            data = json.loads(self._read_body() or b"{}")
        except json.JSONDecodeError as exc:
            raise ClusterError(f"request body is not JSON: {exc}") from exc
        if not isinstance(data, dict):
            raise ClusterError("request body must be a JSON object")
        return data

    def do_GET(self) -> None:  # noqa: N802 (http.server API)
        if self._partitioned():
            return
        path = self.path.partition("?")[0]
        if path == "/healthz":
            self._send_json(200, {
                "status": "ok",
                "role": "registry",
                "protocol": wire.PROTOCOL_VERSION,
            })
        elif path == "/workers":
            workers = self.registry.workers()
            self._send_json(200, {"workers": workers, "count": len(workers)})
        elif path == "/stats":
            self._send_json(200, self.registry.stats())
        else:
            self._send_json(404, {"error": f"unknown path {self.path!r}"})

    def do_POST(self) -> None:  # noqa: N802 (http.server API)
        if self._partitioned():
            return
        path = self.path.partition("?")[0]
        try:
            data = self._read_json()
            if path == "/register":
                lease = self.registry.register(
                    data.get("address"),
                    ttl=data.get("ttl", DEFAULT_LEASE_TTL),
                    meta=data.get("meta"),
                )
                self._send_json(200, lease)
            elif path == "/heartbeat":
                try:
                    lease = self.registry.heartbeat(data.get("address"))
                except KeyError:
                    # the signal to re-register (e.g. after a registry
                    # restart lost the in-memory table)
                    self._send_json(404, {
                        "error": f"unknown worker {data.get('address')!r}; "
                        "register first"
                    })
                else:
                    self._send_json(200, lease)
            elif path == "/deregister":
                removed = self.registry.deregister(data.get("address"))
                self._send_json(200, {"removed": removed})
            else:
                self._send_json(404, {"error": f"unknown POST path {self.path!r}"})
        except ClusterError as exc:
            self._send_json(400, {"error": str(exc)})


class RegistryHandle(DaemonHandle):
    """A running registry daemon plus its thread (context manager)."""

    def __init__(self, server: DaemonServer, registry: WorkerRegistry):
        super().__init__(server)
        self.registry = registry

    def partition(self, partitioned: bool = True) -> None:
        """Fault injection: drop every connection cold while partitioned."""
        self._server.partitioned = partitioned


def make_registry(
    host: str = "127.0.0.1",
    port: int = 0,
    registry: MetricsRegistry | None = None,
) -> RegistryHandle:
    """Bind a registry daemon (port 0 = ephemeral, for tests)."""
    worker_registry = WorkerRegistry(registry=registry)
    handler = type(
        "BoundRegistryHandler", (_RegistryHandler,), {"registry": worker_registry}
    )
    server = DaemonServer((host, port), handler)
    server.partitioned = False  # fault-injection flag; see RegistryHandle
    return RegistryHandle(server, worker_registry)


class RegistryClient:
    """One registry's HTTP API as methods (workers and coordinators).

    Stateless per call (registry traffic is tiny JSON, not worth a
    kept-alive pipe); every transport or protocol problem surfaces as
    :class:`ClusterError` so callers have exactly one failure mode to
    handle.
    """

    def __init__(self, url: str, timeout: float = 5.0):
        self.url = url.rstrip("/")
        if not self.url.startswith(("http://", "https://")):
            self.url = "http://" + self.url
        self.timeout = timeout

    def _call(self, method: str, path: str, body: dict | None = None) -> dict:
        import urllib.error
        import urllib.request

        data = None if body is None else json.dumps(body).encode("utf-8")
        request = urllib.request.Request(
            self.url + path,
            data=data,
            method=method,
            headers={"Content-Type": "application/json"} if data else {},
        )
        try:
            with urllib.request.urlopen(request, timeout=self.timeout) as response:
                payload = json.loads(response.read())
        except urllib.error.HTTPError as exc:
            try:
                detail = json.loads(exc.read()).get("error", "")
            except Exception:
                detail = ""
            raise ClusterError(
                f"registry {self.url}{path} returned HTTP {exc.code}"
                + (f": {detail}" if detail else "")
            ) from exc
        except (OSError, ValueError) as exc:
            raise ClusterError(
                f"registry {self.url} unreachable: {type(exc).__name__}: {exc}"
            ) from exc
        if not isinstance(payload, dict):
            raise ClusterError(f"registry {self.url}{path} sent a non-object body")
        return payload

    def register(
        self,
        address: str,
        ttl: float = DEFAULT_LEASE_TTL,
        meta: dict | None = None,
    ) -> dict:
        """Announce ``address`` with a ``ttl``-second lease (idempotent)."""
        return self._call(
            "POST", "/register",
            {"address": address, "ttl": ttl, "meta": meta or {}},
        )

    def heartbeat(self, address: str) -> dict:
        """Renew ``address``'s lease; ``HTTP 404`` means re-register."""
        return self._call("POST", "/heartbeat", {"address": address})

    def deregister(self, address: str) -> dict:
        """Drop ``address``'s lease now, graceful-exit style (idempotent)."""
        return self._call("POST", "/deregister", {"address": address})

    def workers(self) -> list[dict]:
        """The live lease views (address, ttl, expires_in, beats, meta)."""
        payload = self._call("GET", "/workers")
        workers = payload.get("workers")
        if not isinstance(workers, list):
            raise ClusterError(
                f"registry {self.url}/workers sent no worker list"
            )
        return workers

    def addresses(self) -> tuple[str, ...]:
        """Just the live ``host:port`` strings — the coordinator's view."""
        return tuple(
            str(worker["address"])
            for worker in self.workers()
            if isinstance(worker, dict) and worker.get("address")
        )

    def stats(self) -> dict:
        """The registry daemon's ``/stats`` document."""
        return self._call("GET", "/stats")


class HeartbeatLoop:
    """A worker's registration thread: register, beat, re-register, leave.

    The beat interval is ``ttl / 3`` so a worker survives two lost
    beats, and every sleep is jittered (uniformly ±40%) so a fleet
    booted by one orchestrator does not thunder its heartbeats in
    lockstep.  A beat answered 404 means the registry forgot us
    (restart); the loop re-registers instead of dying.  A beat that
    cannot reach the registry at all is retried sooner (the lease is
    burning down); the worker itself keeps serving chunks throughout —
    membership is advisory, execution is not.
    """

    def __init__(
        self,
        client: RegistryClient,
        address: str,
        ttl: float = DEFAULT_LEASE_TTL,
        meta: dict | None = None,
        rng: random.Random | None = None,
    ):
        self.client = client
        self.address = address
        self.ttl = ttl
        self.meta = dict(meta or {})
        self._rng = rng if rng is not None else random.Random()
        self._stop = threading.Event()
        self._paused = threading.Event()
        self._thread = threading.Thread(
            target=self._run, name=f"heartbeat-{address}", daemon=True
        )
        self._lock = threading.Lock()
        self.beats = 0
        self.reregistrations = 0
        self.errors = 0
        self.last_error: str | None = None

    def _jittered(self, base: float) -> float:
        return base * (0.6 + 0.8 * self._rng.random())

    def start(self) -> "HeartbeatLoop":
        """Register now and start the beat thread; returns ``self``."""
        try:
            self.client.register(self.address, ttl=self.ttl, meta=self.meta)
        except ClusterError as exc:
            # the registry may simply not be up yet; the loop keeps
            # trying — a worker must not die because membership is late
            with self._lock:
                self.errors += 1
                self.last_error = str(exc)
            _log.warning("initial registration failed: %s", exc)
        self._thread.start()
        return self

    def pause(self) -> None:
        """Stop beating without stopping the worker (fault injection)."""
        self._paused.set()

    def resume(self) -> None:
        """Resume beating after :meth:`pause` (re-registers via the 404 path)."""
        self._paused.clear()

    def _run(self) -> None:
        interval = max(self.ttl / 3.0, 0.05)
        while not self._stop.wait(self._jittered(interval)):
            if self._paused.is_set():
                continue
            try:
                self.client.heartbeat(self.address)
                with self._lock:
                    self.beats += 1
            except ClusterError as exc:
                with self._lock:
                    self.errors += 1
                    self.last_error = str(exc)
                if "HTTP 404" in str(exc):
                    # the registry restarted and lost our lease;
                    # re-announce ourselves (workers are the truth)
                    try:
                        self.client.register(
                            self.address, ttl=self.ttl, meta=self.meta
                        )
                        with self._lock:
                            self.reregistrations += 1
                    except ClusterError as exc2:
                        with self._lock:
                            self.last_error = str(exc2)

    def stop(self, deregister: bool = True) -> None:
        """Stop beating; with ``deregister``, leave gracefully too."""
        self._stop.set()
        if self._thread.is_alive():
            self._thread.join(timeout=5)
        if deregister:
            try:
                self.client.deregister(self.address)
            except ClusterError as exc:
                # best effort: the TTL will reap us anyway
                _log.warning("graceful deregistration failed: %s", exc)

    def stats(self) -> dict[str, object]:
        """Beat/re-registration/error counters for ``/stats`` documents."""
        with self._lock:
            return {
                "registry": self.client.url,
                "address": self.address,
                "ttl": self.ttl,
                "beats": self.beats,
                "reregistrations": self.reregistrations,
                "errors": self.errors,
                "last_error": self.last_error,
            }


def serve_registry_forever(
    host: str = "127.0.0.1",
    port: int = 8100,
    log_level: str | None = None,
) -> None:
    """Run a registry daemon until interrupted (the CLI's ``registry``)."""
    import os

    log_level = log_level or os.environ.get("REPRO_LOG_LEVEL") or None
    if log_level:
        configure_logging(log_level)
    handle = make_registry(host=host, port=port)
    serve_until_stopped(
        handle,
        f"Ranking Facts worker registry on {handle.url} "
        "(Ctrl-C or SIGTERM to stop)",
        "registry shutting down",
    )


def add_registry_arguments(parser: argparse.ArgumentParser) -> None:
    """The registry daemon's options — shared with ``ranking-facts registry``."""
    parser.add_argument("--host", default="127.0.0.1")
    parser.add_argument("--port", type=int, default=8100)
    parser.add_argument(
        "--log-level", default=None, metavar="LEVEL",
        help="emit structured JSON logs on stderr at this level (debug, "
        "info, ...); default: the REPRO_LOG_LEVEL environment variable, "
        "else quiet",
    )


def main(argv: Sequence[str] | None = None) -> int:
    """``python -m repro.cluster.registry`` entry point."""
    parser = argparse.ArgumentParser(
        prog="repro.cluster.registry",
        description="Run the Ranking Facts worker registry daemon",
    )
    add_registry_arguments(parser)
    args = parser.parse_args(argv)
    serve_registry_forever(
        host=args.host, port=args.port, log_level=args.log_level
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
