"""The trial coordinator: shard a Monte-Carlo batch across workers.

:class:`RemoteTrialBackend` is a
:class:`~repro.engine.backends.TrialBackend` whose ``run`` splits a
trial batch into contiguous index spans (the same chunking the process
backend uses) and executes them on remote worker daemons
(:mod:`repro.cluster.worker`).  Dispatch is **non-blocking**: every
chunk's request goes on the wire at once (least-loaded worker first)
and a single :class:`~repro.cluster.multiplex.ChunkMultiplexer` poll
loop completes chunks as their responses land — a slow chunk never
serializes behind a fast one, and failover for a dead chunk starts
while the healthy chunks are still streaming.  The scheduling loop
provides the three guarantees a cluster needs:

- **Membership + health probes.**  Workers come from a static
  ``host:port`` list, from a live worker registry
  (:mod:`repro.cluster.registry` — the coordinator polls
  ``GET /workers`` and reshapes its fleet mid-run, so workers join and
  leave without a restart), or both.  A worker is only scheduled onto
  after a successful ``/healthz`` probe that reports *this*
  coordinator's protocol version
  (:data:`repro.cluster.wire.PROTOCOL_VERSION`) — a version-mismatched
  worker is rejected at registration, never sent work.
- **Failure policy.**  Each worker carries a
  :class:`~repro.cluster.policy.CircuitBreaker` driven by one explicit
  :class:`~repro.cluster.policy.FailurePolicy`: failures below the
  threshold delay the next probe by a per-worker *jittered* re-probe
  interval (no probe thundering herd onto a recovering host);
  threshold consecutive failures open the breaker, whose exponential
  backoff must elapse before the half-open state admits a single probe
  chunk that closes it again.  Every run also carries a finite **retry
  budget** — failover retries past it degrade straight to local
  execution with the reason recorded, so a flapping fleet can never
  retry forever.
- **Failover.**  A chunk that fails — connection refused, half-closed
  or reset at dispatch, timeout (slow worker), HTTP error, rejected or
  corrupted frame — marks its worker dead and is immediately retried
  on another live worker; a socket that dies *before any response
  byte* fails over immediately (dead-at-dispatch) instead of burning
  the full chunk timeout.  When
  every worker has been tried (or none is left), the chunk is re-run
  on the **local fallback backend**.  Because every chunk executes its
  trials at their absolute indices (per-trial ``[seed, trial]`` RNG
  streams), a retried or locally recovered chunk returns byte-identical
  results, so the assembled label never depends on *where* a trial ran.
- **Degraded-mode fallback.**  With no live workers (empty registry,
  all probes failing) or unpicklable trial work, the whole batch runs
  on the local backend and :attr:`RemoteTrialBackend.fallback_reason`
  records why — surfaced by ``GET /engine/stats`` alongside the
  dispatch/failover counters from :meth:`RemoteTrialBackend.stats`.

A genuine *trial* bug is distinguished from worker death by the
worker's status code: HTTP 500 means "the trial function itself
raised" (:mod:`repro.cluster.worker`), so the chunk skips failover —
every other worker would fail identically — and re-runs locally, where
the real error re-raises with its traceback; the worker stays alive
and unblamed.  Everything else (connection failure, timeout, 4xx/5xx
transport trouble) is treated as worker death and failed over.

Worker addresses come from ``REPRO_TRIAL_WORKERS`` (comma-separated
``host:port``, :func:`workers_from_env` — the server path), a file
(:func:`workers_from_file` — the CLI's ``--workers-from``), or a
registry URL (``--registry`` / ``REPRO_TRIAL_REGISTRY`` — dynamic
membership, no static list at all).
"""

from __future__ import annotations

import http.client
import json
import math
import os
import socket
import threading
import time
from collections.abc import Sequence
from typing import Any

from repro.cluster import wire
from repro.cluster.multiplex import (
    ChunkMultiplexer,
    ChunkStream,
    encode_http_request,
)
from repro.cluster.policy import BREAKER_STATES, CircuitBreaker, FailurePolicy
from repro.cluster.registry import RegistryClient
from repro.engine.backends import (
    TrialBackend,
    TrialFn,
    resolve_trial_backend,
    run_trial_span,
)
from repro.errors import ClusterError
from repro.telemetry import (
    MetricsRegistry,
    Span,
    clamp_tags,
    current_trace_id,
    get_default_registry,
    get_logger,
    get_trace_buffer,
    merged_stats,
    new_span_id,
    revive_spans,
    span,
)

_log = get_logger("cluster.coordinator")

__all__ = [
    "WorkerClient",
    "RemoteTrialBackend",
    "workers_from_env",
    "workers_from_file",
]

#: environment variable naming the cluster (comma-separated host:port)
WORKERS_ENV_VAR = "REPRO_TRIAL_WORKERS"

#: environment variable naming the worker registry (URL)
REGISTRY_ENV_VAR = "REPRO_TRIAL_REGISTRY"


class _TrialFaultError(ClusterError):
    """The *trial function* raised on a worker (HTTP 500).

    Distinct from worker death: retrying the same chunk on another
    worker would just re-raise the same bug, so the scheduler skips
    failover, leaves the worker alive, and re-runs the chunk locally —
    where a genuine bug raises with its real traceback (and a
    worker-only fault, e.g. an OOM kill, still yields results).
    """


def workers_from_env(env_var: str = WORKERS_ENV_VAR) -> tuple[str, ...]:
    """Worker addresses from the environment (empty when unset)."""
    raw = os.environ.get(env_var, "")
    return tuple(part.strip() for part in raw.split(",") if part.strip())


def workers_from_file(path: str) -> tuple[str, ...]:
    """Worker addresses from a file: one per line (or comma-separated).

    Blank lines and ``#`` comments are ignored; raises
    :class:`ClusterError` when the file is unreadable or names no
    workers at all (a misconfigured cluster should fail loudly, not
    silently run everything locally).
    """
    try:
        with open(path, encoding="utf-8") as handle:
            text = handle.read()
    except OSError as exc:
        raise ClusterError(f"cannot read workers file {path!r}: {exc}") from exc
    addresses: list[str] = []
    for line in text.splitlines():
        line = line.partition("#")[0]
        addresses.extend(part.strip() for part in line.split(",") if part.strip())
    if not addresses:
        raise ClusterError(f"workers file {path!r} names no workers")
    return tuple(addresses)


def _chunk_spans(trials: int, workers: int, chunk_size: int | None) -> list[tuple[int, int]]:
    """Split ``range(trials)`` into contiguous spans, submission-ordered.

    The default aims for a few chunks per worker: large enough that one
    request covers many trials, small enough that a slow chunk does not
    straggle the whole batch (and a failed one re-runs little work).
    """
    if chunk_size is None:
        chunk_size = max(1, math.ceil(trials / (workers * 4)))
    return [
        (start, min(start + chunk_size, trials))
        for start in range(0, trials, chunk_size)
    ]


class WorkerClient:
    """HTTP client for one worker daemon, over one persistent connection.

    The connection is opened lazily, kept alive across chunks (the
    workers speak HTTP/1.1), and serialized by a lock — chunk payloads
    are large enough that one pipe per worker is the right shape, and
    the coordinator's scheduler already spreads concurrent chunks over
    *different* workers.  A request that fails on a previously-good
    connection is retried once on a fresh one (a worker restart or an
    idle-timeout close is not worker death); :attr:`reconnects` counts
    those re-opens for the ``trial_cluster`` stats.

    Every real failure mode — unreachable host, timeout, HTTP error
    status, malformed response frame — surfaces as
    :class:`ClusterError`, which is the signal the coordinator's
    scheduler fails over on.
    """

    def __init__(self, address: str, timeout: float = 30.0, probe_timeout: float = 5.0):
        host, sep, port = address.rpartition(":")
        if not sep or not host:
            raise ClusterError(
                f"bad worker address {address!r}; expected host:port"
            )
        try:
            self.port = int(port)
        except ValueError:
            raise ClusterError(
                f"bad worker address {address!r}; port {port!r} is not a number"
            ) from None
        self.host = host
        self.address = address
        self.timeout = timeout
        self.probe_timeout = probe_timeout
        self.reconnects = 0
        self._connection: http.client.HTTPConnection | None = None
        self._connection_lock = threading.Lock()
        # kept-alive sockets for the multiplexed chunk path; the probe
        # path keeps its own http.client connection above
        self._stream_sockets: list[socket.socket] = []

    #: pooled keep-alive sockets per worker; beyond this, extras close
    STREAM_POOL_SIZE = 8

    def take_stream_socket(self) -> "socket.socket | None":
        """A pooled keep-alive socket for a chunk stream, if any."""
        with self._connection_lock:
            if self._stream_sockets:
                return self._stream_sockets.pop()
        return None

    def store_stream_socket(self, sock: socket.socket) -> None:
        """Return a reusable socket after a completed chunk stream."""
        with self._connection_lock:
            if len(self._stream_sockets) < self.STREAM_POOL_SIZE:
                self._stream_sockets.append(sock)
                return
        try:
            sock.close()
        except OSError:
            pass

    def _connect(self, timeout: float) -> http.client.HTTPConnection:
        """The live connection (opened on demand), at ``timeout``."""
        if self._connection is None:
            self._connection = http.client.HTTPConnection(
                self.host, self.port, timeout=timeout
            )
        elif self._connection.sock is not None:
            # reused connection: apply this request's timeout to the
            # existing socket (probe vs chunk timeouts differ)
            self._connection.sock.settimeout(timeout)
        else:
            self._connection.timeout = timeout
        return self._connection

    def _drop_connection(self) -> None:
        if self._connection is not None:
            try:
                self._connection.close()
            except Exception:
                pass
            self._connection = None

    def close(self) -> None:
        """Drop the persistent connection (safe to call any time)."""
        with self._connection_lock:
            self._drop_connection()
            for sock in self._stream_sockets:
                try:
                    sock.close()
                except OSError:
                    pass
            self._stream_sockets.clear()

    def _request(
        self, method: str, path: str, body: bytes | None, timeout: float
    ) -> tuple[int, bytes]:
        headers = (
            {"Content-Type": "application/octet-stream"} if body is not None else {}
        )
        with self._connection_lock:
            reused = self._connection is not None
            for attempt in (1, 2):
                connection = self._connect(timeout)
                try:
                    connection.request(method, path, body=body, headers=headers)
                    response = connection.getresponse()
                    payload = response.read()
                except Exception as exc:
                    self._drop_connection()
                    # a stale kept-alive connection (worker restarted,
                    # idle close) fails on reuse; one fresh attempt
                    # distinguishes that from a genuinely dead worker.
                    # NOT on timeout: a slow worker is already running
                    # the chunk — re-sending it would double the
                    # failover latency on the overloaded host
                    if (
                        attempt == 1
                        and reused
                        and not isinstance(exc, TimeoutError)
                    ):
                        self.reconnects += 1
                        reused = False
                        continue
                    raise ClusterError(
                        f"worker {self.address} unreachable: "
                        f"{type(exc).__name__}: {exc}"
                    ) from exc
                if response.will_close:
                    self._drop_connection()
                return response.status, payload
        raise AssertionError("unreachable")  # pragma: no cover

    def probe(self) -> dict[str, object]:
        """``GET /healthz``; rejects protocol-mismatched workers.

        Returns the health document of a live, compatible worker;
        raises :class:`ClusterError` for anything else.
        """
        status, raw = self._request("GET", "/healthz", None, self.probe_timeout)
        if status != 200:
            raise ClusterError(
                f"worker {self.address} health probe returned HTTP {status}"
            )
        try:
            health = json.loads(raw)
        except json.JSONDecodeError as exc:
            raise ClusterError(
                f"worker {self.address} health probe is not JSON: {exc}"
            ) from exc
        if health.get("status") != "ok":
            raise ClusterError(
                f"worker {self.address} reports status {health.get('status')!r}"
            )
        protocol = health.get("protocol")
        if protocol != wire.PROTOCOL_VERSION:
            raise ClusterError(
                f"worker {self.address} speaks protocol v{protocol}, "
                f"coordinator speaks v{wire.PROTOCOL_VERSION}; rejected"
            )
        return health

    def run_chunk(
        self, body: bytes, start: int, stop: int, trace_id: "str | None" = None
    ) -> list:
        """``POST /trials`` for span ``[start, stop)``; verified results.

        ``trace_id`` is stamped into the request frame so the worker's
        logs and metrics correlate with the originating request.
        """
        status, raw = self._request(
            "POST",
            "/trials",
            wire.encode_request(body, start, stop, trace_id),
            self.timeout,
        )
        if status != 200:
            try:
                detail = json.loads(raw).get("error", "")
            except Exception:
                detail = raw[:200].decode("utf-8", "replace")
            message = (
                f"worker {self.address} failed chunk [{start}, {stop}): "
                f"HTTP {status}: {detail}"
            )
            # 500 is the worker's "the trial function itself raised"
            # signal (worker.py) — not evidence the worker is unhealthy
            if status == 500:
                raise _TrialFaultError(message)
            raise ClusterError(message)
        return wire.decode_response(raw, start, stop)


class _WorkerSlot:
    """One registered worker's scheduling state (guarded by the backend lock)."""

    __slots__ = (
        "client", "alive", "last_error", "breaker",
        "inflight", "chunks", "failures", "source", "retired",
    )

    def __init__(
        self,
        client: WorkerClient,
        breaker: CircuitBreaker,
        source: str = "static",
    ):
        self.client = client
        self.alive = False  # probed before first use
        self.last_error: str | None = None
        self.breaker = breaker  # per-worker failure policy state
        self.inflight = 0
        self.chunks = 0
        self.failures = 0
        self.source = source  # "static" or "registry"
        self.retired = False  # registry says gone; drop when drained


class _ChunkTask:
    """One span's scheduling state while it is in the multiplexer."""

    __slots__ = (
        "index", "start", "stop", "tried", "stale_retried", "slot",
        "attempt_span", "attempts",
    )

    def __init__(self, index: int, start: int, stop: int):
        self.index = index
        self.start = start
        self.stop = stop
        self.tried: set[int] = set()  # worker slots that failed this chunk
        self.stale_retried = False  # one fresh-socket retry per chunk
        self.slot: _WorkerSlot | None = None  # where it is running now
        self.attempt_span: Span | None = None  # the in-flight attempt's span
        self.attempts = 0  # attempt ordinal (retries become sibling spans)


class RemoteTrialBackend:
    """Monte-Carlo trials sharded across worker daemons, with failover.

    Parameters
    ----------
    workers:
        Static ``host:port`` addresses to register.  An empty fleet is
        legal: every run falls back to the local backend with the
        reason recorded (so ``--trial-backend remote`` without a
        cluster degrades instead of failing).
    local:
        The fallback :class:`TrialBackend` (or backend name) used when
        the cluster is empty/degraded and for chunks no worker could
        complete.  Default ``vectorized``.
    timeout:
        Per-chunk request timeout in seconds; a slower worker is
        treated as dead and its chunk fails over.
    probe_timeout:
        Health-probe timeout in seconds.
    chunk_size:
        Trials per chunk; default a few chunks per live worker
        (failover granularity vs per-chunk HTTP overhead).
    reprobe_interval:
        Base seconds between health probes of a *dead* worker —
        jittered per worker and grown exponentially by the breaker (see
        ``policy``); kept as its own argument because it is the knob
        every deployment tunes first.  Ignored when ``policy`` is
        given.
    registry:
        The :class:`~repro.telemetry.MetricsRegistry` receiving the
        coordinator's dispatch/failover latency histograms, breaker
        state gauges, and retry counters (default: the process-wide
        registry).  Every chunk attempt observes
        ``repro_cluster_chunk_seconds{worker, outcome}``.
    registry_url:
        A worker registry (:mod:`repro.cluster.registry`) to poll for
        live membership — workers join and leave without a coordinator
        restart.  Composes with ``workers``: static addresses stay
        pinned, registry-sourced ones follow the lease table.
    membership_interval:
        Minimum seconds between registry polls (also the staleness
        bound on the fleet view).  When every known worker is
        exhausted mid-run, the coordinator polls again ahead of
        schedule so a just-registered replacement can pick up the
        remaining chunks.
    policy:
        The :class:`~repro.cluster.policy.FailurePolicy` driving every
        per-worker breaker and the per-run retry budget.  Default: a
        policy whose re-probe interval is ``reprobe_interval``.
    """

    name = "remote"

    def __init__(
        self,
        workers: Sequence[str] = (),
        local: TrialBackend | str | None = None,
        timeout: float = 30.0,
        probe_timeout: float = 5.0,
        chunk_size: int | None = None,
        reprobe_interval: float = 10.0,
        registry: MetricsRegistry | None = None,
        registry_url: str | None = None,
        membership_interval: float = 1.0,
        policy: FailurePolicy | None = None,
    ):
        if chunk_size is not None and chunk_size < 1:
            raise ClusterError(f"chunk_size must be >= 1, got {chunk_size}")
        self.registry = registry if registry is not None else get_default_registry()
        self._chunk_seconds = self.registry.histogram(
            "repro_cluster_chunk_seconds",
            "Latency of one chunk attempt, per worker and outcome "
            "(ok, failed, trial_fault)",
            tag_names=("worker", "outcome"),
        )
        self._breaker_gauge = self.registry.gauge(
            "repro_cluster_breaker_state",
            "Circuit breaker state per worker "
            "(0 closed, 1 open, 2 half-open)",
            tag_names=("worker",),
        )
        self._breaker_transitions = self.registry.counter(
            "repro_cluster_breaker_transitions_total",
            "Circuit breaker transitions per worker and target state",
            tag_names=("worker", "state"),
        )
        self._retries_counter = self.registry.counter(
            "repro_cluster_retries_total",
            "Failover retries spent against the per-run retry budget",
        )
        self.policy = (
            policy
            if policy is not None
            else FailurePolicy(reprobe_interval=reprobe_interval)
        )
        self._timeout = timeout
        self._probe_timeout = probe_timeout
        self._slots = [
            self._make_slot(address, source="static") for address in workers
        ]
        self._registry_client = (
            RegistryClient(registry_url, timeout=probe_timeout)
            if registry_url
            else None
        )
        self._membership_interval = membership_interval
        self._last_membership_poll = float("-inf")
        self._membership_error: str | None = None
        self._membership_polls = 0
        self._membership_poll_failures = 0
        self._workers_joined = 0
        self._workers_left = 0
        if local is None or isinstance(local, str):
            self._local = resolve_trial_backend(local or "vectorized")
        else:
            self._local = local
        self._chunk_size = chunk_size
        self._lock = threading.Lock()
        self.fallback_reason: str | None = None  # read by LabelExecutor.stats
        self._runs = 0
        self._remote_runs = 0
        self._local_runs = 0
        self._chunks_remote = 0
        self._chunk_failures = 0
        self._chunks_failed_over = 0
        self._chunks_recovered_locally = 0
        self._retries_spent = 0
        self._budget_exhausted_runs = 0

    def _make_slot(self, address: str, source: str) -> _WorkerSlot:
        client = WorkerClient(address, self._timeout, self._probe_timeout)

        def note_transition(state: str) -> None:
            self._breaker_gauge.set(
                BREAKER_STATES.index(state), worker=address
            )
            self._breaker_transitions.inc(worker=address, state=state)

        breaker = CircuitBreaker(
            self.policy, seed=address, on_transition=note_transition
        )
        # seed the gauge so healthy workers show a (closed) series too —
        # an absent series is indistinguishable from an unmonitored worker
        self._breaker_gauge.set(BREAKER_STATES.index("closed"), worker=address)
        return _WorkerSlot(client, breaker, source=source)

    # -- membership -----------------------------------------------------------

    def register(self, address: str) -> None:
        """Pin a worker at runtime (probed before first use)."""
        slot = self._make_slot(address, source="static")
        with self._lock:
            self._slots.append(slot)

    def _refresh_membership(self, desperate: bool = False) -> None:
        """Reconcile the slot table with the worker registry, if any.

        Called at the start of every run and — ``desperate`` — from the
        failover path once every known worker has been tried, so a
        replacement that registered seconds ago can still save the
        run.  Throttled by ``membership_interval`` (a tighter floor
        when desperate); a poll that fails leaves the last-known
        membership in place, because a partitioned registry must
        degrade the fleet view, not the fleet.
        """
        client = self._registry_client
        if client is None:
            return
        now = time.monotonic()
        interval = (
            min(0.25, self._membership_interval)
            if desperate
            else self._membership_interval
        )
        with self._lock:
            if now - self._last_membership_poll < interval:
                return
            self._last_membership_poll = now
        try:
            addresses = set(client.addresses())
        except ClusterError as exc:
            with self._lock:
                self._membership_polls += 1
                self._membership_poll_failures += 1
                self._membership_error = str(exc)
            _log.warning("registry poll failed; keeping last membership: %s", exc)
            return
        to_close: list[WorkerClient] = []
        with self._lock:
            self._membership_polls += 1
            self._membership_error = None
            known = {slot.client.address for slot in self._slots}
            for address in sorted(addresses - known):
                self._slots.append(self._make_slot(address, source="registry"))
                self._workers_joined += 1
                _log.info("worker %s joined from the registry", address)
            for slot in list(self._slots):
                if slot.source != "registry" or slot.client.address in addresses:
                    continue
                if slot.inflight > 0:
                    slot.retired = True  # drained by _release_slot
                else:
                    self._slots.remove(slot)
                    to_close.append(slot.client)
                self._workers_left += 1
                _log.info("worker %s left the registry", slot.client.address)
        for client_ in to_close:
            client_.close()

    def _release_slot(self, slot: _WorkerSlot) -> None:
        """Drop one in-flight count; reap the slot if it was retired.

        Caller must hold the lock.
        """
        slot.inflight -= 1
        if slot.retired and slot.inflight <= 0 and slot in self._slots:
            self._slots.remove(slot)

    def _live_slots(self) -> list[_WorkerSlot]:
        """Refresh membership, probe what the policy allows, return the
        schedulable workers.

        Live (probed, breaker closed) workers are trusted until a chunk
        fails on them.  Failed ones are re-probed on the breaker's
        schedule — jittered per worker below the threshold, exponential
        backoff once the breaker opens — so restarted daemons rejoin
        without any down host being able to stall every run, and no
        recovering host takes a synchronized probe herd.
        """
        self._refresh_membership()
        live: list[_WorkerSlot] = []
        for slot in list(self._slots):
            with self._lock:
                if slot.retired:
                    continue
                if slot.alive and slot.breaker.allows_dispatch():
                    live.append(slot)
                    continue
                if not slot.breaker.try_acquire_probe():
                    continue  # backing off; skip this run
            try:
                slot.client.probe()
            except ClusterError as exc:
                with self._lock:
                    slot.last_error = str(exc)
                    slot.breaker.record_failure()
                continue
            with self._lock:
                slot.alive = True
                slot.last_error = None
                if slot.breaker.state == "closed":
                    # recovered below the threshold: clean slate.  A
                    # half-open breaker stays half-open — only its
                    # probe *chunk* may close it.
                    slot.breaker.record_success()
            live.append(slot)
        return live

    def _pick_worker(self, exclude: set[int]) -> _WorkerSlot | None:
        """The least-loaded schedulable worker not yet tried for this chunk.

        Breaker-closed workers share the load; a half-open worker is
        used only when no closed one remains, and then for exactly one
        probe chunk — its recovery must be tested without betting the
        whole run on it.
        """
        with self._lock:
            candidates = [
                slot
                for slot in self._slots
                if slot.alive
                and not slot.retired
                and id(slot) not in exclude
                and slot.breaker.allows_dispatch()
            ]
            if candidates:
                chosen = min(candidates, key=lambda slot: slot.inflight)
                chosen.inflight += 1
                return chosen
            for slot in self._slots:
                if (
                    slot.alive
                    and not slot.retired
                    and id(slot) not in exclude
                    and slot.breaker.try_acquire_half_open_chunk()
                ):
                    slot.inflight += 1
                    return slot
            return None

    # -- execution ------------------------------------------------------------

    def _run_local(
        self, fn: TrialFn, payload: Any, trials: int, reason: str
    ) -> list[Any]:
        with self._lock:
            self.fallback_reason = reason
            self._local_runs += 1
        return self._local.run(fn, payload, trials)

    def _run_chunks(
        self,
        body: bytes,
        fn: TrialFn,
        payload: Any,
        spans: Sequence[tuple[int, int]],
        run_state: dict[str, int],
        trace_id: "str | None" = None,
        parent_span: "Span | None" = None,
    ) -> list[list[Any]]:
        """Every span at once through the multiplexer, with failover.

        All spans are dispatched up front (least-loaded worker first,
        several concurrent streams per worker — the daemons are
        threaded), then one selector loop completes them in whatever
        order responses land.  A failed chunk redispatches from inside
        the loop, so failover overlaps the still-running chunks instead
        of waiting behind them.  Spans no worker could complete (and
        trial faults) are re-run locally after the loop, at their
        absolute indices.

        ``trace_id`` travels explicitly: it is stamped into each wire
        frame so worker telemetry correlates with the originating
        request.  ``parent_span`` (the ``cluster.dispatch`` span opened
        by :meth:`run`) parents one ``cluster.chunk`` span per *attempt*
        — retries and failovers become sibling spans tagged with the
        failure class — and the worker spans backhauled in each chunk
        response are revived under their attempt's span, so the whole
        cross-process trace assembles on this side of the wire.
        """
        results: dict[int, list[Any]] = {}
        # (index, start, stop) spans destined for the local fallback
        local_spans: list[tuple[int, int, int]] = []
        mux = ChunkMultiplexer()
        completed: list[ChunkStream] = []
        ring = get_trace_buffer()

        def start_attempt(task: _ChunkTask, slot: _WorkerSlot) -> None:
            client = slot.client
            sock = client.take_stream_socket()
            frame = wire.encode_request(body, task.start, task.stop, trace_id)
            if parent_span is not None:
                task.attempts += 1
                task.attempt_span = Span(
                    "cluster.chunk",
                    trace_id=parent_span.trace_id,
                    span_id=new_span_id(),
                    parent_id=parent_span.span_id,
                    tags=clamp_tags({
                        "worker": client.address,
                        "chunk": f"[{task.start}, {task.stop})",
                        "attempt": task.attempts,
                    }),
                )
            stream = ChunkStream(
                client.host,
                client.port,
                encode_http_request(client.host, client.port, "/trials", frame),
                timeout=client.timeout,
                sock=sock,
                reused=sock is not None,
                context=task,
            )
            task.slot = slot
            if mux.submit(stream):  # failed synchronously (e.g. refused)
                completed.append(stream)

        def finish_attempt(
            task: _ChunkTask,
            stream: ChunkStream,
            outcome: str,
            failure_class: "str | None" = None,
        ) -> "Span | None":
            """Close the in-flight attempt's span and record it."""
            attempt = task.attempt_span
            task.attempt_span = None
            if attempt is None:
                return None
            attempt.duration = max(0.0, time.perf_counter() - stream.started)
            attempt.tags["outcome"] = outcome
            if failure_class is not None:
                attempt.status = "error"
                attempt.tags["failure_class"] = failure_class
                if stream.error is not None:
                    attempt.error = str(stream.error)[:200]
            ring.record(attempt)
            return attempt

        def recover_locally(task: _ChunkTask, reason: str | None = None) -> None:
            with self._lock:
                self._chunks_recovered_locally += 1
                run_state["local"] += 1
                if reason is not None:
                    self.fallback_reason = reason
                elif task.tried:
                    self.fallback_reason = (
                        f"chunk [{task.start}, {task.stop}) failed on "
                        f"{len(task.tried)} worker(s); re-run locally"
                    )
            if task.tried:
                _log.warning(
                    "chunk [%d, %d) exhausted %d worker(s); recovering locally",
                    task.start, task.stop, len(task.tried),
                    extra={"trace_id": trace_id},
                )
            local_spans.append((task.index, task.start, task.stop))

        def dispatch(task: _ChunkTask) -> None:
            if task.tried:  # a failover retry, not the first attempt
                if run_state["budget"] <= 0:
                    # the run's retry budget is spent: degrade to local
                    # execution NOW with the reason recorded, instead of
                    # cycling a flapping fleet forever
                    run_state["budget_exhausted"] = True
                    recover_locally(
                        task,
                        reason=(
                            f"retry budget exhausted after "
                            f"{run_state['retries']} failover retr"
                            f"{'y' if run_state['retries'] == 1 else 'ies'}; "
                            f"chunk [{task.start}, {task.stop}) re-run locally"
                        ),
                    )
                    return
                run_state["budget"] -= 1
                run_state["retries"] += 1
                self._retries_counter.inc()
            slot = self._pick_worker(exclude=task.tried)
            if slot is None and self._registry_client is not None:
                # every known worker is dead or tried — a replacement
                # may have registered since the run began; look once
                self._refresh_membership(desperate=True)
                self._live_slots()  # probe whatever just joined
                slot = self._pick_worker(exclude=task.tried)
            if slot is None:
                recover_locally(task)
                return
            start_attempt(task, slot)

        def finish(stream: ChunkStream) -> None:
            task: _ChunkTask = stream.context
            slot = task.slot
            address = slot.client.address
            if stream.state == "failed" and stream.stale and not task.stale_retried:
                # a kept-alive socket died before any response byte: a
                # worker restart or idle close, not worker death — one
                # transparent retry on a fresh socket, worker unblamed
                finish_attempt(task, stream, "stale_retry", "stale")
                task.stale_retried = True
                slot.client.reconnects += 1
                start_attempt(task, slot)
                return
            error: ClusterError | None = stream.error
            trial_fault = False
            backhauled: list = []
            if error is None:
                try:
                    if stream.status == 500:
                        # the worker's "the trial function itself raised"
                        # signal (worker.py) — not worker ill health
                        raise _TrialFaultError(
                            self._chunk_error_detail(stream, task, address)
                        )
                    if stream.status != 200:
                        raise ClusterError(
                            self._chunk_error_detail(stream, task, address)
                        )
                    results[task.index], backhauled = wire.decode_response_spans(
                        stream.body, task.start, task.stop
                    )
                except _TrialFaultError as exc:
                    trial_fault = True
                    error = exc
                except ClusterError as exc:
                    error = exc
            if trial_fault:
                finish_attempt(task, stream, "trial_fault", "trial_fault")
                # every other worker would fail identically, so skip
                # failover, leave the worker alive, and re-run locally —
                # a genuine bug re-raises there with its real traceback
                self._chunk_seconds.observe(
                    time.perf_counter() - stream.started,
                    worker=address, outcome="trial_fault",
                )
                if stream.reusable:
                    slot.client.store_stream_socket(stream.detach_socket())
                else:
                    stream.close()
                with self._lock:
                    self._release_slot(slot)
                    # a 500 is a *responsive* worker reporting someone
                    # else's bug; its breaker heals like any success
                    slot.breaker.record_success()
                recover_locally(task)
                _log.warning(
                    "trial fault on %s for chunk [%d, %d); re-running locally",
                    address, task.start, task.stop,
                    extra={"trace_id": trace_id},
                )
                return
            if error is not None:
                finish_attempt(
                    task, stream, "failed", stream.failure_class or "error"
                )
                stream.close()
                self._chunk_seconds.observe(
                    time.perf_counter() - stream.started,
                    worker=address, outcome="failed",
                )
                task.tried.add(id(slot))
                with self._lock:
                    self._release_slot(slot)
                    slot.alive = False
                    slot.last_error = str(error)
                    slot.failures += 1
                    slot.breaker.record_failure()
                    self._chunk_failures += 1
                _log.warning(
                    "chunk [%d, %d) failed on %s (%s); failing over: %s",
                    task.start, task.stop, address,
                    stream.failure_class or "error", error,
                    extra={"trace_id": trace_id},
                )
                dispatch(task)
                return
            attempt = finish_attempt(task, stream, "ok")
            if attempt is not None and backhauled:
                # the worker's spans, re-parented under this attempt so
                # the cross-process tree connects; the ring's listeners
                # (the trace collector) see them like any local span
                for revived in revive_spans(
                    backhauled,
                    trace_id=attempt.trace_id,
                    parent_id=attempt.span_id,
                    extra_tags={"worker": address},
                ):
                    ring.record(revived)
            self._chunk_seconds.observe(
                time.perf_counter() - stream.started,
                worker=address, outcome="ok",
            )
            if stream.reusable:
                slot.client.store_stream_socket(stream.detach_socket())
            else:
                stream.close()
            with self._lock:
                self._release_slot(slot)
                slot.chunks += 1
                slot.breaker.record_success()
                self._chunks_remote += 1
                run_state["remote"] += 1
                if task.tried:
                    self._chunks_failed_over += 1
            _log.info(
                "chunk [%d, %d) completed on %s",
                task.start, task.stop, address,
                extra={"trace_id": trace_id},
            )

        try:
            for index, (start, stop) in enumerate(spans):
                dispatch(_ChunkTask(index, start, stop))
            while completed or mux.active:
                if not completed:
                    completed.extend(mux.poll())
                while completed:
                    finish(completed.pop())
        finally:
            mux.close()
        # local recovery runs after the wire work so a re-raising trial
        # fault cannot strand still-registered sockets in the selector
        for index, start, stop in local_spans:
            with span(
                "cluster.chunk.local",
                registry=self.registry,
                chunk=f"[{start}, {stop})",
            ):
                results[index] = run_trial_span(
                    self._local, fn, payload, start, stop
                )
        return [results[index] for index in range(len(spans))]

    @staticmethod
    def _chunk_error_detail(
        stream: ChunkStream, task: _ChunkTask, address: str
    ) -> str:
        try:
            detail = json.loads(stream.body).get("error", "")
        except Exception:
            detail = stream.body[:200].decode("utf-8", "replace")
        return (
            f"worker {address} failed chunk [{task.start}, {task.stop}): "
            f"HTTP {stream.status}: {detail}"
        )

    def run(self, fn: TrialFn, payload: Any, trials: int) -> list[Any]:
        """Shard the batch across live workers; results in trial order."""
        with self._lock:
            self._runs += 1
        if trials <= 0:
            return []
        # captured here, on the submitting thread: the chunk pool's
        # threads don't inherit contextvars, so the trace id travels as
        # an explicit argument into each chunk (and onto the wire)
        trace_id = current_trace_id()
        live = self._live_slots()
        if not live:
            reason = (
                "no workers configured"
                if not self._slots
                else "no live workers (all probes failed)"
            )
            return self._run_local(fn, payload, trials, reason)
        try:
            body = wire.encode_trial_work(fn, payload)
        except ClusterError as exc:
            return self._run_local(fn, payload, trials, str(exc))
        spans = _chunk_spans(trials, len(live), self._chunk_size)
        run_state = {  # this run's chunk outcomes and retry budget
            "remote": 0,
            "local": 0,
            "retries": 0,
            "budget": self.policy.budget_for(len(spans)),
            "budget_exhausted": False,
        }
        # one dispatch span covers the sharded run; per-attempt chunk
        # spans (and the worker spans each response backhauls) hang off
        # it, so a request's waterfall shows exactly where trials ran
        with span(
            "cluster.dispatch",
            trace_id=trace_id,
            registry=self.registry,
            trials=trials,
            chunks=len(spans),
            workers=len(live),
        ) as dispatch_span:
            chunks = self._run_chunks(
                body, fn, payload, spans, run_state, trace_id,
                parent_span=dispatch_span,
            )
        with self._lock:
            # a "remote" run must mean trials actually crossed the wire;
            # a batch whose every chunk was recovered locally counts local
            if run_state["remote"] > 0:
                self._remote_runs += 1
            else:
                self._local_runs += 1
            self._retries_spent += run_state["retries"]
            if run_state["budget_exhausted"]:
                self._budget_exhausted_runs += 1
        results: list[Any] = []
        for chunk in chunks:  # span order == trial order
            results.extend(chunk)
        return results

    # -- observability and lifecycle ------------------------------------------

    def stats(self) -> dict[str, object]:
        """Dispatch/failover counters plus per-worker registry state.

        Merged into ``GET /engine/stats`` by
        :meth:`repro.engine.executor.LabelExecutor.stats`.
        """
        with self._lock:
            stats = merged_stats(
                {
                    "workers_configured": len(self._slots),
                    "workers_alive": sum(slot.alive for slot in self._slots),
                    "runs": self._runs,
                    "remote_runs": self._remote_runs,
                    "local_runs": self._local_runs,
                    "chunks_remote": self._chunks_remote,
                    "chunk_failures": self._chunk_failures,
                    "chunks_failed_over": self._chunks_failed_over,
                    "chunks_recovered_locally": self._chunks_recovered_locally,
                    "retries_spent": self._retries_spent,
                    "budget_exhausted_runs": self._budget_exhausted_runs,
                    "retry_budget": self.policy.retry_budget,
                    "breakers_open": sum(
                        slot.breaker.state != "closed" for slot in self._slots
                    ),
                    "connection_reconnects": sum(
                        slot.client.reconnects for slot in self._slots
                    ),
                    "fallback_reason": self.fallback_reason,
                    "local_backend": self._local.effective_name,
                },
                workers=[
                    {
                        "address": slot.client.address,
                        "alive": slot.alive,
                        "source": slot.source,
                        "chunks": slot.chunks,
                        "failures": slot.failures,
                        "reconnects": slot.client.reconnects,
                        "last_error": slot.last_error,
                        "breaker": slot.breaker.view(),
                    }
                    for slot in self._slots
                ],
            )
            if self._registry_client is not None:
                stats["membership"] = {
                    "registry": self._registry_client.url,
                    "interval": self._membership_interval,
                    "polls": self._membership_polls,
                    "poll_failures": self._membership_poll_failures,
                    "workers_joined": self._workers_joined,
                    "workers_left": self._workers_left,
                    "last_error": self._membership_error,
                }
            return stats

    def shutdown(self) -> None:
        """Release the local backend and connections (workers are not ours)."""
        self._local.shutdown()
        for slot in self._slots:
            slot.client.close()

    @property
    def effective_name(self) -> str:
        """``remote`` while any worker is live, else the local backend's."""
        with self._lock:
            if any(slot.alive for slot in self._slots):
                return self.name
        return self._local.effective_name
