"""A stdlib-only HTTP server for the demo (the web-app substitution).

The original Ranking Facts is "a Web-based application"; this server
reproduces its workflow without Flask or network installs — and serves
*many* workflows at once: sessions live in a token-keyed, *bounded*
registry (oldest-idle eviction past the cap), and every session
computes through one shared
:class:`~repro.engine.service.LabelService`, so identical designs
across users are one cached Monte-Carlo loop, not N.  Server-side
``"csv"`` paths in ``POST /jobs`` are rejected unless the server was
started with ``--allow-local-paths DIR``, and then only paths that
resolve inside that sandbox directory are read.

With a durable label store attached (``--store PATH`` or
``REPRO_LABEL_STORE``; :mod:`repro.store`), labels survive restarts
and three archive routes open up:

- ``GET /labels``                 — the stored-label listing;
- ``GET /labels/<fp>``            — one label plus its provenance;
- ``GET /labels/<fp1>/diff/<fp2>`` — the drift report between two
  stored labels (:func:`repro.label.compare.diff_labels`);
- ``GET /traces``                 — the archived-trace listing;
- ``GET /traces/<id>``            — one trace, spans plus the
  reconstructed span tree (any unambiguous id prefix works; an
  ambiguous one 404s *with* the candidate ids), and — when continuous
  profiling linked a capture — the profile's per-span top frames;
- ``GET /profiles``               — the archived-profile listing;
- ``GET /profiles/<id>``          — one archived profile capture.

Global routes:

- ``GET  /``              — landing page with links;
- ``GET  /health``        — liveness probe;
- ``GET  /healthz``       — liveness plus SLO error-budget burn
  (always 200; ``status`` flips to ``"degraded"`` while burning);
- ``GET  /metrics``       — Prometheus exposition text: per-endpoint
  request latency histograms, in-flight gauges, span durations, and
  every other registry the process keeps (scrape this);
- ``GET  /datasets``      — the built-in dataset registry as JSON;
- ``GET  /engine/stats``  — cache / tier / store / executor counters,
  plus ``telemetry`` (metric snapshot + recent traces), ``profiles``
  (sampler state), and ``resources`` (CPU/RSS/threads/fds/GC) blocks;
- ``GET  /debug/profile`` — capture a profiling window right now:
  ``?seconds=N&hz=H&format=collapsed|json`` (``archive=1`` persists
  the capture when a store is attached);
- ``POST /session``       — open a session; optional ``{"dataset":
  ..., "design": {...}}`` preloads it; returns ``{"token": ...}``;
- ``GET  /sessions``      — tokens and stages of every open session;
- ``POST /jobs``          — submit a batch: ``{"jobs": [{"dataset":
  ..., "design": {...}}, ...]}``; returns ``{"batch_id": ...}``; with
  ``?stream=1`` the response is instead a Server-Sent-Events stream
  of per-job ``widget``/``label``/``error`` events;
- ``GET  /jobs/<id>``     — poll a batch; ``?include=labels`` embeds
  finished labels as JSON.

Per-session routes (``<token>`` from ``POST /session``):

- ``POST /session/<token>/dataset``  — load a built-in dataset;
- ``POST /session/<token>/design``   — commit weights/sensitive/...;
- ``POST /session/<token>/close``    — forget the session;
- ``GET  /session/<token>/label``    — the label as JSON;
- ``GET  /session/<token>/label.stream`` — the same label built live,
  streamed as SSE: one ``widget`` event per finished widget (cheapest
  first, Monte-Carlo-heavy stability last), then a terminal ``label``
  event whose JSON is byte-identical to ``GET .../label``;
- ``GET  /session/<token>/label.html`` — the Figure-1 style HTML page;
- ``GET  /session/<token>/preview``  — ranking top rows as JSON;
- ``GET  /session/<token>/attributes`` — the design view's overview.

The seed's single-session routes (``/label``, ``/label.html``,
``/label.stream``, ``/preview``, ``/attributes``, ``POST /dataset``,
``POST /design``) still work: they are the per-session routes of the
*default* session — the one :func:`make_server` was bound to, adopted
into the registry — so existing clients and the CLI's ``serve`` are
unaffected.

The server runs on the daemon skeleton the cluster daemons share
(:mod:`repro.cluster.daemon`), except for its response write policy.

Use :func:`make_server` in tests (ephemeral port) and
:func:`serve_forever` from the CLI.
"""

from __future__ import annotations

import json
import os
import secrets
import threading
import time
from collections import OrderedDict
from collections.abc import Callable
from pathlib import Path
from urllib.parse import parse_qs

from repro.app.session import DemoSession, SessionStage
from repro.app.sse import SSEStream
from repro.cluster.daemon import (
    DaemonHandle,
    DaemonHandler,
    DaemonServer,
    serve_until_stopped,
)
from repro.datasets.loaders import list_datasets
from repro.engine.jobs import JobStatus, LabelJob
from repro.engine.service import LabelService
from repro.engine.streaming import LabelEventQueue
from repro.errors import EngineError, RankingFactsError, StoreError
from repro.label.render_html import render_html
from repro.label.render_json import render_json
from repro.telemetry import (
    DEFAULT_CONTINUOUS_HZ,
    DEFAULT_WINDOW_HZ,
    OPENMETRICS_CONTENT_TYPE,
    PROMETHEUS_CONTENT_TYPE,
    MetricsRegistry,
    ResourceCollector,
    SamplingPolicy,
    SamplingProfiler,
    SLOEngine,
    TraceCollector,
    configure_logging,
    env_profile_enabled,
    get_default_profiler,
    get_default_registry,
    get_logger,
    get_trace_buffer,
    is_trace_id,
    merged_stats,
    new_trace_id,
    render_prometheus,
    span,
    span_tree,
)

_log = get_logger("app.server")

__all__ = [
    "SessionRegistry",
    "make_server",
    "serve_forever",
    "resolve_service_env",
    "ServerHandle",
]

_LANDING_PAGE = """<!DOCTYPE html><html><head><meta charset="utf-8">
<title>Ranking Facts demo</title></head><body>
<h1>Ranking Facts</h1>
<p>A nutritional label for rankings (Yang et al., SIGMOD 2018 — reproduction).</p>
<ul>
<li><a href="/label.html">the label (HTML)</a></li>
<li><a href="/label">the label (JSON)</a></li>
<li><a href="/preview">ranking preview (JSON)</a></li>
<li><a href="/datasets">built-in datasets (JSON)</a></li>
<li><a href="/engine/stats">engine statistics (JSON)</a></li>
<li><a href="/metrics">Prometheus metrics (text)</a></li>
<li><a href="/labels">stored label archive (JSON; needs --store)</a></li>
</ul>
<p>Multi-session API: POST /session, then /session/&lt;token&gt;/...;
batch API: POST /jobs, GET /jobs/&lt;batch_id&gt;.</p>
</body></html>"""


class SessionRegistry:
    """Token-keyed sessions sharing one label service.

    The registry is bounded two ways (mirroring the cache's caps):

    - **count** — when ``max_sessions`` is exceeded, the session that
      has gone longest without being looked up is evicted; a client
      looping ``POST /session`` can no longer grow server memory until
      OOM;
    - **idle time** — with ``session_ttl`` set, a session untouched
      for that many seconds is expired lazily (checked on every
      registry operation), so a long-running server sheds abandoned
      sessions even while well under the count cap.

    An evicted or expired token then 404s like any unknown one.
    ``adopt``-ed sessions (the server's bound default) are pinned:
    neither the cap nor the TTL ever removes them.
    """

    def __init__(
        self,
        service: LabelService | None = None,
        max_sessions: int = 256,
        session_ttl: float | None = None,
        clock: Callable[[], float] = time.monotonic,
    ):
        if max_sessions < 1:
            raise EngineError(f"max_sessions must be >= 1, got {max_sessions}")
        if session_ttl is not None and session_ttl <= 0:
            raise EngineError(
                f"session_ttl must be > 0 seconds, got {session_ttl}"
            )
        self._service = service if service is not None else LabelService()
        # ordered oldest-touched first; get() re-ends a token, so the
        # eviction victim is always the longest-idle session
        self._sessions: OrderedDict[str, DemoSession] = OrderedDict()
        self._touched: dict[str, float] = {}
        self._pinned: set[str] = set()
        self._max_sessions = max_sessions
        self._session_ttl = session_ttl
        self._clock = clock
        self._evicted = 0
        self._expired = 0
        self._lock = threading.Lock()

    @property
    def service(self) -> LabelService:
        """The shared label service every session computes through."""
        return self._service

    @property
    def max_sessions(self) -> int:
        """The registry's capacity, in sessions."""
        return self._max_sessions

    @property
    def session_ttl(self) -> float | None:
        """Idle seconds after which a session expires (``None`` = never)."""
        return self._session_ttl

    @property
    def evicted(self) -> int:
        """How many idle sessions the cap has evicted so far."""
        with self._lock:
            return self._evicted

    @property
    def expired(self) -> int:
        """How many idle sessions the TTL has expired so far."""
        with self._lock:
            return self._expired

    def _expire_locked(self) -> None:
        # lazy TTL sweep: tokens iterate oldest-touched first, so the
        # scan stops at the first still-fresh unpinned session
        if self._session_ttl is None:
            return
        now = self._clock()
        for token in list(self._sessions):
            if now - self._touched[token] <= self._session_ttl:
                break
            if token in self._pinned:
                continue  # the adopted default session never expires
            del self._sessions[token]
            del self._touched[token]
            self._expired += 1

    def _evict_locked(self, keep: str) -> None:
        # never evict the token being registered right now: handing the
        # caller a token that already 404s would be worse than briefly
        # exceeding the cap when everything else is pinned
        while len(self._sessions) > self._max_sessions:
            victim = next(
                (
                    t
                    for t in self._sessions
                    if t not in self._pinned and t != keep
                ),
                None,
            )
            if victim is None:  # everything left is pinned (or just added)
                break
            del self._sessions[victim]
            self._touched.pop(victim, None)
            self._evicted += 1

    def create(self) -> tuple[str, DemoSession]:
        """Open a fresh session; returns its token and the session."""
        session = DemoSession(service=self._service)
        token = secrets.token_hex(8)
        with self._lock:
            self._expire_locked()
            self._sessions[token] = session
            self._touched[token] = self._clock()
            self._evict_locked(keep=token)
        return token, session

    def adopt(self, session: DemoSession, token: str | None = None) -> str:
        """Register an existing session, pinned (the server's default)."""
        token = token or secrets.token_hex(8)
        with self._lock:
            self._expire_locked()
            self._sessions[token] = session
            self._touched[token] = self._clock()
            self._pinned.add(token)
            self._evict_locked(keep=token)
        return token

    def get(self, token: str) -> DemoSession:
        """The session for ``token`` (raises :class:`EngineError`)."""
        with self._lock:
            self._expire_locked()
            session = self._sessions.get(token)
            if session is not None:
                self._sessions.move_to_end(token)  # mark recently used
                self._touched[token] = self._clock()
        if session is None:
            raise EngineError(f"unknown session token {token!r}")
        return session

    def close(self, token: str) -> bool:
        """Forget a session; returns whether it existed."""
        with self._lock:
            self._pinned.discard(token)
            self._touched.pop(token, None)
            return self._sessions.pop(token, None) is not None

    def tokens(self) -> dict[str, str]:
        """``{token: stage}`` for every open session."""
        with self._lock:
            self._expire_locked()
            return {t: s.stage.value for t, s in self._sessions.items()}


#: session sub-routes with fixed names (anything else is collapsed, so
#: client-invented paths cannot mint unbounded metric label values)
_SESSION_SUBROUTES = frozenset({
    "label", "label.html", "label.stream", "preview", "attributes",
    "status", "close", "dataset", "design",
})
#: the seed's single-session routes: the default session's own views
#: (GET) and actions (POST), served as ``/session/<default token>/...``
_LEGACY_VIEWS = frozenset({
    "label", "label.html", "label.stream", "preview", "attributes",
})
_LEGACY_ACTIONS = frozenset({"dataset", "design"})
_TOP_ROUTES = frozenset({
    "health", "healthz", "metrics", "datasets", "sessions",
}) | _LEGACY_VIEWS | _LEGACY_ACTIONS


def _route_template(parts: list[str]) -> str:
    """The bounded route label a request path falls under.

    Metrics labels must come from a small fixed set — the raw path
    embeds session tokens, batch ids, and fingerprints (unbounded
    cardinality) and is attacker-controlled besides.
    """
    if not parts:
        return "/"
    head = parts[0]
    if head == "session":
        if len(parts) == 1:
            return "/session"
        if len(parts) == 3 and parts[2] in _SESSION_SUBROUTES:
            return "/session/{token}/" + parts[2]
        return "/session/{token}/{other}"
    if head == "jobs":
        return "/jobs" if len(parts) == 1 else "/jobs/{id}"
    if head == "labels":
        if len(parts) == 1:
            return "/labels"
        if len(parts) == 2:
            return "/labels/{fp}"
        if len(parts) == 3 and parts[1] == "diff":
            return "/labels/{fp}/diff/{fp}"
        return "/labels/{other}"
    if head == "traces":
        return "/traces" if len(parts) == 1 else "/traces/{id}"
    if head == "profiles":
        return "/profiles" if len(parts) == 1 else "/profiles/{id}"
    if parts == ["engine", "stats"]:
        return "/engine/stats"
    if parts == ["debug", "profile"]:
        return "/debug/profile"
    if len(parts) == 1 and head in _TOP_ROUTES:
        return "/" + head
    return "{unknown}"


def _apply_dataset(session: DemoSession, body: dict) -> None:
    name = body.get("name")
    if not isinstance(name, str):
        raise RankingFactsError('POST needs {"name": "<dataset>"}')
    session.load_builtin(name)


def _apply_design(session: DemoSession, body: dict) -> None:
    weights = body.get("weights")
    sensitive = body.get("sensitive")
    if not isinstance(weights, dict) or not weights:
        raise RankingFactsError('design needs a non-empty "weights" object')
    if isinstance(sensitive, str):
        sensitive = [sensitive]
    if not isinstance(sensitive, list) or not sensitive:
        raise RankingFactsError('design needs "sensitive": attribute name or list')
    # coerce *before* touching the session: a non-numeric value is the
    # client's mistake (400), not an internal error (500)
    try:
        clean_weights = {str(a): float(w) for a, w in weights.items()}
    except (TypeError, ValueError) as exc:
        raise RankingFactsError(f"bad design weight: {exc}") from exc
    try:
        k = int(body.get("k", 10))
    except (TypeError, ValueError) as exc:
        raise RankingFactsError(f'bad design value for "k": {exc}') from exc
    try:
        alpha = float(body.get("alpha", 0.05))
    except (TypeError, ValueError) as exc:
        raise RankingFactsError(f'bad design value for "alpha": {exc}') from exc
    session.set_normalization(bool(body.get("normalize", True)))
    session.design_scoring(
        weights=clean_weights,
        sensitive_attribute=[str(s) for s in sensitive],
        id_column=body.get("id_column"),
        diversity_attributes=body.get("diversity"),
        k=k,
        alpha=alpha,
    )
    try:
        if "seed" in body:
            session.set_seed(int(body["seed"]))
        epsilons = body.get("monte_carlo_epsilons", (0.05, 0.1, 0.2))
        if isinstance(epsilons, (str, bytes)) or not isinstance(
            epsilons, (list, tuple)
        ):
            raise RankingFactsError(
                '"monte_carlo_epsilons" must be a list of numbers'
            )
        # always applied, so a redesign without the field (or with 0) turns
        # the expensive Monte-Carlo detail off — consistent with k/alpha
        session.set_monte_carlo(
            int(body.get("monte_carlo_trials", 0)), tuple(epsilons)
        )
    except (TypeError, ValueError) as exc:
        raise RankingFactsError(f"bad Monte-Carlo design value: {exc}") from exc


class _StreamGate:
    """Admission control plus the drain signal for SSE streams.

    Every streaming response holds one slot for its whole lifetime; a
    request past ``max_streams`` is rejected up front with 503 instead
    of queueing — a slow-client pile-up must not pin every builder
    thread.  ``draining`` is the graceful-shutdown signal: once set,
    new streams are rejected and live stream loops close cleanly
    within one poll interval (:meth:`ServerHandle.stop`).
    """

    def __init__(self, max_streams: int = 32):
        if max_streams < 1:
            raise EngineError(f"max_streams must be >= 1, got {max_streams}")
        self.max_streams = max_streams
        self.draining = threading.Event()
        self._active = 0
        self._lock = threading.Lock()

    @property
    def active(self) -> int:
        with self._lock:
            return self._active

    def acquire(self) -> bool:
        """Claim a stream slot; ``False`` when full or draining."""
        with self._lock:
            if self.draining.is_set() or self._active >= self.max_streams:
                return False
            self._active += 1
            return True

    def release(self) -> None:
        with self._lock:
            if self._active > 0:
                self._active -= 1

    def wait_idle(self, timeout: float) -> bool:
        """Block until every stream released its slot (or timeout)."""
        deadline = time.monotonic() + timeout
        while self.active > 0:
            if time.monotonic() >= deadline:
                return False
            time.sleep(0.05)
        return True


class _RankingFactsHandler(DaemonHandler):
    """Routes requests against the registry and the shared service."""

    # set by make_server on the subclass
    registry: SessionRegistry = None  # type: ignore[assignment]
    # the adopted default session's registry token; None when headless
    default_token: "str | None" = None
    # resolved sandbox directory server-side "csv" paths must live
    # under; None disables local paths entirely
    local_path_root: "Path | None" = None
    metrics: MetricsRegistry = None  # type: ignore[assignment]
    slo: "SLOEngine | None" = None
    trace_collector: "TraceCollector | None" = None
    # the process-wide sampling profiler behind GET /debug/profile, and
    # the label profile reports carry as their origin
    profiler: "SamplingProfiler | None" = None
    profile_source = "server"
    # process resource collector behind the repro_process_* families;
    # refreshed at scrape/stats time, no poller thread
    resources: "ResourceCollector | None" = None
    # render /metrics as OpenMetrics with per-bucket trace-id exemplars;
    # off by default so existing scrapes see byte-identical output
    metrics_exemplars = False

    # streaming knobs (class attributes so tests can tighten them)
    stream_queue_size = 32
    stream_publish_timeout = 2.0
    stream_poll_interval = 0.5

    # per-request state, initialized by _handle (class defaults so the
    # helpers stay safe if a subclass calls them directly)
    _status = 0
    _trace_id: "str | None" = None
    _method = _route = ""
    _started = 0.0
    _recorded = True  # only _handle arms the per-request metrics

    server_version = "RankingFacts/2.0"
    # the one write policy that differs from the cluster daemons: Nagle
    # stays on and _send_raw writes head and body separately (see
    # repro.cluster.daemon)
    disable_nagle_algorithm = False
    # reap keep-alive connections idle longer than this, so abandoned
    # clients cannot hold handler threads forever
    timeout = 60

    def _send_raw(self, status: int, content_type: str, body: bytes) -> None:
        self.send_response(status)
        self.send_header("Content-Type", content_type)
        self.send_header("Content-Length", str(len(body)))
        if self._trace_id:
            # echo the request's trace so a client (or curl -v) can
            # grep server/worker logs for this exact request
            self.send_header("X-Trace-Id", self._trace_id)
        self._status = status
        # counted before the response leaves, so a client scraping
        # /metrics right after it already sees its own request
        self._record_request()
        self.end_headers()
        self.wfile.write(body)

    def _send(self, status: int, content_type: str, payload: str) -> None:
        self._send_raw(
            status, f"{content_type}; charset=utf-8", payload.encode("utf-8")
        )

    def _send_json(self, status: int, data: object) -> None:
        self._send(status, "application/json", json.dumps(data, indent=2))

    def do_GET(self) -> None:  # noqa: N802 (http.server API)
        self._handle("GET", self._route_get)

    def do_POST(self) -> None:  # noqa: N802 (http.server API)
        self._handle("POST", self._route_post)

    def _handle(self, method: str, router: Callable[[], None]) -> None:
        """Route one request inside a span, with per-endpoint metrics.

        The request adopts the client's ``X-Trace-Id`` (32 hex chars)
        when present — so a caller can stitch its own telemetry to the
        server's — and mints a fresh trace id otherwise.  The span makes
        the trace ambient for everything downstream on this thread:
        engine spans, store spans, and the coordinator's wire frames all
        inherit it.
        """
        route = _route_template(self._split()[0])
        self._status = 0
        claimed = (self.headers.get("X-Trace-Id") or "").strip().lower()
        if claimed and not is_trace_id(claimed):
            # a malformed id is treated as absent, never propagated into
            # spans/logs/wire frames — but it is counted, because a
            # client sending junk ids deserves a visible signal
            self.metrics.counter(
                "repro_http_bad_trace_id_total",
                "Requests whose X-Trace-Id header was malformed",
            ).inc()
            claimed = ""
        self._trace_id = claimed or new_trace_id()
        inflight = self.metrics.gauge(
            "repro_http_inflight_requests",
            "HTTP requests currently being handled",
            tag_names=("method",),
        )
        inflight.inc(method=method)
        self._method, self._route = method, route
        self._started = time.perf_counter()
        self._recorded = False
        try:
            with span(
                "http.request",
                trace_id=self._trace_id,
                registry=self.metrics,
                method=method,
                route=route,
            ):
                try:
                    router()
                except RankingFactsError as exc:
                    self._send_json(400, {"error": str(exc)})
                except Exception as exc:  # pragma: no cover - defensive boundary
                    _log.error(
                        "internal error on %s %s: %s", method, route, exc,
                        extra={"trace_id": self._trace_id},
                    )
                    self._send_json(500, {"error": f"internal error: {exc}"})
        finally:
            inflight.dec(method=method)
            # responses that bypassed _send_raw (SSE streams, aborted
            # requests) are counted here instead
            self._record_request()
            _log.debug(
                "%s %s -> %s in %.6fs", method, route, self._status or 500,
                time.perf_counter() - self._started,
                extra={"trace_id": self._trace_id},
            )

    def _record_request(self) -> None:
        """Count this request and observe its latency, once per request."""
        if self._recorded:
            return
        self._recorded = True
        method, route = self._method, self._route
        self.metrics.histogram(
            "repro_http_request_seconds",
            "HTTP request latency by endpoint",
            tag_names=("method", "route"),
        ).observe(time.perf_counter() - self._started, method=method, route=route)
        self.metrics.counter(
            "repro_http_requests_total",
            "HTTP requests served, by endpoint and status",
            tag_names=("method", "route", "status"),
        ).inc(method=method, route=route, status=str(self._status or 500))

    def _metric_registries(self) -> list[MetricsRegistry]:
        """The union ``/metrics`` renders and the SLO engine reads."""
        registries = [self.metrics, get_default_registry()]
        registries.extend(self.registry.service.metrics_registries())
        return registries

    def _send_metrics(self) -> None:
        """``GET /metrics``: one exposition page for the whole process.

        With exemplars enabled — server flag, ``REPRO_METRICS_EXEMPLARS``,
        or a per-scrape ``?exemplars=1`` — the page switches to the
        OpenMetrics dialect and each histogram bucket carries its last
        trace-id exemplar; otherwise the output stays byte-identical to
        what existing scrapes have always seen.
        """
        _, query = self._split()
        exemplars = self.metrics_exemplars or (
            parse_qs(query).get("exemplars", ["0"])[-1] in ("1", "true", "yes")
        )
        if self.resources is not None:
            # refresh the repro_process_* gauges so the scrape is current
            self.resources.refresh(self.metrics)
        page = render_prometheus(*self._metric_registries(), exemplars=exemplars)
        content_type = (
            OPENMETRICS_CONTENT_TYPE if exemplars else PROMETHEUS_CONTENT_TYPE
        )
        self._send_raw(200, content_type, page.encode("utf-8"))

    # -- helpers -----------------------------------------------------------------

    def _read_json_body(self, required: bool = True) -> dict:
        raw = self._read_body()
        if not raw:
            if required:
                raise RankingFactsError("POST body required")
            return {}
        try:
            body = json.loads(raw)
        except json.JSONDecodeError as exc:
            raise RankingFactsError(f"invalid JSON body: {exc}") from exc
        if not isinstance(body, dict):
            raise RankingFactsError("POST body must be a JSON object")
        return body

    def _split(self) -> tuple[list[str], str]:
        path, _, query = self.path.partition("?")
        return [part for part in path.split("/") if part], query

    def _routed_parts(self, legacy: frozenset[str]) -> list[str]:
        """The path's parts, a single-session route moved under the default token."""
        parts, _ = self._split()
        if len(parts) != 1 or parts[0] not in legacy:
            return parts
        if self.default_token is None:
            raise RankingFactsError(
                "no default session bound; open one with POST /session "
                "and use the /session/<token>/ routes"
            )
        return ["session", self.default_token, parts[0]]

    def _label_for(self, session: DemoSession):
        if session.stage is not SessionStage.LABELED:
            session.generate_label()
        return session.last_label()

    # -- streaming (SSE) ---------------------------------------------------------

    def _stream_response(self, produce: Callable[[LabelEventQueue], object]) -> None:
        """Admission, metrics, and the drain loop for one SSE response.

        ``produce`` receives the event queue once an admission slot is
        held; it must arrange (asynchronously) for events to be
        published and the queue closed.  The loop then relays every
        event as an SSE frame, heartbeats on idle ticks (which is how a
        vanished client is detected between events), and closes cleanly
        on the terminal event, a disconnect, a backpressure abort, or
        the server's drain signal.  The slot is held exactly as long as
        the response lives, so a stalled client occupies bounded queue
        memory and one admission slot — never a builder thread.
        """
        gate: "_StreamGate | None" = getattr(self.server, "stream_gate", None)
        streams_total = self.metrics.counter(
            "repro_streams_total",
            "SSE streams, by outcome "
            "(completed, rejected, disconnected, aborted, drained)",
            tag_names=("outcome",),
        )
        if gate is None or not gate.acquire():
            streams_total.inc(outcome="rejected")
            cap = getattr(gate, "max_streams", 0)
            self._send_json(
                503,
                {
                    "error": (
                        f"too many concurrent streams (cap {cap}); "
                        "retry later or use the non-streaming endpoint"
                    )
                },
            )
            return
        active_gauge = self.metrics.gauge(
            "repro_streams_active", "SSE streams currently open"
        )
        active_gauge.inc()
        started = time.perf_counter()
        outcome = "completed"
        events = LabelEventQueue(
            maxsize=self.stream_queue_size,
            publish_timeout=self.stream_publish_timeout,
        )
        stream = SSEStream(self)
        # first-byte vs last-byte: this span runs from the response head
        # to the first event frame; the enclosing http.request span (and
        # repro_stream_seconds below) covers the full stream
        first_span = span("stream.first_event", registry=self.metrics)
        span_open = False
        first_sent = False
        try:
            produce(events)
            stream.begin()
            first_span.__enter__()
            span_open = True
            try:
                while True:
                    if gate.draining.is_set():
                        outcome = "drained"
                        events.abort("server draining")
                        stream.send_comment("server draining; stream closed")
                        break
                    event = events.get(timeout=self.stream_poll_interval)
                    if event is None:
                        if events.finished:
                            break
                        stream.send_comment("ping")
                        continue
                    stream.send_event(
                        event.kind, json.dumps(event.as_dict(), indent=2)
                    )
                    if not first_sent:
                        first_sent = True
                        first_span.__exit__(None, None, None)
                        span_open = False
                        self.metrics.histogram(
                            "repro_stream_first_event_seconds",
                            "Latency from stream start to the first event "
                            "on the wire",
                        ).observe(time.perf_counter() - started)
            except OSError:
                outcome = "disconnected"
                events.abort("client disconnected")
            if outcome == "completed" and events.aborted:
                outcome = "aborted"  # backpressure tore the stream down
            stream.end()
        finally:
            if span_open:
                first_span.__exit__(None, None, None)
            gate.release()
            active_gauge.dec()
            self.metrics.histogram(
                "repro_stream_seconds", "Total lifetime of one SSE stream"
            ).observe(time.perf_counter() - started)
            streams_total.inc(outcome=outcome)
            _log.debug(
                "stream closed (%s) after %d event(s)",
                outcome, stream.events_sent,
                extra={"trace_id": self._trace_id},
            )

    def _stream_label_view(self, session: DemoSession) -> None:
        """``GET .../label.stream``: the label as staged SSE events."""
        # one consistent design snapshot, taken under the session lock;
        # the build itself runs on the executor pool so this handler
        # thread only relays events (and the session stays unlocked)
        table, design, dataset_name = session.label_inputs()
        service = self.registry.service
        self._stream_response(
            lambda events: service.stream_label(
                table, design, dataset_name, events=events
            )
        )

    def _get_session_view(self, session: DemoSession, view: str) -> None:
        if view == "label":
            facts = self._label_for(session)
            self._send(200, "application/json", render_json(facts.label))
        elif view == "label.stream":
            self._stream_label_view(session)
        elif view == "label.html":
            facts = self._label_for(session)
            self._send(200, "text/html", render_html(facts.label))
        elif view == "preview":
            facts = self._label_for(session)
            records = facts.ranking.top_k(
                min(facts.label.k, facts.ranking.size)
            ).to_records()
            self._send_json(200, {"preview": records})
        elif view == "attributes":
            self._send_json(200, {"attributes": session.attribute_overview()})
        elif view == "status":
            self._send_json(
                200,
                {
                    "stage": session.stage.value,
                    "cached": session.last_label_was_cached(),
                },
            )
        else:
            raise RankingFactsError(f"unknown session view {view!r}")

    def _post_session_action(self, session: DemoSession, action: str) -> None:
        body = self._read_json_body()
        if action == "dataset":
            _apply_dataset(session, body)
            self._send_json(
                200,
                {"ok": True, "dataset": body["name"], "stage": session.stage.value},
            )
        elif action == "design":
            _apply_design(session, body)
            self._send_json(200, {"ok": True, "stage": session.stage.value})
        else:
            raise RankingFactsError(f"unknown session action {action!r}")

    # -- GET routing ---------------------------------------------------------------

    def _route_get(self) -> None:
        parts = self._routed_parts(_LEGACY_VIEWS)
        if not parts:
            self._send(200, "text/html", _LANDING_PAGE)
        elif parts == ["health"]:
            sessions = self.registry.tokens()
            self._send_json(
                200, {"status": "ok", "sessions": len(sessions)}
            )
        elif parts == ["healthz"]:
            self._get_healthz()
        elif parts == ["metrics"]:
            self._send_metrics()
        elif parts == ["datasets"]:
            self._send_json(200, {"datasets": list(list_datasets())})
        elif parts == ["engine", "stats"]:
            telemetry: dict[str, object] = {
                "metrics": self.metrics.snapshot(),
                "recent_traces": get_trace_buffer().recent(10),
                "trace_buffer": get_trace_buffer().snapshot(),
            }
            if self.trace_collector is not None:
                telemetry["trace_collector"] = self.trace_collector.stats()
            extra: dict[str, object] = {"telemetry": telemetry}
            if self.profiler is not None:
                extra["profiles"] = {"profiler": self.profiler.stats()}
            if self.resources is not None:
                extra["resources"] = self.resources.snapshot()
            if self.slo is not None:
                extra["slo"] = self.slo.evaluate()
            self._send_json(
                200, merged_stats(self.registry.service.stats, **extra)
            )
        elif parts == ["debug", "profile"]:
            self._get_debug_profile()
        elif parts[0] in ("labels", "traces", "profiles"):
            self._get_archive(parts)
        elif parts == ["sessions"]:
            self._send_json(200, {"sessions": self.registry.tokens()})
        elif parts[0] == "session" and len(parts) == 3:
            try:
                session = self.registry.get(parts[1])
            except EngineError as exc:
                self._send_json(404, {"error": str(exc)})
                return
            self._get_session_view(session, parts[2])
        elif parts[0] == "jobs" and len(parts) == 2:
            self._get_batch(parts[1])
        else:
            self._send_json(404, {"error": f"unknown path {self.path!r}"})

    # -- the durable archive: labels, traces, profiles (requires a store) -------

    def _get_archive(self, parts: list[str]) -> None:
        """``GET /labels|/traces|/profiles[/<id-or-prefix>]``.

        The three kinds share one path: a listing honouring
        ``?limit=N`` (N >= 1), and a lookup that resolves an id prefix
        (404 listing the candidates under ``matches`` when ambiguous)
        and 404s an entry that expired between resolve and get.  Only
        the store methods and the found entry's body differ.
        """
        store = self.registry.service.store
        if store is None:
            raise RankingFactsError(
                "no label store configured; start the server with "
                "--store PATH (or REPRO_LABEL_STORE) to keep a durable "
                "archive of labels, traces and profiles"
            )
        kind, rest = parts[0], parts[1:]
        listing, default_limit, resolve, fetch, body = {
            "labels": (
                store.records, None, store.resolve_prefix, store.get,
                self._label_body,
            ),
            "traces": (
                store.trace_records, 50, store.resolve_trace_prefix,
                store.get_trace, self._trace_body,
            ),
            "profiles": (
                store.profile_records, 50, store.resolve_profile_prefix,
                store.get_profile, self._profile_body,
            ),
        }[kind]

        def lookup(prefix: str):
            try:
                key = resolve(prefix)
            except StoreError as exc:
                error: dict[str, object] = {"error": str(exc)}
                if getattr(exc, "matches", None):
                    error["matches"] = exc.matches
                self._send_json(404, error)
                return None
            entry = fetch(key)
            if entry is None:  # expired between resolve and get
                self._send_json(
                    404, {"error": f"no archived {kind[:-1]} {prefix!r}"}
                )
                return None
            return key, entry

        if not rest:
            records = listing(limit=self._listing_limit(default_limit))
            self._send_json(200, {kind: records, "count": len(records)})
        elif len(rest) == 1:
            found = lookup(rest[0])
            if found is not None:
                self._send_json(200, body(store, *found))
        elif kind == "labels" and len(rest) == 3 and rest[1] == "diff":
            from repro.label.compare import diff_labels

            before = lookup(rest[0])
            after = before and lookup(rest[2])
            if after:
                # LabelError (different dataset/k) surfaces as a 400 via
                # the RankingFactsError boundary in do_GET
                drift = diff_labels(before[1].label, after[1].label)
                self._send_json(200, {
                    "before": before[0],
                    "after": after[0],
                    "diff": drift.as_dict(),
                    "summary": drift.summary_lines(),
                })
        else:
            self._send_json(404, {"error": f"unknown path {self.path!r}"})

    def _listing_limit(self, default: int | None) -> int | None:
        _, query = self._split()
        values = parse_qs(query).get("limit", [])
        if not values:
            return default
        try:
            limit = int(values[-1])
        except ValueError as exc:
            raise RankingFactsError(f"bad limit: {exc}") from exc
        if limit < 1:
            # SQLite reads a negative LIMIT as "no limit at all"
            raise RankingFactsError(f"bad limit: {limit} (must be >= 1)")
        return limit

    @staticmethod
    def _label_body(store, fingerprint: str, facts) -> dict:
        provenance = store.provenance(fingerprint)
        return {
            "fingerprint": fingerprint,
            "label": json.loads(render_json(facts.label)),
            "provenance": None if provenance is None else provenance.as_dict(),
        }

    @staticmethod
    def _trace_body(store, trace_id: str, record) -> dict:
        spans = record.spans
        payload = {**record.summary(), "spans": spans, "tree": span_tree(spans)}
        # a slow trace archived while continuous profiling ran has a
        # linked capture: surface it so clients can print the top
        # frames under the slow spans
        profile = store.profile_for_trace(trace_id)
        if profile is not None:
            payload["profile_id"] = profile.profile_id
            payload["profile"] = profile.report
        return payload

    @staticmethod
    def _profile_body(store, profile_id: str, record) -> dict:
        return {**record.summary(), "report": record.report}

    def _get_healthz(self) -> None:
        """``GET /healthz``: liveness plus advisory SLO burn.

        Always 200 — a burning error budget means "page a human", not
        "take the instance out of rotation"; the payload's ``status``
        flips to ``"degraded"`` so watchers see it.
        """
        payload: dict[str, object] = {
            "status": "ok",
            "sessions": len(self.registry.tokens()),
        }
        if self.slo is not None:
            health = self.slo.health()
            payload["status"] = health["status"]
            payload["slo"] = health
        self._send_json(200, payload)

    # -- profiling ---------------------------------------------------------------

    def _get_debug_profile(self) -> None:
        """``GET /debug/profile?seconds=N&format=collapsed|json``.

        Blocks this handler thread for the window (bounded by the
        profiler's cap) while the sampler captures every *other*
        thread; with ``archive=1`` and a store attached, the capture is
        persisted and its profile id returned.
        """
        if self.profiler is None:
            raise RankingFactsError("profiling is not available on this server")
        _, query = self._split()
        params = parse_qs(query)
        try:
            seconds = float(params.get("seconds", ["2"])[-1])
            hz = float(params.get("hz", [str(DEFAULT_WINDOW_HZ)])[-1])
        except ValueError as exc:
            raise RankingFactsError(f"bad profile parameter: {exc}") from exc
        fmt = params.get("format", ["json"])[-1]
        if fmt not in ("json", "collapsed"):
            raise RankingFactsError(
                f"unknown profile format {fmt!r}; use collapsed or json"
            )
        report = self.profiler.window(seconds, hz=hz)
        report.source = self.profile_source
        if fmt == "collapsed":
            self._send(200, "text/plain", report.to_collapsed())
            return
        payload = report.as_dict()
        if params.get("archive", ["0"])[-1] in ("1", "true", "yes"):
            store = self.registry.service.store
            if store is None:
                raise RankingFactsError(
                    "archive=1 needs a label store; start the server with "
                    "--store PATH (or REPRO_LABEL_STORE)"
                )
            profile_id = secrets.token_hex(16)
            store.put_profile(
                profile_id,
                source=report.source,
                started_at=report.started_at,
                duration=report.duration,
                hz=report.hz,
                sample_count=report.samples,
                report=payload,
            )
            payload["profile_id"] = profile_id
        self._send_json(200, payload)

    def _get_batch(self, batch_id: str) -> None:
        _, query = self._split()
        try:
            handle = self.registry.service.batch(batch_id)
        except EngineError as exc:
            self._send_json(404, {"error": str(exc)})
            return
        status = handle.status()
        if "labels" in parse_qs(query).get("include", []):
            labels: dict[str, object] = {}
            for result in handle.completed_results():
                if result is not None and result.status is JobStatus.DONE:
                    labels[result.job_id] = json.loads(
                        render_json(result.facts.label)
                    )
            status["labels"] = labels
        self._send_json(200, status)

    # -- POST routing -----------------------------------------------------------------

    def _route_post(self) -> None:
        parts = self._routed_parts(_LEGACY_ACTIONS)
        if not parts:
            self._send_json(404, {"error": "unknown POST path '/'"})
        elif parts == ["session"]:
            self._post_new_session()
        elif parts[0] == "session" and len(parts) == 3 and parts[2] == "close":
            closed = self.registry.close(parts[1])
            if closed:
                self._send_json(200, {"ok": True, "closed": parts[1]})
            else:
                self._send_json(
                    404, {"error": f"unknown session token {parts[1]!r}"}
                )
        elif parts[0] == "session" and len(parts) == 3:
            try:
                session = self.registry.get(parts[1])
            except EngineError as exc:
                self._send_json(404, {"error": str(exc)})
                return
            self._post_session_action(session, parts[2])
        elif parts == ["jobs"]:
            self._post_jobs()
        else:
            self._send_json(404, {"error": f"unknown POST path {self.path!r}"})

    def _post_new_session(self) -> None:
        body = self._read_json_body(required=False)
        token, session = self.registry.create()
        try:
            if "dataset" in body:
                session.load_builtin(str(body["dataset"]))
            if "design" in body:
                design = body["design"]
                if not isinstance(design, dict):
                    raise RankingFactsError('"design" must be a JSON object')
                _apply_design(session, design)
        except RankingFactsError:
            self.registry.close(token)
            raise
        self._send_json(
            201, {"token": token, "stage": session.stage.value}
        )

    def _post_jobs(self) -> None:
        body = self._read_json_body()
        jobs_spec = body.get("jobs")
        if not isinstance(jobs_spec, list) or not jobs_spec:
            raise RankingFactsError('POST /jobs needs a non-empty "jobs" array')
        jobs = [
            LabelJob.from_mapping(spec, job_id=f"job-{index}")
            for index, spec in enumerate(jobs_spec)
        ]
        for job in jobs:
            if job.csv_path is None:
                continue
            # a server-side path is a remote file-read primitive:
            # reject the whole batch before anything is queued
            if self.local_path_root is None:
                raise RankingFactsError(
                    f'job {job.job_id!r} names a server-side "csv" path; '
                    "local paths are disabled unless the server is "
                    "started with --allow-local-paths DIR"
                )
            # resolve() follows symlinks, so a link inside the sandbox
            # pointing outside it is rejected too
            resolved = Path(job.csv_path).resolve()
            if not resolved.is_relative_to(self.local_path_root):
                raise RankingFactsError(
                    f'job {job.job_id!r}: server-side "csv" path '
                    f"{job.csv_path!r} resolves outside the allowed "
                    f"directory {str(self.local_path_root)!r}"
                )
        _, query = self._split()
        if parse_qs(query).get("stream", ["0"])[-1] in ("1", "true", "yes"):
            # stream=1: relay per-job widget/label events as SSE instead
            # of returning a batch handle to poll
            service = self.registry.service
            self._stream_response(
                lambda events: service.stream_batch(jobs, events=events)
            )
            return
        handle = self.registry.service.submit_batch(jobs)
        self._send_json(
            202,
            {"batch_id": handle.batch_id, "total": len(jobs), "done": handle.done()},
        )


class ServerHandle(DaemonHandle):
    """A running server plus its background thread (context manager)."""

    def __init__(
        self,
        server: DaemonServer,
        registry: SessionRegistry,
        trace_collector: "TraceCollector | None" = None,
        resources: "ResourceCollector | None" = None,
    ):
        super().__init__(server)
        self.registry = registry
        self.trace_collector = trace_collector
        self.resources = resources
        #: the process profiler serving this daemon, and whether this
        #: daemon started its continuous sink (set by make_server)
        self.profiler: "SamplingProfiler | None" = None
        self.owns_continuous = False

    @property
    def address(self) -> tuple[str, int]:
        """(host, port) the server is bound to."""
        host, port = self._server.server_address[:2]
        return str(host), int(port)

    @property
    def stream_gate(self) -> "_StreamGate":
        """The SSE admission gate (tests poke it directly)."""
        return self._server.stream_gate

    def stop(self, grace: float = 5.0) -> None:
        """Shut down gracefully: drain live streams, then close.

        New streams are rejected immediately (503); open streams get up
        to ``grace`` seconds to finish their current build, after which
        any connection still alive (e.g. a client that stopped reading,
        or an idle kept-alive one) is severed so the accept loop and
        handler threads cannot hang on it.  Idempotent.
        """
        gate = self._server.stream_gate
        gate.draining.set()
        gate.wait_idle(grace)
        super().stop()
        if self.trace_collector is not None:
            # detach the buffer listener so a later server in the same
            # process doesn't archive into a closed store
            self.trace_collector.close()
        if self.resources is not None:
            # unhook the gc callback so repeated make_server calls in
            # one process (tests) don't stack dead collectors
            self.resources.close()
        if self.owns_continuous and self.profiler is not None:
            # the continuous sink we started dies with us, so a stopped
            # server leaves the process profiler fully idle
            self.profiler.stop_continuous()
            self.owns_continuous = False


def resolve_service_env(
    store_path: str | None = None,
    cache_max_bytes: int | None = None,
    cache_ttl: float | None = None,
) -> tuple[str | None, int | None, float | None]:
    """Flag-or-environment resolution for the service durability knobs.

    Explicit arguments win; otherwise ``REPRO_LABEL_STORE``,
    ``REPRO_CACHE_MAX_BYTES``, and ``REPRO_CACHE_TTL`` fill in.  Shared
    by :func:`make_server` and the CLI's ``serve`` so the two entry
    points cannot drift.
    """
    store_path = store_path or os.environ.get("REPRO_LABEL_STORE") or None
    if cache_max_bytes is None and os.environ.get("REPRO_CACHE_MAX_BYTES"):
        cache_max_bytes = int(os.environ["REPRO_CACHE_MAX_BYTES"])
    if cache_ttl is None and os.environ.get("REPRO_CACHE_TTL"):
        cache_ttl = float(os.environ["REPRO_CACHE_TTL"])
    return store_path, cache_max_bytes, cache_ttl


def _resolve_local_path_root(allow_local_paths) -> Path | None:
    """Normalize the ``allow_local_paths`` sandbox argument.

    ``None``/``False`` disables server-side paths; a string or path
    names the allow-list directory (resolved once, symlinks included,
    so later checks compare against the real location).  The old
    all-or-nothing ``True`` is rejected with a pointer to the new
    shape — silently allowing everything would be the worst reading.
    """
    if allow_local_paths is None or allow_local_paths is False:
        return None
    if allow_local_paths is True:
        raise EngineError(
            "allow_local_paths now takes the allow-list directory "
            "server-side csv paths must live under (was: a boolean); "
            "pass the directory path instead of True"
        )
    root = Path(os.fspath(allow_local_paths)).resolve()
    if not root.is_dir():
        raise EngineError(
            f"allow_local_paths directory {str(allow_local_paths)!r} "
            "does not exist or is not a directory"
        )
    return root


def make_server(
    session: DemoSession | None = None,
    host: str = "127.0.0.1",
    port: int = 0,
    service: LabelService | None = None,
    max_sessions: int = 256,
    session_ttl: float | None = None,
    allow_local_paths: "str | os.PathLike | None | bool" = None,
    store_path: str | None = None,
    cache_max_bytes: int | None = None,
    cache_ttl: float | None = None,
    metrics_registry: MetricsRegistry | None = None,
    max_streams: int = 32,
    metrics_exemplars: bool | None = None,
    trace_sample_rate: int | None = None,
    trace_slow_threshold: float | None = None,
    profile: bool | None = None,
    profile_hz: float | None = None,
    track_allocations: bool = False,
) -> ServerHandle:
    """Bind a server (port 0 = ephemeral, for tests).

    With ``session`` the server keeps the seed's single-session
    contract: the session becomes the *default* target of the
    unprefixed routes (it must have data loaded), and its service is
    shared with every registry session unless ``service`` overrides it.
    Without ``session`` the server starts empty and clients open their
    own sessions via ``POST /session``.

    When the server builds its own service (no ``session``, no
    ``service``), the ``REPRO_TRIAL_BACKEND`` environment variable
    selects the Monte-Carlo trial backend (``vectorized``, the default
    batched-array-kernel path, or ``remote``, which shards trials across
    the worker daemons listed in ``REPRO_TRIAL_WORKERS`` as
    comma-separated ``host:port``; see :mod:`repro.cluster`); an unknown
    value fails here, at startup, not on the first label request.  The
    same goes for the durable label store and the cache bounds:
    ``store_path`` (or ``REPRO_LABEL_STORE``) attaches a
    :class:`~repro.store.store.LabelStore` as the L2 tier, and
    ``cache_max_bytes``/``cache_ttl`` (or ``REPRO_CACHE_MAX_BYTES``/
    ``REPRO_CACHE_TTL``) bound the in-memory L1.  With a caller-built
    ``service`` or ``session``, configure those on the service itself.

    ``metrics_registry`` scopes the server's HTTP metrics (in-flight
    gauges, per-endpoint latency histograms, request counters) — tests
    pass a fresh one for isolation; by default everything lands in the
    process-wide registry, which ``GET /metrics`` renders alongside the
    service's component registries.

    ``max_sessions`` bounds the registry (oldest-idle eviction past
    the cap) and ``session_ttl`` expires sessions idle longer than
    that many seconds (the adopted default session is exempt from
    both).  ``allow_local_paths`` names the sandbox directory
    server-side ``"csv"`` paths in ``POST /jobs`` must resolve into
    (symlink-safe); by default they are rejected entirely, because
    they would let any client read files off the server host.

    ``max_streams`` caps concurrently-open SSE responses
    (``label.stream`` / ``POST /jobs?stream=1``); a request past the
    cap gets an immediate 503 instead of queueing, because each open
    stream pins a handler thread for its whole lifetime.

    ``metrics_exemplars`` (or ``REPRO_METRICS_EXEMPLARS``) renders
    ``/metrics`` as OpenMetrics with per-bucket trace-id exemplars;
    off by default, so existing scrapes are byte-identical.  When the
    service has a durable store, completed traces are archived into it
    through a :class:`~repro.telemetry.collect.TraceCollector` under
    tail-based sampling: errors and traces slower than
    ``trace_slow_threshold`` (or ``REPRO_TRACE_SLOW_THRESHOLD``,
    default 1s) are always kept, the rest 1-in-``trace_sample_rate``
    (``REPRO_TRACE_SAMPLE_RATE``, default 1 = keep everything).

    ``profile`` (or ``REPRO_PROFILE``) turns on *continuous* low-rate
    sampling profiling (``profile_hz``, default 19 Hz): ``GET
    /debug/profile`` windows work either way (the sampler only runs
    while a capture is open), but with continuous mode on, every slow
    archived trace also gets the profiler's rolling window archived
    beside it (``GET /traces/<id>`` then carries per-span top frames).
    ``track_allocations`` opts into ``tracemalloc`` top-allocator
    reporting in ``/engine/stats`` (real overhead; never ambient).
    """
    if session is not None and session.stage is SessionStage.EMPTY:
        raise RankingFactsError("the session has no dataset; load one before serving")
    local_path_root = _resolve_local_path_root(allow_local_paths)
    if service is None:
        if session is not None:
            service = session.service
        else:
            store_path, cache_max_bytes, cache_ttl = resolve_service_env(
                store_path, cache_max_bytes, cache_ttl
            )
            service = LabelService(
                trial_backend=os.environ.get("REPRO_TRIAL_BACKEND") or None,
                store_path=store_path,
                cache_max_bytes=cache_max_bytes,
                cache_ttl=cache_ttl,
            )
    registry = SessionRegistry(
        service, max_sessions=max_sessions, session_ttl=session_ttl
    )
    default_token = registry.adopt(session) if session is not None else None
    if metrics_exemplars is None:
        metrics_exemplars = os.environ.get(
            "REPRO_METRICS_EXEMPLARS", ""
        ).lower() in ("1", "true", "yes")
    if trace_sample_rate is None and os.environ.get("REPRO_TRACE_SAMPLE_RATE"):
        trace_sample_rate = int(os.environ["REPRO_TRACE_SAMPLE_RATE"])
    if trace_slow_threshold is None and os.environ.get(
        "REPRO_TRACE_SLOW_THRESHOLD"
    ):
        trace_slow_threshold = float(os.environ["REPRO_TRACE_SLOW_THRESHOLD"])
    profiler = get_default_profiler()
    if profile is None:
        profile = env_profile_enabled()
    owns_continuous = False
    if profile:
        owns_continuous = profiler.start_continuous(
            hz=profile_hz if profile_hz is not None else DEFAULT_CONTINUOUS_HZ
        )
    resources = ResourceCollector(track_allocations=track_allocations).install()
    collector: TraceCollector | None = None
    if registry.service.store is not None:
        collector = TraceCollector(
            archive=registry.service.store,
            policy=SamplingPolicy(
                sample_rate=trace_sample_rate or 1,
                slow_threshold=(
                    trace_slow_threshold
                    if trace_slow_threshold is not None
                    else 1.0
                ),
            ),
            # with continuous profiling on, slow traces archive the
            # profiler's rolling window beside them
            profiler=profiler if profile else None,
        )
        collector.install()
    bound_metrics = (
        metrics_registry if metrics_registry is not None else get_default_registry()
    )
    handler = type(
        "BoundHandler",
        (_RankingFactsHandler,),
        {
            "registry": registry,
            "default_token": default_token,
            "local_path_root": local_path_root,
            "metrics": bound_metrics,
            "metrics_exemplars": metrics_exemplars,
            "trace_collector": collector,
            "profiler": profiler,
            "resources": resources,
        },
    )
    # the engine reads the same registry union /metrics renders, so the
    # burn it reports is exactly what a scraper would compute
    handler.slo = SLOEngine(
        registries=lambda: [bound_metrics, get_default_registry()]
        + list(registry.service.metrics_registries())
    )
    server = DaemonServer((host, port), handler)
    server.stream_gate = _StreamGate(max_streams)
    handle = ServerHandle(
        server, registry, trace_collector=collector, resources=resources
    )
    handle.owns_continuous = owns_continuous
    handle.profiler = profiler
    return handle


def serve_forever(
    session: DemoSession | None = None,
    host: str = "127.0.0.1",
    port: int = 8000,
    session_ttl: float | None = None,
    allow_local_paths: "str | os.PathLike | None" = None,
    log_level: str | None = None,
    max_streams: int = 32,
    metrics_exemplars: bool | None = None,
    trace_sample_rate: int | None = None,
    trace_slow_threshold: float | None = None,
    profile: bool | None = None,
    track_allocations: bool = False,
) -> None:
    """Run the demo server until SIGTERM or Ctrl-C (the CLI's ``serve``).

    Either signal drains open streams and stops the server
    (:meth:`ServerHandle.stop`).  ``log_level`` (or
    ``REPRO_LOG_LEVEL``) turns on structured JSON logs on stderr, each
    line carrying the request's trace id; unset, the server stays as
    quiet as it always was.
    """
    log_level = log_level or os.environ.get("REPRO_LOG_LEVEL") or None
    if log_level:
        configure_logging(log_level)
    handle = make_server(
        session,
        host=host,
        port=port,
        session_ttl=session_ttl,
        allow_local_paths=allow_local_paths,
        max_streams=max_streams,
        metrics_exemplars=metrics_exemplars,
        trace_sample_rate=trace_sample_rate,
        trace_slow_threshold=trace_slow_threshold,
        profile=profile,
        track_allocations=track_allocations,
    )
    serve_until_stopped(
        handle,
        f"Ranking Facts demo serving on {handle.url} (Ctrl-C to stop)",
        "shutting down",
    )
