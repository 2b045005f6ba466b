"""Request tracing: ids, a contextvars-propagated span, a trace buffer.

A *trace* is one logical request — an HTTP call, a CLI label build —
identified by a 32-hex-char ``trace_id`` (16 bytes, the width the
cluster wire frame carries).  A *span* is one timed operation inside
it: ``label.build``, ``store.get``, ``worker.chunk``.  Spans nest via a
``contextvars.ContextVar``, so the active span follows the request
through nested calls (and across threads wherever the caller copies
its context, as the batch executor does); a span opened with no parent
starts a fresh trace.

Two things happen when a span closes:

- its duration and outcome land in the ``repro_span_seconds`` histogram
  of the target registry (tagged by span name and ``ok``/``error``), so
  every instrumented operation gets a latency distribution for free;
- the completed span is appended to an in-memory ring buffer
  (:class:`TraceBuffer`), giving ``/engine/stats`` a "recently
  completed traces" view without any storage backend.

Cross-process propagation is explicit: the HTTP server accepts an
``X-Trace-Id`` request header, and the cluster coordinator stamps the
current trace id into its wire frames so worker logs and metrics carry
the originating request's id (``span(..., trace_id=...)`` adopts a
propagated id as the root of a local span tree).
"""

from __future__ import annotations

import re
import secrets
import threading
import time
from collections import deque
from collections.abc import Callable, Iterator, Mapping
from contextlib import contextmanager
from contextvars import ContextVar

from repro.telemetry.profiling import note_span_enter, note_span_exit
from repro.telemetry.registry import (
    Histogram,
    MetricsRegistry,
    get_default_registry,
    set_exemplar_source,
)

__all__ = [
    "MAX_SPAN_TAGS",
    "MAX_TAG_VALUE_CHARS",
    "TRACE_ID_BYTES",
    "Span",
    "TraceBuffer",
    "clamp_tags",
    "current_span",
    "current_trace_id",
    "get_trace_buffer",
    "is_trace_id",
    "new_span_id",
    "new_trace_id",
    "span",
    "span_seconds",
]

#: trace ids are 16 random bytes, hex-encoded (the wire frame's width)
TRACE_ID_BYTES = 16

#: per-span tag budget, enforced at record time: a pathological caller
#: (or a misbehaving worker backhauling spans) must not be able to bloat
#: ``/engine/stats`` or the durable trace archive
MAX_SPAN_TAGS = 16
MAX_TAG_VALUE_CHARS = 128

_TRACE_ID_RE = re.compile(r"^[0-9a-f]{32}$")

#: span-duration histogram buckets: spans range from sub-ms SQLite ops
#: to multi-second Monte-Carlo builds
_SPAN_BUCKETS = (
    0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1,
    0.25, 0.5, 1.0, 2.5, 5.0, 10.0, 30.0,
)


def new_trace_id() -> str:
    """A fresh 32-hex-char trace id."""
    return secrets.token_hex(TRACE_ID_BYTES)


def new_span_id() -> str:
    """A fresh 16-hex-char span id."""
    return secrets.token_hex(8)


def is_trace_id(value: object) -> bool:
    """Whether ``value`` is a well-formed trace id (wire/header safe)."""
    return isinstance(value, str) and bool(_TRACE_ID_RE.match(value))


def clamp_tags(tags: "Mapping[str, object] | dict[str, object]") -> dict[str, str]:
    """Stringify span tags under the record-time budget.

    At most :data:`MAX_SPAN_TAGS` tags survive (in insertion order —
    the caller's first tags are the ones worth keeping) and each value
    is truncated to :data:`MAX_TAG_VALUE_CHARS` characters with a ``…``
    marker.  Applied to every locally opened span *and* to spans
    revived from a worker's backhaul, so no code path can bloat the
    trace buffer or the archive.
    """
    clamped: dict[str, str] = {}
    for key, value in tags.items():
        if len(clamped) >= MAX_SPAN_TAGS:
            break
        text = str(value)
        if len(text) > MAX_TAG_VALUE_CHARS:
            text = text[: MAX_TAG_VALUE_CHARS - 1] + "…"
        clamped[str(key)[:MAX_TAG_VALUE_CHARS]] = text
    return clamped


class Span:
    """One timed operation within a trace (created by :func:`span`)."""

    __slots__ = (
        "name", "trace_id", "span_id", "parent_id", "tags",
        "started_at", "duration", "status", "error",
    )

    def __init__(self, name: str, trace_id: str, span_id: str,
                 parent_id: str | None, tags: dict[str, str]):
        self.name = name
        self.trace_id = trace_id
        self.span_id = span_id
        self.parent_id = parent_id
        self.tags = tags
        self.started_at = time.time()
        self.duration: float | None = None
        self.status = "ok"
        self.error: str | None = None

    def as_dict(self) -> dict[str, object]:
        """JSON-safe form for ``/engine/stats`` and tests."""
        entry: dict[str, object] = {
            "name": self.name,
            "trace_id": self.trace_id,
            "span_id": self.span_id,
            "parent_id": self.parent_id,
            "started_at": self.started_at,
            "duration": self.duration,
            "status": self.status,
        }
        if self.tags:
            entry["tags"] = dict(self.tags)
        if self.error is not None:
            entry["error"] = self.error
        return entry


_current_span: ContextVar[Span | None] = ContextVar(
    "repro_current_span", default=None
)


def current_span() -> Span | None:
    """The active span in this context, if any."""
    return _current_span.get()


def current_trace_id() -> str | None:
    """The active trace id in this context, if any."""
    active = _current_span.get()
    return None if active is None else active.trace_id


# histograms sample the active trace id as their per-bucket exemplar
set_exemplar_source(current_trace_id)


class TraceBuffer:
    """A bounded ring of recently completed spans (newest last).

    Listeners (see :meth:`add_listener`) observe every recorded span —
    the hook :class:`~repro.telemetry.collect.TraceCollector` uses to
    assemble whole traces without the hot path knowing about it.
    """

    def __init__(self, capacity: int = 256):
        self._capacity = capacity
        self._spans: deque[Span] = deque(maxlen=capacity)
        self._lock = threading.Lock()
        self._completed = 0
        self._dropped = 0
        self._listeners: list[Callable[[Span], None]] = []

    def record(self, span: Span) -> None:
        """Append a completed span (oldest entries fall off the ring)."""
        with self._lock:
            if len(self._spans) == self._capacity:
                self._dropped += 1
            self._spans.append(span)
            self._completed += 1
            listeners = tuple(self._listeners)
        for listener in listeners:  # outside the lock: listeners may be slow
            try:
                listener(span)
            except Exception:  # noqa: BLE001 - a broken listener must not break spans
                pass

    def add_listener(self, listener: "Callable[[Span], None]") -> None:
        """Subscribe ``listener`` to every span recorded from now on."""
        with self._lock:
            if listener not in self._listeners:
                self._listeners.append(listener)

    def remove_listener(self, listener: "Callable[[Span], None]") -> None:
        """Unsubscribe a listener (no-op if it was never added)."""
        with self._lock:
            if listener in self._listeners:
                self._listeners.remove(listener)

    def recent(self, limit: int | None = None) -> list[dict[str, object]]:
        """The newest-first JSON-safe view (at most ``limit`` spans)."""
        with self._lock:
            spans = list(self._spans)
        spans.reverse()
        if limit is not None:
            spans = spans[:limit]
        return [entry.as_dict() for entry in spans]

    @property
    def completed(self) -> int:
        """Total spans ever recorded (the ring only keeps the tail)."""
        with self._lock:
            return self._completed

    @property
    def dropped_spans(self) -> int:
        """Spans that have fallen off the ring (recorded but no longer held)."""
        with self._lock:
            return self._dropped

    def snapshot(self) -> dict[str, int]:
        """Ring health counters for ``/engine/stats``."""
        with self._lock:
            return {
                "capacity": self._capacity,
                "buffered": len(self._spans),
                "completed": self._completed,
                "dropped_spans": self._dropped,
            }

    def clear(self) -> None:
        """Drop the buffered spans (tests)."""
        with self._lock:
            self._spans.clear()


_default_buffer = TraceBuffer()


def get_trace_buffer() -> TraceBuffer:
    """The process-wide ring of recently completed spans."""
    return _default_buffer


@contextmanager
def span(
    name: str,
    trace_id: str | None = None,
    registry: MetricsRegistry | None = None,
    buffer: TraceBuffer | None = None,
    **tags: object,
) -> Iterator[Span]:
    """Open a span: times the block, records duration + outcome.

    Nested calls become children of the active span; with no parent a
    fresh trace starts.  ``trace_id`` adopts a propagated id (a wire
    frame, an ``X-Trace-Id`` header) as this context's trace — it wins
    over both the ambient trace and a fresh one.  An exception marks
    the span ``error`` (with the exception's type and message) and
    re-raises; the duration is recorded either way.
    """
    parent = _current_span.get()
    if trace_id is not None and not is_trace_id(trace_id):
        trace_id = None  # a malformed propagated id must not poison tracing
    if trace_id is None:
        trace_id = parent.trace_id if parent is not None else new_trace_id()
    entry = Span(
        name=name,
        trace_id=trace_id,
        span_id=new_span_id(),
        parent_id=parent.span_id if parent is not None else None,
        tags=clamp_tags(tags),
    )
    token = _current_span.set(entry)
    # mirror enter/exit into the profiler's per-thread table: span() runs
    # both on the executing thread, which is exactly the thread whose
    # samples should attribute to this span
    note_span_enter(name)
    start = time.perf_counter()
    try:
        yield entry
    except BaseException as exc:
        entry.status = "error"
        entry.error = f"{type(exc).__name__}: {exc}"
        raise
    finally:
        entry.duration = time.perf_counter() - start
        note_span_exit()
        _current_span.reset(token)
        (buffer if buffer is not None else _default_buffer).record(entry)
        span_seconds(registry).observe(
            entry.duration, name=name, status=entry.status
        )


def span_seconds(registry: MetricsRegistry | None = None) -> Histogram:
    """The ``repro_span_seconds`` family every span observes into."""
    target = registry if registry is not None else get_default_registry()
    return target.histogram(
        "repro_span_seconds",
        "Duration of instrumented operations (spans), by name and outcome",
        tag_names=("name", "status"),
        buckets=_SPAN_BUCKETS,
    )
