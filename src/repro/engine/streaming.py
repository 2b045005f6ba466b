"""The staged-label event protocol: widgets as they finish.

A nutritional label is a composite of independent widgets, and most of
them are cheap — recipe, ingredients, fairness, and diversity fall out
of one ranking pass, while the optional Monte-Carlo stability loop
dominates the wall clock.  This module is the contract that lets the
cheap widgets reach a consumer while the expensive one is still
running:

- :class:`LabelStreamEvent` — one step of a build: a finished widget,
  the final assembled label, or a build error.  Payloads are plain
  JSON-safe dicts, ready for any transport (the SSE front end in
  :mod:`repro.app.server`, the CLI's ``label --stream`` renderer).
- :class:`LabelEventQueue` — the bounded handoff between the build
  thread (producer) and a consumer.  The bound is the backpressure
  story: a consumer that stops draining causes :meth:`publish` to give
  up after one timeout and **abort the stream** — never block the
  build, which other waiters (the label cache, concurrent requests)
  depend on.  Aborting is one-way and consumer-safe: the producer
  keeps building, its publishes just turn into no-ops.
- :func:`replay_events` — the cache-hit path: synthesize the same
  widget event sequence from an already-built label (tagged
  ``streamed=False``), so consumers see one protocol whether the
  label was built live or served from cache.

Event ordering guarantee: widgets arrive in completion order (the
builder computes cheapest-first), every widget event precedes the
terminal event, and exactly one terminal event — ``label`` or
``error`` — ends a healthy stream.
"""

from __future__ import annotations

import queue
import threading
from collections.abc import Iterator
from dataclasses import dataclass, field
from typing import Any

from repro.label.render_json import json_safe

__all__ = [
    "LabelStreamEvent",
    "LabelEventQueue",
    "replay_events",
    "widget_event",
    "label_event",
    "error_event",
]

_CLOSE = object()  # internal queue sentinel: stream complete


@dataclass(frozen=True)
class LabelStreamEvent:
    """One step of a streamed label build.

    ``kind`` is ``"widget"`` (one finished widget), ``"label"`` (the
    terminal event: the fully assembled label), or ``"error"`` (the
    terminal event of a failed build).  ``payload`` is JSON-safe.
    ``streamed`` distinguishes live emission from cache replay.
    """

    kind: str
    payload: dict[str, Any] = field(default_factory=dict)
    name: str | None = None
    seconds: float | None = None
    streamed: bool = True

    def as_dict(self) -> dict[str, Any]:
        """The wire shape (what SSE ``data:`` frames carry)."""
        body: dict[str, Any] = {"kind": self.kind, "streamed": self.streamed}
        if self.name is not None:
            body["name"] = self.name
        if self.seconds is not None:
            body["seconds"] = self.seconds
        body.update(self.payload)
        return body


def widget_event(
    name: str, widget: Any, seconds: float | None, streamed: bool = True
) -> LabelStreamEvent:
    """A finished-widget event; the widget dict is sanitized for JSON."""
    payload = widget.as_dict() if hasattr(widget, "as_dict") else widget
    return LabelStreamEvent(
        kind="widget",
        name=name,
        seconds=seconds,
        streamed=streamed,
        payload={"widget": json_safe(payload)},
    )


def label_event(payload: dict[str, Any], streamed: bool = True) -> LabelStreamEvent:
    """The terminal event of a successful build."""
    return LabelStreamEvent(kind="label", streamed=streamed, payload=payload)


def error_event(message: str, error_type: str = "error") -> LabelStreamEvent:
    """The terminal event of a failed build."""
    return LabelStreamEvent(
        kind="error", payload={"error": message, "type": error_type}
    )


def replay_events(label: Any, seconds: float | None = None) -> list[LabelStreamEvent]:
    """The widget event sequence for an **already built** label.

    The cache-hit path: no live build to observe, so the widgets are
    replayed from the final label in display order, each tagged
    ``streamed=False``.  The terminal ``label`` event is the caller's
    job (it carries transport-specific fields like the fingerprint).
    """
    label_dict = label.as_dict()
    return [
        widget_event(name, label_dict[name], seconds, streamed=False)
        for name in label.widget_names()
    ]


class LabelEventQueue:
    """The bounded producer/consumer handoff for one label stream.

    Producer side (the build thread): :meth:`publish` each event, then
    :meth:`close` (or :meth:`abort` on failure).  Consumer side (the
    transport): :meth:`get` with a poll timeout — ``None`` means "no
    event yet" (emit a heartbeat, check for disconnect), and
    :attr:`finished` turns true once the close sentinel is consumed.

    Backpressure: the queue holds at most ``maxsize`` events.  A
    publish into a full queue waits ``publish_timeout`` seconds, then
    **aborts the whole stream** — the consumer is not draining, and the
    build must never block on a slow client (other consumers share its
    result via the label cache).  After an abort every publish is a
    cheap no-op returning ``False``; the producer finishes its build
    normally.
    """

    def __init__(self, maxsize: int = 32, publish_timeout: float = 2.0):
        if maxsize < 1:
            raise ValueError(f"maxsize must be >= 1, got {maxsize}")
        self._queue: "queue.Queue[object]" = queue.Queue(maxsize=maxsize)
        self._publish_timeout = publish_timeout
        self._lock = threading.Lock()
        self._aborted = False
        self._abort_reason: str | None = None
        self._closed = False  # producer finished (sentinel enqueued)
        self._finished = False  # consumer saw the sentinel
        self.published = 0
        self.dropped = 0

    # -- producer ---------------------------------------------------------------

    @property
    def aborted(self) -> bool:
        """Whether the stream was torn down before its natural close."""
        return self._aborted

    @property
    def abort_reason(self) -> str | None:
        """Why the stream was aborted (``None`` while healthy)."""
        return self._abort_reason

    def publish(self, event: LabelStreamEvent) -> bool:
        """Enqueue one event; ``False`` once the stream is aborted.

        Waits at most ``publish_timeout`` for queue space; a consumer
        that is not draining aborts the stream rather than blocking
        the build.
        """
        with self._lock:
            if self._aborted or self._closed:
                self.dropped += 1
                return False
        try:
            self._queue.put(event, timeout=self._publish_timeout)
        except queue.Full:
            self.abort(
                f"consumer not draining: event queue full "
                f"({self._queue.maxsize} events) for "
                f"{self._publish_timeout:g}s"
            )
            self.dropped += 1
            return False
        with self._lock:
            self.published += 1
        return True

    def close(self) -> None:
        """Producer done: wake the consumer with the close sentinel."""
        with self._lock:
            if self._closed or self._aborted:
                return
            self._closed = True
        # the sentinel must land even if the queue is momentarily full;
        # block briefly, then fall back to draining one slot for it
        try:
            self._queue.put(_CLOSE, timeout=self._publish_timeout)
        except queue.Full:
            try:
                self._queue.get_nowait()
            except queue.Empty:
                pass
            try:
                self._queue.put_nowait(_CLOSE)
            except queue.Full:  # pragma: no cover - single consumer race
                pass

    def abort(self, reason: str) -> None:
        """Tear the stream down (slow consumer, disconnect, overflow).

        Idempotent and callable from either side.  The producer keeps
        building — its publishes become no-ops — and a blocked consumer
        wakes up via the sentinel.
        """
        with self._lock:
            if self._aborted:
                return
            self._aborted = True
            self._abort_reason = reason
        # drain so a blocked producer's put() can never deadlock, then
        # leave the sentinel for the consumer
        while True:
            try:
                self._queue.get_nowait()
            except queue.Empty:
                break
        try:
            self._queue.put_nowait(_CLOSE)
        except queue.Full:  # pragma: no cover - single consumer race
            pass

    # -- consumer ---------------------------------------------------------------

    @property
    def finished(self) -> bool:
        """True once the consumer has seen the end of the stream."""
        return self._finished

    def get(self, timeout: float = 0.5) -> LabelStreamEvent | None:
        """The next event, or ``None`` after an idle ``timeout``.

        ``None`` is the heartbeat hook: the transport can write a
        keep-alive comment and detect a dead client between events.
        After the stream ends (close or abort), :attr:`finished` is
        true and every call returns ``None`` immediately.
        """
        if self._finished:
            return None
        try:
            item = self._queue.get(timeout=timeout)
        except queue.Empty:
            return None
        if item is _CLOSE:
            self._finished = True
            return None
        return item  # type: ignore[return-value]

    def events(self, timeout: float = 0.5) -> Iterator[LabelStreamEvent | None]:
        """Iterate events until the stream ends; yields ``None`` on idle."""
        while not self._finished:
            yield self.get(timeout=timeout)
