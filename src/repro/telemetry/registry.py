"""Thread-safe metrics primitives: the one registry every layer shares.

A :class:`MetricsRegistry` holds named metric *families* — `Counter`,
`Gauge`, and fixed-bucket `Histogram` — each of which fans out into
*series* keyed by a frozen tag tuple (``(("route", "/label"), ...)``).
The design goals, in order:

- **stdlib-only and cheap on the hot path.**  An increment is one dict
  lookup plus one striped-lock acquire; no allocation beyond the tag
  tuple.  Lock striping (``hash(series key) % stripes``) keeps
  concurrent updates to *different* series from serializing on one
  lock, while updates to the *same* series stay atomic.
- **bounded cardinality by construction.**  A family declares its tag
  names at registration; an update must supply exactly those names, so
  a typo (or an unbounded value like a session token) fails loudly
  instead of silently growing a new series per request.
- **registration is idempotent.**  ``registry.counter("x", ...)``
  returns the existing family when called twice with a compatible
  declaration — instrumentation code can ask for its metric at the
  call site without threading family objects around — and raises on a
  kind/tag mismatch, which is always a bug.

One process-wide default registry (:func:`get_default_registry`) is
what the HTTP server, the engine, and the cluster daemons write to
unless handed an explicit registry (tests isolate themselves by
constructing their own, or by installing a fresh default).  Stats
snapshots read their counts back with ``count()``, so an event is
counted once, per registry.  :func:`merged_stats` assembles a
``stats()`` dict from flat keys and sections.
"""

from __future__ import annotations

import threading
import time
from bisect import bisect_left
from collections.abc import Callable, Mapping, Sequence

from repro.errors import TelemetryError

__all__ = [
    "DEFAULT_LATENCY_BUCKETS",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "get_default_registry",
    "set_default_registry",
    "set_exemplar_source",
    "merged_stats",
]

#: zero-arg callable returning the active trace id (or ``None``); the
#: tracing module injects :func:`~repro.telemetry.tracing.
#: current_trace_id` at import so histograms can attach per-bucket
#: exemplars without this module depending on tracing (which imports us)
_exemplar_source: Callable[[], str | None] | None = None


def set_exemplar_source(source: Callable[[], str | None] | None) -> None:
    """Install the trace-id provider histogram exemplars sample from."""
    global _exemplar_source
    _exemplar_source = source

#: seconds; Prometheus-style request-latency defaults (le semantics)
DEFAULT_LATENCY_BUCKETS = (
    0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1,
    0.25, 0.5, 1.0, 2.5, 5.0, 10.0,
)


def _freeze_tags(tag_names: tuple[str, ...], tags: Mapping[str, object]) -> tuple:
    """The series key: values frozen as strings, in declared name order."""
    if set(tags) != set(tag_names):
        raise TelemetryError(
            f"metric update tags {sorted(tags)} do not match the declared "
            f"tag names {sorted(tag_names)}"
        )
    return tuple((name, str(tags[name])) for name in tag_names)


class _MetricFamily:
    """Shared plumbing: series registry + striped locking."""

    kind = "untyped"

    def __init__(self, registry: "MetricsRegistry", name: str, help: str,
                 tag_names: tuple[str, ...]):
        self._registry = registry
        self.name = name
        self.help = help
        self.tag_names = tag_names
        self._series: dict[tuple, object] = {}
        self._series_lock = threading.Lock()  # guards dict shape only

    def _lock_for(self, key: tuple) -> threading.Lock:
        return self._registry._stripe_for(self.name, key)

    def _slot(self, key: tuple, default: Callable[[], object]) -> object:
        slot = self._series.get(key)
        if slot is None:
            with self._series_lock:
                slot = self._series.setdefault(key, default())
        return slot

    def series(self) -> list[tuple[tuple, object]]:
        """``(tag tuple, value)`` pairs, sorted for deterministic export."""
        with self._series_lock:
            items = list(self._series.items())
        return sorted(items, key=lambda item: item[0])

    def _declaration(self) -> tuple:
        return (self.kind, self.tag_names)

    def count(self, **tags: object) -> int:
        """Events in every series whose tags include ``tags`` (a subset of
        the declared names): a counter's total, a histogram's observations."""
        if not set(tags) <= set(self.tag_names):
            raise TelemetryError(f"metric {self.name} has no tags {sorted(tags)}")
        wanted = {(name, str(value)) for name, value in tags.items()}
        total = 0.0
        for key, cell in self.series():
            if wanted.issubset(key):
                with self._lock_for(key):
                    hist = isinstance(cell, _HistogramCell)
                    total += cell.count if hist else cell.value
        return int(total)


class _Cell:
    """One mutable float slot (lists would read as 'why a list?')."""

    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value = 0.0


class Counter(_MetricFamily):
    """A monotonically increasing count (renders with a ``_total`` name)."""

    kind = "counter"

    def inc(self, amount: float = 1.0, **tags: object) -> None:
        """Add ``amount`` (>= 0) to the series selected by ``tags``."""
        if amount < 0:
            raise TelemetryError(f"counter {self.name} cannot decrease ({amount})")
        key = _freeze_tags(self.tag_names, tags)
        cell = self._slot(key, _Cell)
        with self._lock_for(key):
            cell.value += amount

    def value(self, **tags: object) -> float:
        """The series' current total (0 if never incremented)."""
        key = _freeze_tags(self.tag_names, tags)
        cell = self._series.get(key)
        if cell is None:
            return 0.0
        with self._lock_for(key):
            return cell.value


class Gauge(_MetricFamily):
    """A value that goes up and down (in-flight requests, pool sizes)."""

    kind = "gauge"

    def set(self, value: float, **tags: object) -> None:
        """Replace the series' value outright."""
        key = _freeze_tags(self.tag_names, tags)
        cell = self._slot(key, _Cell)
        with self._lock_for(key):
            cell.value = float(value)

    def inc(self, amount: float = 1.0, **tags: object) -> None:
        """Add ``amount`` to the series (negative amounts allowed)."""
        key = _freeze_tags(self.tag_names, tags)
        cell = self._slot(key, _Cell)
        with self._lock_for(key):
            cell.value += amount

    def dec(self, amount: float = 1.0, **tags: object) -> None:
        """Subtract ``amount`` from the series."""
        self.inc(-amount, **tags)

    def value(self, **tags: object) -> float:
        """The series' current value (0 if never touched)."""
        key = _freeze_tags(self.tag_names, tags)
        cell = self._series.get(key)
        if cell is None:
            return 0.0
        with self._lock_for(key):
            return cell.value


class _HistogramCell:
    __slots__ = ("counts", "sum", "count", "exemplars")

    def __init__(self, buckets: int):
        self.counts = [0] * (buckets + 1)  # +1: the implicit +Inf bucket
        self.sum = 0.0
        self.count = 0
        # per-bucket (trace_id, value, unix_ts) — allocated lazily on the
        # first traced observation so untraced histograms pay nothing
        self.exemplars: list | None = None


class Histogram(_MetricFamily):
    """Fixed upper-bound buckets with Prometheus ``le`` (<=) semantics.

    ``observe(v)`` lands in the first bucket whose bound is ``>= v`` —
    a value exactly on a bucket edge belongs to that bucket, which is
    what ``bisect_left`` gives us — and values above the last bound go
    to the implicit ``+Inf`` bucket.  The exporter cumulates.
    """

    kind = "histogram"

    def __init__(self, registry: "MetricsRegistry", name: str, help: str,
                 tag_names: tuple[str, ...],
                 buckets: Sequence[float] = DEFAULT_LATENCY_BUCKETS):
        super().__init__(registry, name, help, tag_names)
        bounds = tuple(float(b) for b in buckets)
        if not bounds:
            raise TelemetryError(f"histogram {name} needs at least one bucket")
        if list(bounds) != sorted(set(bounds)):
            raise TelemetryError(
                f"histogram {name} buckets must be strictly increasing: {bounds}"
            )
        self.buckets = bounds

    def _declaration(self) -> tuple:
        return (self.kind, self.tag_names, self.buckets)

    def observe(self, value: float, **tags: object) -> None:
        """Record one observation into the series selected by ``tags``.

        When a trace is active (see :func:`set_exemplar_source`) the
        observation's trace id is kept as the bucket's exemplar — the
        last traced observation per bucket — which the exporter can
        render (behind its ``exemplars`` flag) per OpenMetrics.
        """
        key = _freeze_tags(self.tag_names, tags)
        cell = self._slot(key, lambda: _HistogramCell(len(self.buckets)))
        index = bisect_left(self.buckets, value)
        source = _exemplar_source
        trace_id = source() if source is not None else None
        with self._lock_for(key):
            cell.counts[index] += 1
            cell.sum += value
            cell.count += 1
            if trace_id is not None:
                if cell.exemplars is None:
                    cell.exemplars = [None] * len(cell.counts)
                cell.exemplars[index] = (trace_id, value, time.time())

    def snapshot_series(self, **tags: object) -> dict[str, object]:
        """One series' state: per-bucket counts, sum, count (tests/stats)."""
        key = _freeze_tags(self.tag_names, tags)
        cell = self._series.get(key)
        if cell is None:
            return {"counts": [0] * (len(self.buckets) + 1), "sum": 0.0, "count": 0}
        with self._lock_for(key):
            return {"counts": list(cell.counts), "sum": cell.sum, "count": cell.count}


class MetricsRegistry:
    """A named collection of metric families with striped series locks."""

    def __init__(self, stripes: int = 16):
        if stripes < 1:
            raise TelemetryError(f"stripes must be >= 1, got {stripes}")
        self._families: dict[str, _MetricFamily] = {}
        self._registry_lock = threading.Lock()
        self._stripes = tuple(threading.Lock() for _ in range(stripes))

    def _stripe_for(self, name: str, key: tuple) -> threading.Lock:
        return self._stripes[hash((name, key)) % len(self._stripes)]

    def _register(self, cls, name: str, help: str,
                  tag_names: Sequence[str], **kwargs) -> _MetricFamily:
        names = tuple(tag_names)
        with self._registry_lock:
            existing = self._families.get(name)
            if existing is not None:
                probe = cls(self, name, help, names, **kwargs)
                if existing._declaration() != probe._declaration():
                    raise TelemetryError(
                        f"metric {name!r} already registered as "
                        f"{existing._declaration()}, not {probe._declaration()}"
                    )
                return existing
            family = cls(self, name, help, names, **kwargs)
            self._families[name] = family
            return family

    def counter(self, name: str, help: str = "", tag_names: Sequence[str] = ()) -> Counter:
        """Get-or-register a counter family."""
        return self._register(Counter, name, help, tag_names)

    def gauge(self, name: str, help: str = "", tag_names: Sequence[str] = ()) -> Gauge:
        """Get-or-register a gauge family."""
        return self._register(Gauge, name, help, tag_names)

    def histogram(self, name: str, help: str = "", tag_names: Sequence[str] = (),
                  buckets: Sequence[float] = DEFAULT_LATENCY_BUCKETS) -> Histogram:
        """Get-or-register a histogram family."""
        return self._register(Histogram, name, help, tag_names, buckets=buckets)

    def families(self) -> list[_MetricFamily]:
        """Every registered family, sorted by name (exporters iterate this)."""
        with self._registry_lock:
            return sorted(self._families.values(), key=lambda f: f.name)

    def snapshot(self) -> dict[str, object]:
        """A JSON-safe dump of every series (the ``/engine/stats`` block).

        Histograms are summarized as ``{count, sum}`` per series rather
        than full bucket vectors — the full shape lives in ``/metrics``.
        """
        out: dict[str, object] = {}
        for family in self.families():
            series_out = []
            for key, cell in family.series():
                tags = dict(key)
                if isinstance(cell, _HistogramCell):
                    lock = self._stripe_for(family.name, key)
                    with lock:
                        series_out.append(
                            {"tags": tags, "count": cell.count, "sum": cell.sum}
                        )
                else:
                    lock = self._stripe_for(family.name, key)
                    with lock:
                        series_out.append({"tags": tags, "value": cell.value})
            out[family.name] = {"kind": family.kind, "series": series_out}
        return out


_default_registry = MetricsRegistry()
_default_lock = threading.Lock()


def get_default_registry() -> MetricsRegistry:
    """The process-wide registry instrumented code writes to by default."""
    return _default_registry


def set_default_registry(registry: MetricsRegistry) -> MetricsRegistry:
    """Swap the process-wide registry (tests); returns the previous one."""
    global _default_registry
    with _default_lock:
        previous, _default_registry = _default_registry, registry
    return previous


def merged_stats(base: "Mapping | Callable[[], Mapping] | None" = None,
                 /, **sections) -> dict[str, object]:
    """Assemble a stats snapshot from flat keys plus named sections.

    The one dict-assembly helper behind every ``stats()``; it only
    shapes the snapshot, whose counts each component reads from its
    own ints or its registry families.  ``base`` (a mapping or a
    zero-arg callable) provides the flat keys; each keyword is a nested
    section.  ``None`` sources (and sources that resolve to ``None``)
    are skipped, so optional sections like a missing store or a backend
    without cluster stats simply don't appear.
    """
    snapshot: dict[str, object] = dict(base() if callable(base) else (base or {}))
    for name, source in sections.items():
        if source is None:
            continue
        value = source() if callable(source) else source
        if value is None:
            continue
        snapshot[name] = dict(value) if isinstance(value, Mapping) else value
    return snapshot
