"""Sampling wall-clock profiler: collapsed stacks, per-span attribution.

The metrics/traces/logs pillars say *what* is slow and *which request*
was slow; this module answers *why*: a daemon sampler thread walks
``sys._current_frames()`` at a configurable rate and folds every
thread's stack into counted *collapsed-stack* form (the semicolon
format flamegraph tooling eats directly).  Design goals, in order:

- **zero overhead when idle.**  The sampler thread only exists while at
  least one *sink* is attached; with no window open and continuous mode
  off there is no thread, no timer, and the per-span bookkeeping is two
  dict operations — the label hot path is unaffected and label bytes
  are identical with profiling on or off (sampling only ever *reads*
  frames).
- **bounded memory by construction.**  Each sink caps its distinct
  stack table (overflow folds into one ``(overflow)`` bucket and is
  counted), stacks are depth-limited, and per-span frame tables are
  capped the same way.
- **windows don't fight continuous mode.**  Each capture is its own
  sink; one sample folds into every attached sink, the sampler runs at
  the fastest attached rate, and detaching a window never perturbs the
  always-on profile.  ``GET /debug/profile?seconds=N`` is just a
  transient sink.

Per-span attribution rides on a per-thread span-name stack maintained
by :func:`note_span_enter` / :func:`note_span_exit` (called from
``tracing.span()`` on the executing thread): a sample landing on a
thread with an open span is bucketed under that span's name, so a slow
``cluster.chunk`` in ``trace show`` can print the frames that burned
its time — on the coordinator or on a worker.
"""

from __future__ import annotations

import os
import sys
import threading
import time
from collections.abc import Mapping

__all__ = [
    "DEFAULT_CONTINUOUS_HZ",
    "DEFAULT_WINDOW_HZ",
    "MAX_PROFILE_SECONDS",
    "MAX_STACK_DEPTH",
    "ProfileReport",
    "SamplingProfiler",
    "active_span_name",
    "env_profile_enabled",
    "get_default_profiler",
    "note_span_enter",
    "note_span_exit",
    "set_default_profiler",
]

#: default sampling rates: windows sample fast (they're short-lived),
#: continuous mode samples slow (it's always on).  Primes, so the
#: sampler doesn't phase-lock with periodic work like heartbeats.
DEFAULT_WINDOW_HZ = 97.0
DEFAULT_CONTINUOUS_HZ = 19.0

#: hard bounds a request can't exceed (``/debug/profile`` is unauthenticated
#: inside the trust boundary, but a typo'd ``seconds=3600`` must not pin
#: a handler thread for an hour)
MAX_PROFILE_SECONDS = 60.0
MAX_HZ = 500.0

#: frames kept per stack; deeper stacks keep the *leaf* end (that's
#: where the time is) and gain a ``(truncated)`` root marker
MAX_STACK_DEPTH = 48

#: distinct collapsed stacks per sink before folding into ``(overflow)``
DEFAULT_MAX_STACKS = 4096

#: distinct leaf frames tracked per span name (span attribution table)
_MAX_SPAN_FRAMES = 256
_MAX_SPAN_NAMES = 512

_OVERFLOW_KEY = "(overflow)"

_TRUTHY = frozenset({"1", "true", "yes", "on"})


def env_profile_enabled(default: bool = False) -> bool:
    """Whether ``REPRO_PROFILE`` asks for always-on continuous profiling."""
    raw = os.environ.get("REPRO_PROFILE")
    if raw is None:
        return default
    return raw.strip().lower() in _TRUTHY


# -- per-thread span attribution ------------------------------------------------------
#
# The sampler thread cannot read another thread's contextvars, so the
# tracing layer mirrors its enter/exit into this plain dict keyed by
# thread id.  Only the owning thread mutates its own stack (span() is
# entered and exited on the same thread); the sampler just reads, and
# a racing pop at worst loses one sample's attribution — guarded below.

_span_stacks: dict[int, list[str]] = {}


def note_span_enter(name: str) -> None:
    """Record (on the calling thread) that a span named ``name`` opened."""
    tid = threading.get_ident()
    stack = _span_stacks.get(tid)
    if stack is None:
        _span_stacks[tid] = [name]
    else:
        stack.append(name)


def note_span_exit() -> None:
    """Record that the calling thread's innermost span closed."""
    tid = threading.get_ident()
    stack = _span_stacks.get(tid)
    if stack:
        stack.pop()
        if not stack:
            _span_stacks.pop(tid, None)  # stay bounded as threads churn


def active_span_name(thread_id: int) -> str | None:
    """The innermost open span on ``thread_id``, if any (sampler-side)."""
    stack = _span_stacks.get(thread_id)
    if not stack:
        return None
    try:
        return stack[-1]
    except IndexError:  # the owner popped between the check and the read
        return None


# -- stack folding --------------------------------------------------------------------


def _fold_stack(frame, max_depth: int = MAX_STACK_DEPTH) -> str:
    """One thread's live frame chain as a collapsed stack (root-first)."""
    names: list[str] = []
    depth = 0
    while frame is not None and depth < max_depth:
        code = frame.f_code
        names.append(f"{os.path.basename(code.co_filename)}:{code.co_name}")
        frame = frame.f_back
        depth += 1
    if frame is not None:
        names.append("(truncated)")
    names.reverse()
    return ";".join(names)


class _ProfileSink:
    """One capture's accumulator: bounded stack + span tables.

    Mutated only under the owning profiler's lock, so no lock of its own.
    """

    __slots__ = (
        "hz", "max_stacks", "owner", "started_at", "samples",
        "stacks", "span_samples", "span_frames",
        "stack_overflow", "span_overflow",
    )

    def __init__(self, hz: float, max_stacks: int, owner: int | None = None):
        self.hz = hz
        self.max_stacks = max_stacks
        # the thread blocked inside window() awaiting this capture; its
        # own sleeping frames are noise in its own report, so skip it
        self.owner = owner
        self.started_at = time.time()
        self.samples = 0
        self.stacks: dict[str, int] = {}
        self.span_samples: dict[str, int] = {}
        self.span_frames: dict[str, dict[str, int]] = {}
        self.stack_overflow = 0
        self.span_overflow = 0

    def add(self, collapsed: str, leaf: str, span_name: str | None) -> None:
        self.samples += 1
        count = self.stacks.get(collapsed)
        if count is not None:
            self.stacks[collapsed] = count + 1
        elif len(self.stacks) < self.max_stacks:
            self.stacks[collapsed] = 1
        else:
            self.stack_overflow += 1
            self.stacks[_OVERFLOW_KEY] = self.stacks.get(_OVERFLOW_KEY, 0) + 1
        if span_name is None:
            return
        if span_name not in self.span_samples and len(self.span_samples) >= _MAX_SPAN_NAMES:
            self.span_overflow += 1
            return
        self.span_samples[span_name] = self.span_samples.get(span_name, 0) + 1
        frames = self.span_frames.setdefault(span_name, {})
        if leaf in frames:
            frames[leaf] += 1
        elif len(frames) < _MAX_SPAN_FRAMES:
            frames[leaf] = 1
        else:
            self.span_overflow += 1


class ProfileReport:
    """An immutable snapshot of one capture, renderable three ways.

    ``to_collapsed()`` is the flamegraph.pl / speedscope input format;
    ``as_dict()`` is the JSON the HTTP endpoints and the store carry;
    ``render()`` is the CLI's ASCII flame summary.  ``from_dict`` round-
    trips the JSON form (the CLI uses it on fleet responses and the
    waterfall uses it on archived profiles).
    """

    def __init__(
        self,
        *,
        source: str = "process",
        started_at: float = 0.0,
        duration: float = 0.0,
        hz: float = 0.0,
        samples: int = 0,
        stacks: Mapping[str, int] | None = None,
        span_samples: Mapping[str, int] | None = None,
        span_frames: Mapping[str, Mapping[str, int]] | None = None,
        stack_overflow: int = 0,
        span_overflow: int = 0,
    ):
        self.source = source
        self.started_at = float(started_at)
        self.duration = float(duration)
        self.hz = float(hz)
        self.samples = int(samples)
        self.stacks = dict(stacks or {})
        self.span_samples = dict(span_samples or {})
        self.span_frames = {
            name: dict(frames) for name, frames in (span_frames or {}).items()
        }
        self.stack_overflow = int(stack_overflow)
        self.span_overflow = int(span_overflow)

    @property
    def is_empty(self) -> bool:
        """Whether the capture saw no samples at all."""
        return self.samples == 0

    def to_collapsed(self) -> str:
        """Collapsed-stack text: ``frame;frame;frame count`` per line."""
        lines = [
            f"{stack} {count}"
            for stack, count in sorted(
                self.stacks.items(), key=lambda item: (-item[1], item[0])
            )
        ]
        return "\n".join(lines) + ("\n" if lines else "")

    def top_frames(self, limit: int = 10) -> list[tuple[str, int]]:
        """Self-time leaders: leaf-frame sample counts across all stacks."""
        leaves: dict[str, int] = {}
        for stack, count in self.stacks.items():
            leaf = stack.rsplit(";", 1)[-1]
            leaves[leaf] = leaves.get(leaf, 0) + count
        ranked = sorted(leaves.items(), key=lambda item: (-item[1], item[0]))
        return ranked[: max(0, limit)]

    def span_top_frames(self, limit: int = 5) -> dict[str, list[tuple[str, int]]]:
        """Per-span self-time leaders (the "top frames under a span" view)."""
        out: dict[str, list[tuple[str, int]]] = {}
        for name, frames in self.span_frames.items():
            ranked = sorted(frames.items(), key=lambda item: (-item[1], item[0]))
            out[name] = ranked[: max(0, limit)]
        return out

    def as_dict(self) -> dict[str, object]:
        """JSON-safe form (HTTP ``format=json``, store payloads)."""
        return {
            "source": self.source,
            "started_at": self.started_at,
            "duration": self.duration,
            "hz": self.hz,
            "samples": self.samples,
            "distinct_stacks": len(self.stacks),
            "stack_overflow": self.stack_overflow,
            "span_overflow": self.span_overflow,
            "stacks": dict(self.stacks),
            "spans": {
                name: {
                    "samples": self.span_samples.get(name, 0),
                    "frames": dict(self.span_frames.get(name, {})),
                }
                for name in sorted(
                    set(self.span_samples) | set(self.span_frames)
                )
            },
        }

    @classmethod
    def from_dict(cls, payload: Mapping[str, object]) -> "ProfileReport":
        """Rebuild a report from its ``as_dict()`` JSON (untrusted-safe)."""
        if not isinstance(payload, Mapping):
            return cls()
        stacks: dict[str, int] = {}
        raw_stacks = payload.get("stacks")
        if isinstance(raw_stacks, Mapping):
            for stack, count in raw_stacks.items():
                if isinstance(stack, str) and isinstance(count, (int, float)):
                    stacks[stack] = int(count)
        span_samples: dict[str, int] = {}
        span_frames: dict[str, dict[str, int]] = {}
        raw_spans = payload.get("spans")
        if isinstance(raw_spans, Mapping):
            for name, entry in raw_spans.items():
                if not isinstance(name, str) or not isinstance(entry, Mapping):
                    continue
                count = entry.get("samples")
                span_samples[name] = int(count) if isinstance(count, (int, float)) else 0
                frames = entry.get("frames")
                if isinstance(frames, Mapping):
                    span_frames[name] = {
                        frame: int(n)
                        for frame, n in frames.items()
                        if isinstance(frame, str) and isinstance(n, (int, float))
                    }

        def _num(key: str, default: float = 0.0) -> float:
            value = payload.get(key)
            return float(value) if isinstance(value, (int, float)) else default

        source = payload.get("source")
        return cls(
            source=source if isinstance(source, str) else "process",
            started_at=_num("started_at"),
            duration=_num("duration"),
            hz=_num("hz"),
            samples=int(_num("samples")),
            stacks=stacks,
            span_samples=span_samples,
            span_frames=span_frames,
            stack_overflow=int(_num("stack_overflow")),
            span_overflow=int(_num("span_overflow")),
        )

    def render(self, width: int = 72, limit: int = 12, span_limit: int = 3) -> str:
        """ASCII flame summary: header, top self-time frames, per-span frames."""
        lines = [
            f"profile {self.source}  duration={self.duration:.1f}s  "
            f"hz={self.hz:g}  samples={self.samples}  "
            f"stacks={len(self.stacks)}"
        ]
        if self.is_empty:
            lines.append("  (no samples — process was idle)")
            return "\n".join(lines)
        bar_width = max(10, width - 52)
        top = self.top_frames(limit)
        peak = top[0][1] if top else 1
        lines.append("  top frames (self time):")
        for frame, count in top:
            share = count / self.samples
            bar = "█" * max(1, round(bar_width * count / peak))
            lines.append(
                f"    {bar:<{bar_width}} {share:6.1%} {count:>6}  {frame}"
            )
        per_span = self.span_top_frames(span_limit)
        if per_span:
            lines.append("  spans:")
            ranked = sorted(
                per_span.items(),
                key=lambda item: -self.span_samples.get(item[0], 0),
            )
            for name, frames in ranked:
                span_count = self.span_samples.get(name, 0)
                lines.append(f"    {name}  ({span_count} samples)")
                for frame, count in frames:
                    share = count / span_count if span_count else 0.0
                    lines.append(f"      {share:6.1%} {count:>6}  {frame}")
        if self.stack_overflow or self.span_overflow:
            lines.append(
                f"  (bounded: {self.stack_overflow} stack / "
                f"{self.span_overflow} span samples folded into overflow)"
            )
        return "\n".join(lines)


class SamplingProfiler:
    """The sampler: a daemon thread feeding any number of attached sinks.

    The thread exists only while a sink is attached; it samples at the
    fastest attached rate and exits when the last sink detaches, so an
    idle profiler costs nothing.  Detaching the last sink retires the
    thread under the lock and joins it outside, so no sampler thread
    outlives the call that stopped it; a sink attached meanwhile gets a
    new thread.  ``window()`` is a blocking capture
    (attach, sleep, detach, report); ``start_continuous()`` attaches a
    long-lived low-rate sink whose live snapshot ``continuous_report()``
    serves.  All sink state is guarded by one lock — sampling ticks are
    ~tens of microseconds, far below any sane sampling interval.
    """

    def __init__(
        self,
        source: str = "process",
        max_depth: int = MAX_STACK_DEPTH,
        max_stacks: int = DEFAULT_MAX_STACKS,
    ):
        self.source = source
        self._max_depth = max(1, int(max_depth))
        self._max_stacks = max(16, int(max_stacks))
        self._lock = threading.Lock()
        self._sinks: list[_ProfileSink] = []
        self._continuous: _ProfileSink | None = None
        self._thread: threading.Thread | None = None
        self._wake = threading.Event()
        self._ticks = 0
        self._samples_total = 0
        self._thread_starts = 0
        self._windows = 0

    # -- lifecycle ----------------------------------------------------------------------

    def _ensure_thread_locked(self) -> None:
        if self._thread is None:
            self._wake = threading.Event()
            self._thread = threading.Thread(
                target=self._run, args=(self._wake,), name="repro-profiler",
                daemon=True,
            )
            self._thread_starts += 1
            self._thread.start()
        else:
            self._wake.set()  # re-evaluate rate now, not after the old interval

    def _retire_thread_locked(self) -> tuple[threading.Thread, threading.Event] | None:
        """With no sink left, detach the sampler thread for the caller to join."""
        if self._sinks or self._thread is None:
            return None
        retired = (self._thread, self._wake)
        self._thread = None
        return retired

    @staticmethod
    def _join_retired(
        retired: tuple[threading.Thread, threading.Event] | None,
    ) -> None:
        """Wake a retired sampler thread and wait for it (outside the lock)."""
        if retired is None:
            return
        thread, wake = retired
        wake.set()
        thread.join()

    def _attach(self, sink: _ProfileSink) -> None:
        with self._lock:
            self._sinks.append(sink)
            self._ensure_thread_locked()

    def _detach(self, sink: _ProfileSink) -> None:
        with self._lock:
            if sink in self._sinks:
                self._sinks.remove(sink)
            retired = self._retire_thread_locked()
        self._join_retired(retired)

    def _run(self, wake: threading.Event) -> None:
        me = threading.current_thread()
        own = threading.get_ident()
        while True:
            with self._lock:
                if self._thread is not me:
                    return  # retired: the last sink detached
                hz = max(sink.hz for sink in self._sinks)
            interval = 1.0 / max(0.1, min(float(hz), MAX_HZ))
            if wake.wait(interval):
                wake.clear()
                continue  # sink set or rate changed; don't sample this tick
            frames = sys._current_frames()
            try:
                with self._lock:
                    if self._thread is not me:
                        continue
                    self._ticks += 1
                    for tid, frame in frames.items():
                        if tid == own:
                            continue
                        collapsed = _fold_stack(frame, self._max_depth)
                        leaf = collapsed.rsplit(";", 1)[-1]
                        span_name = active_span_name(tid)
                        for sink in self._sinks:
                            if sink.owner != tid:
                                sink.add(collapsed, leaf, span_name)
                        self._samples_total += 1
            finally:
                del frames  # drop the frame references promptly

    # -- captures -----------------------------------------------------------------------

    def window(
        self, seconds: float, hz: float = DEFAULT_WINDOW_HZ
    ) -> ProfileReport:
        """Blocking capture: sample for ``seconds`` and return the report."""
        seconds = max(0.05, min(float(seconds), MAX_PROFILE_SECONDS))
        hz = max(1.0, min(float(hz), MAX_HZ))
        sink = _ProfileSink(
            hz=hz, max_stacks=self._max_stacks, owner=threading.get_ident()
        )
        self._attach(sink)
        try:
            time.sleep(seconds)
        finally:
            self._detach(sink)
        with self._lock:
            self._windows += 1
            return self._report_locked(sink, duration=seconds)

    def start_continuous(self, hz: float = DEFAULT_CONTINUOUS_HZ) -> bool:
        """Attach the always-on low-rate sink (idempotent; ``True`` if new)."""
        hz = max(0.5, min(float(hz), MAX_HZ))
        with self._lock:
            if self._continuous is not None:
                return False
            sink = _ProfileSink(hz=hz, max_stacks=self._max_stacks)
            self._continuous = sink
            self._sinks.append(sink)
            self._ensure_thread_locked()
        return True

    def stop_continuous(self) -> ProfileReport | None:
        """Detach the continuous sink; its final report (idempotent).

        When it was the last sink, the sampler thread has exited by the
        time this returns.
        """
        with self._lock:
            sink = self._continuous
            if sink is None:
                return None
            self._continuous = None
            if sink in self._sinks:
                self._sinks.remove(sink)
            report = self._report_locked(sink)
            retired = self._retire_thread_locked()
        self._join_retired(retired)
        return report

    def rotate_continuous(self) -> ProfileReport | None:
        """Drain the continuous sink and restart it fresh (``None`` when off).

        The trace collector's hook: when a slow trace finalizes, the
        drained report is "what this process was doing lately, that
        slow trace included" — archived beside the trace, while the
        fresh sink keeps sampling without a gap.
        """
        with self._lock:
            sink = self._continuous
            if sink is None:
                return None
            report = self._report_locked(sink)
            fresh = _ProfileSink(hz=sink.hz, max_stacks=self._max_stacks)
            if sink in self._sinks:
                self._sinks.remove(sink)
            self._sinks.append(fresh)
            self._continuous = fresh
            return report

    def continuous_report(self) -> ProfileReport | None:
        """A live snapshot of the continuous sink (``None`` when off)."""
        with self._lock:
            sink = self._continuous
            if sink is None:
                return None
            return self._report_locked(sink)

    def _report_locked(
        self, sink: _ProfileSink, duration: float | None = None
    ) -> ProfileReport:
        return ProfileReport(
            source=self.source,
            started_at=sink.started_at,
            duration=(
                duration
                if duration is not None
                else max(0.0, time.time() - sink.started_at)
            ),
            hz=sink.hz,
            samples=sink.samples,
            stacks=sink.stacks,
            span_samples=sink.span_samples,
            span_frames=sink.span_frames,
            stack_overflow=sink.stack_overflow,
            span_overflow=sink.span_overflow,
        )

    # -- observability ------------------------------------------------------------------

    @property
    def running(self) -> bool:
        """Whether the sampler thread currently exists."""
        with self._lock:
            return self._thread is not None

    @property
    def continuous(self) -> bool:
        """Whether the always-on sink is attached."""
        with self._lock:
            return self._continuous is not None

    def stats(self) -> dict[str, object]:
        """JSON-safe counters for ``/engine/stats``."""
        with self._lock:
            continuous: dict[str, object] | None = None
            if self._continuous is not None:
                sink = self._continuous
                continuous = {
                    "hz": sink.hz,
                    "since": sink.started_at,
                    "samples": sink.samples,
                    "distinct_stacks": len(sink.stacks),
                }
            return {
                "running": self._thread is not None,
                "sinks": len(self._sinks),
                "windows": self._windows,
                "ticks": self._ticks,
                "samples_total": self._samples_total,
                "thread_starts": self._thread_starts,
                "continuous": continuous,
            }


_default_profiler = SamplingProfiler()
_default_lock = threading.Lock()


def get_default_profiler() -> SamplingProfiler:
    """The process-wide profiler the server, worker, and CLI share."""
    return _default_profiler


def set_default_profiler(profiler: SamplingProfiler) -> SamplingProfiler:
    """Swap the process-wide profiler (tests); returns the previous one."""
    global _default_profiler
    with _default_lock:
        previous, _default_profiler = _default_profiler, profiler
    return previous
