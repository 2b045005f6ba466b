"""A thread-safe LRU cache for built labels.

The Monte-Carlo stability loop makes a label expensive to build and
cheap to keep: a :class:`~repro.label.builder.RankingFacts` bundle is a
few immutable dataclasses, while rebuilding it re-runs ``trials x
epsilons`` full re-rankings.  :class:`LabelCache` therefore keeps the
most recently used bundles keyed by their content fingerprint.

Three bounding mechanisms compose (any may be off):

- **entry count** (``max_size``) — the original LRU cap;
- **size in bytes** (``max_bytes``) — every entry's footprint is
  estimated at insert time (pickled size, the same bytes a shard or
  spill would pay) and least-recently-used entries are evicted until
  the total fits, so one giant table cannot silently hold the whole
  budget that ``max_size`` was tuned for;
- **time to live** (``ttl`` seconds) — an entry older than the TTL is
  treated as a miss at lookup time (and dropped), so long-running
  servers converge to fresh rebuilds instead of serving a week-old
  label forever.

Two concurrency guarantees matter for the multi-session server:

- All bookkeeping happens under one lock, so eviction and expiration
  counts (and the byte total) are exact even under concurrent load.
  Hits and misses are not counted here: the service that owns the
  cache counts each request once, by tier, in its metrics registry.
- :meth:`get_or_build` is *single-flight*: when N threads ask for the
  same missing key at once, exactly one runs the build while the others
  wait for its result — a thundering herd of identical label requests
  costs one Monte-Carlo loop, not N.
"""

from __future__ import annotations

import pickle
import sys
import threading
import time
from collections import OrderedDict
from collections.abc import Callable
from dataclasses import dataclass
from typing import Any

from repro.errors import EngineError

__all__ = ["CacheStats", "LabelCache"]

_MISSING = object()


def _estimate_size(value: Any) -> int:
    """A value's approximate footprint in bytes (pickled size).

    Pickling is what a future cache shard or disk spill would pay, so
    it is the honest unit; unpicklable values fall back to
    ``sys.getsizeof`` (shallow, but better than zero).
    """
    try:
        return len(pickle.dumps(value))
    except Exception:
        return sys.getsizeof(value)


class _CacheEntry:
    """One cached value plus its accounting facts."""

    __slots__ = ("value", "size", "stamp")

    def __init__(self, value: Any, size: int, stamp: float):
        self.value = value
        self.size = size
        self.stamp = stamp


class _BuildSlot:
    """The per-key single-flight state: a lock plus its waiter count.

    The count is what makes the failure path race-free: the slot stays
    registered until the *last* thread that grabbed it leaves, so a
    late arrival always joins the same lock instead of creating a
    fresh one and building concurrently with a retrying waiter.
    """

    __slots__ = ("lock", "waiters")

    def __init__(self):
        self.lock = threading.Lock()
        self.waiters = 0


@dataclass(frozen=True)
class CacheStats:
    """A point-in-time snapshot of the cache's occupancy and removals."""

    evictions: int
    size: int
    max_size: int
    bytes: int = 0
    max_bytes: int | None = None
    expirations: int = 0
    ttl: float | None = None

    def as_dict(self) -> dict[str, float | int | None]:
        """Plain-dict form for the ``cache`` block of ``/engine/stats``."""
        return {
            "evictions": self.evictions,
            "size": self.size,
            "max_size": self.max_size,
            "bytes": self.bytes,
            "max_bytes": self.max_bytes,
            "expirations": self.expirations,
            "ttl": self.ttl,
        }


class LabelCache:
    """Thread-safe LRU mapping of fingerprint -> built value.

    Parameters
    ----------
    max_size:
        Entries kept; the least recently *used* entry is evicted first.
    max_bytes:
        Optional byte budget over the entries' estimated (pickled)
        sizes; LRU entries are evicted until the total fits.  The most
        recently inserted entry is never evicted by the byte budget,
        so a single oversized value still caches (and is the next
        eviction victim).
    ttl:
        Optional time-to-live in seconds; an entry older than this is
        dropped at lookup time (counted as an expiration) and looks
        like a missing key.
    clock:
        The time source (monotonic seconds); injectable for tests.
    """

    def __init__(
        self,
        max_size: int = 64,
        max_bytes: int | None = None,
        ttl: float | None = None,
        clock: Callable[[], float] = time.monotonic,
    ):
        if max_size < 1:
            raise EngineError(f"cache max_size must be >= 1, got {max_size}")
        if max_bytes is not None and max_bytes < 1:
            raise EngineError(f"cache max_bytes must be >= 1, got {max_bytes}")
        if ttl is not None and ttl <= 0:
            raise EngineError(f"cache ttl must be > 0 seconds, got {ttl}")
        self._max_size = max_size
        self._max_bytes = max_bytes
        self._ttl = ttl
        self._clock = clock
        self._entries: OrderedDict[str, _CacheEntry] = OrderedDict()
        self._bytes = 0
        self._lock = threading.Lock()
        self._build_locks: dict[str, _BuildSlot] = {}
        self._evictions = 0
        self._expirations = 0

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def __contains__(self, key: str) -> bool:
        with self._lock:
            entry = self._entries.get(key)
            return entry is not None and not self._expired(entry)

    # -- internals (call with the lock held) -----------------------------------

    def _expired(self, entry: _CacheEntry) -> bool:
        return self._ttl is not None and self._clock() - entry.stamp > self._ttl

    def _drop_locked(self, key: str) -> None:
        entry = self._entries.pop(key, None)
        if entry is not None:
            self._bytes -= entry.size

    def _peek_locked(self, key: str) -> Any:
        """Fetch + LRU-touch, expiring stale entries."""
        entry = self._entries.get(key)
        if entry is not None and self._expired(entry):
            self._drop_locked(key)
            self._expirations += 1
            entry = None
        if entry is None:
            return _MISSING
        self._entries.move_to_end(key)
        return entry.value

    def _sweep_expired_locked(self) -> None:
        """Drop every TTL-expired entry (counted as expirations).

        Run before evicting under pressure: an expired entry is dead
        weight whatever its LRU position, so it must never cost a live
        entry its slot — and dropping it counts as an expiration, not
        an eviction, keeping the two counters honest.
        """
        if self._ttl is None:
            return
        for key in [
            key for key, entry in self._entries.items() if self._expired(entry)
        ]:
            self._drop_locked(key)
            self._expirations += 1

    def _put_locked(self, key: str, value: Any) -> None:
        self._drop_locked(key)
        entry = _CacheEntry(value, _estimate_size(value), self._clock())
        self._entries[key] = entry
        self._bytes += entry.size
        if len(self._entries) > self._max_size or (
            self._max_bytes is not None and self._bytes > self._max_bytes
        ):
            self._sweep_expired_locked()
        while len(self._entries) > self._max_size:
            _, evicted = self._entries.popitem(last=False)
            self._bytes -= evicted.size
            self._evictions += 1
        if self._max_bytes is not None:
            # keep at least the fresh entry: an oversized value still
            # caches once rather than looping forever
            while self._bytes > self._max_bytes and len(self._entries) > 1:
                _, evicted = self._entries.popitem(last=False)
                self._bytes -= evicted.size
                self._evictions += 1

    # -- public API ------------------------------------------------------------

    def get(self, key: str, default: Any = None) -> Any:
        """Look up ``key`` (an expired entry is dropped and not returned)."""
        with self._lock:
            value = self._peek_locked(key)
            return default if value is _MISSING else value

    def put(self, key: str, value: Any) -> None:
        """Insert (or refresh) ``key``, evicting LRU entries past the caps."""
        with self._lock:
            self._put_locked(key, value)

    def get_or_build(self, key: str, build: Callable[[], Any]) -> tuple[Any, bool]:
        """Return ``(value, was_cached)``; build at most once per key.

        Concurrent callers with the same missing key serialize on a
        per-key lock: the first runs ``build()``, the rest find the
        fresh entry when the lock frees.  Distinct keys build fully in
        parallel.  A failing build propagates to every waiter that
        reaches the builder (the key stays absent); waiters retry the
        build one at a time, never concurrently — the slot is only
        unregistered once its last holder leaves, so arrivals during a
        retry join the same lock instead of minting a fresh one.
        """
        with self._lock:
            value = self._peek_locked(key)
            if value is not _MISSING:
                return value, True
            slot = self._build_locks.setdefault(key, _BuildSlot())
            slot.waiters += 1
        try:
            with slot.lock:
                # someone may have finished the build while we waited
                with self._lock:
                    value = self._peek_locked(key)
                    if value is not _MISSING:
                        return value, True
                value = build()
                with self._lock:
                    self._put_locked(key, value)
                return value, False
        finally:
            with self._lock:
                slot.waiters -= 1
                if slot.waiters == 0 and self._build_locks.get(key) is slot:
                    del self._build_locks[key]

    def invalidate(self, key: str) -> bool:
        """Drop one entry; returns whether it existed."""
        with self._lock:
            existed = key in self._entries
            self._drop_locked(key)
            return existed

    def clear(self) -> None:
        """Drop every entry (stats are kept)."""
        with self._lock:
            self._entries.clear()
            self._bytes = 0

    def stats(self) -> CacheStats:
        """A consistent snapshot of occupancy, bounds and removal counts."""
        with self._lock:
            return CacheStats(
                evictions=self._evictions,
                size=len(self._entries),
                max_size=self._max_size,
                bytes=self._bytes,
                max_bytes=self._max_bytes,
                expirations=self._expirations,
                ttl=self._ttl,
            )
