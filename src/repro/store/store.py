"""The durable archive: labels, traces and profiles in one SQLite file.

:class:`LabelStore` is a content-addressed L2 cache for built labels,
keyed by the engine's content fingerprint
(:mod:`repro.engine.fingerprint`), so labels survive the process: a
restarted server warm-starts from disk, several server processes on one
host share one archive, and every label carries a provenance record
(:mod:`repro.store.provenance`) answering *how* it was produced.

The same file archives what explains a label.  There are three
**kinds** of entry, each one table with its own key:

- **labels** — pickled label payloads plus provenance, keyed by
  fingerprint;
- **traces** — completed traces kept by the tail-based sampler
  (:class:`repro.telemetry.collect.TraceCollector`), stored as
  canonical-JSON span lists and keyed by trace id;
- **profiles** — collapsed-stack captures from the sampling profiler
  (:mod:`repro.telemetry.profiling`), stored as canonical JSON and
  optionally linked to the slow trace that triggered them.

Every kind runs through one code path: one insert, one fetch (expiry,
hit/miss counting, last-access touch), one listing, one prefix resolver
and one GC loop.  What differs between kinds is data — a private
per-kind record holding its table, key, TTL, SQL and names.

Design points:

- **Byte-exact payloads.**  Labels are stored as their pickle bytes
  (``pickle.HIGHEST_PROTOCOL``), traces and profiles as canonical JSON,
  and each is served back from exactly those bytes — :meth:`get_bytes`
  and :meth:`get_trace_bytes` expose them so tests can assert the
  round trip is the identity, including across a process restart.
- **WAL mode.**  The database runs in write-ahead-log mode, so
  concurrent readers never block the (serialized) writers — the mode
  that makes one store file safe to share between processes.  A busy
  timeout covers writer contention.
- **Garbage collection, not eviction-on-read.**  Durable storage is
  cheap, so bounds are applied by explicit or insert-time :meth:`gc`.
  Labels obey ``ttl``; traces and profiles obey ``trace_ttl`` (which
  falls back to ``ttl``).  All three share *one* ``max_bytes`` budget
  and one victim order: expired profiles, traces and labels first,
  then least-recently-accessed profiles, traces and labels.  A profile
  only annotates a trace, a trace only explains a label, and a label
  costs a rebuild — and the newest label survives any budget.  Reads
  bump ``last_access``, so the order within a kind is true LRU.
- **Misses are ``None``.**  Only configuration and corruption raise
  (:class:`~repro.errors.StoreError`); a miss must stay cheap because
  the tiered cache (:mod:`repro.store.tiering`) falls through to a
  rebuild on every one.

One :class:`LabelStore` holds one connection guarded by a lock, which
is the stdlib-safe shape for ``ThreadingHTTPServer`` handlers; open
more instances (in the same or another process) for more concurrency.
"""

from __future__ import annotations

import json
import os
import pickle
import sqlite3
import threading
import time
from collections.abc import Callable
from dataclasses import dataclass, fields
from functools import cached_property
from typing import Any

from repro.errors import StoreError
from repro.store.provenance import LabelProvenance
from repro.store.schema import ensure_schema
from repro.telemetry import span

__all__ = ["StoredLabel", "StoredTrace", "StoredProfile", "LabelStore"]

#: pinned, not "whatever this interpreter defaults to": byte-exact
#: round trips across processes require one protocol everywhere
PICKLE_PROTOCOL = pickle.HIGHEST_PROTOCOL


@dataclass(frozen=True)
class StoredLabel:
    """One stored label's payload plus its accounting row."""

    fingerprint: str
    payload: bytes
    size_bytes: int
    created_at: float
    last_access: float
    hits: int

    @property
    def value(self) -> Any:
        """The label, unpickled from the stored bytes."""
        return pickle.loads(self.payload)

    def summary(self) -> dict[str, Any]:
        """JSON-safe row for listings (no payload)."""
        return {
            "fingerprint": self.fingerprint,
            "size_bytes": self.size_bytes,
            "created_at": self.created_at,
            "last_access": self.last_access,
            "hits": self.hits,
        }


@dataclass(frozen=True)
class StoredTrace:
    """One archived trace: its summary row plus the span payload."""

    trace_id: str
    root_name: str
    status: str
    started_at: float
    duration: float
    span_count: int
    payload: bytes
    size_bytes: int
    sampled: str
    created_at: float
    last_access: float

    @property
    def spans(self) -> list[dict[str, Any]]:
        """The span dicts, decoded from the canonical-JSON payload."""
        return json.loads(self.payload.decode("utf-8"))

    def summary(self) -> dict[str, Any]:
        """JSON-safe row for listings (no payload)."""
        return {
            "trace_id": self.trace_id,
            "root_name": self.root_name,
            "status": self.status,
            "started_at": self.started_at,
            "duration": self.duration,
            "span_count": self.span_count,
            "size_bytes": self.size_bytes,
            "sampled": self.sampled,
            "created_at": self.created_at,
        }


@dataclass(frozen=True)
class StoredProfile:
    """One archived profile capture: its summary row plus the payload."""

    profile_id: str
    trace_id: str | None
    source: str
    started_at: float
    duration: float
    hz: float
    sample_count: int
    payload: bytes
    size_bytes: int
    created_at: float
    last_access: float

    @property
    def report(self) -> dict[str, Any]:
        """The profiler's ``as_dict()`` shape, decoded from the payload."""
        return json.loads(self.payload.decode("utf-8"))

    def summary(self) -> dict[str, Any]:
        """JSON-safe row for listings (no payload)."""
        return {
            "profile_id": self.profile_id,
            "trace_id": self.trace_id,
            "source": self.source,
            "started_at": self.started_at,
            "duration": self.duration,
            "hz": self.hz,
            "sample_count": self.sample_count,
            "size_bytes": self.size_bytes,
            "created_at": self.created_at,
        }


def _canonical_json(value: Any) -> bytes:
    """One encoding for trace and profile payloads: byte-exact round trips."""
    return json.dumps(
        value, sort_keys=True, separators=(",", ":"), ensure_ascii=True
    ).encode("ascii")


@dataclass(frozen=True, eq=False)
class _Kind:
    """Everything that differs between the archive's kinds of entry."""

    table: str
    key: str
    record: type
    #: prefix of this kind's ``stats()`` and ``gc()`` keys
    prefix: str
    #: the :class:`LabelStore` property bounding this kind's age
    ttl: str
    #: rows an eviction pass never goes below
    keep: int
    #: newest first, no payloads; one ``LIMIT ?`` parameter
    list_sql: str
    #: bumps the access accounting; ``(now, key)`` parameters
    touch_sql: str
    span: str
    noun: str
    id_noun: str

    @cached_property
    def columns(self) -> tuple[str, ...]:
        """The fetched columns: every record field but the key and access time."""
        return tuple(
            f.name for f in fields(self.record)
            if f.name not in (self.key, "last_access")
        )


_LABELS = _Kind(
    table="labels",
    key="fingerprint",
    record=StoredLabel,
    prefix="",
    ttl="ttl",
    # oldest-accessed first, but never the newest label: an oversized
    # label still persists once (mirrors the L1 cache's same guarantee)
    keep=1,
    list_sql=(
        "SELECT l.fingerprint, l.size_bytes, l.created_at, l.last_access, "
        "l.hits, p.dataset_name, p.engine_version "
        "FROM labels l LEFT JOIN provenance p USING (fingerprint) "
        "ORDER BY l.created_at DESC LIMIT ?"
    ),
    touch_sql=(
        "UPDATE labels SET last_access = ?, hits = hits + 1 "
        "WHERE fingerprint = ?"
    ),
    span="store.get",
    noun="stored label",
    id_noun="fingerprint",
)
_TRACES = _Kind(
    table="traces",
    key="trace_id",
    record=StoredTrace,
    prefix="trace_",
    ttl="trace_ttl",
    keep=0,
    list_sql=(
        "SELECT trace_id, root_name, status, started_at, duration, "
        "span_count, size_bytes, sampled, created_at "
        "FROM traces ORDER BY created_at DESC LIMIT ?"
    ),
    touch_sql="UPDATE traces SET last_access = ? WHERE trace_id = ?",
    span="store.get_trace",
    noun="archived trace",
    id_noun="trace id",
)
_PROFILES = _Kind(
    table="profiles",
    key="profile_id",
    record=StoredProfile,
    prefix="profile_",
    ttl="trace_ttl",
    keep=0,
    list_sql=(
        "SELECT profile_id, trace_id, source, started_at, duration, hz, "
        "sample_count, size_bytes, created_at "
        "FROM profiles ORDER BY created_at DESC LIMIT ?"
    ),
    touch_sql="UPDATE profiles SET last_access = ? WHERE profile_id = ?",
    span="store.get_profile",
    noun="archived profile",
    id_noun="profile id",
)
_KINDS = (_LABELS, _TRACES, _PROFILES)
#: GC order: a profile only annotates a trace, a trace only explains a
#: label, and a label costs a rebuild
_VICTIM_ORDER = (_PROFILES, _TRACES, _LABELS)
#: per-kind counters, reported in ``stats()`` under the kind's prefix
_COUNTERS = ("puts", "gets", "hits", "misses", "expirations", "evictions")


class LabelStore:
    """Persistent fingerprint -> label mapping with provenance.

    Parameters
    ----------
    path:
        The SQLite file (created if missing, parent directory must
        exist).  ``":memory:"`` works for tests but defeats the point.
    max_bytes:
        Optional payload budget over all three kinds; when an insert
        pushes the total past it, :meth:`gc` trims expired then
        least-recently-accessed entries until it fits.
    ttl:
        Optional label age limit in seconds (against ``created_at``);
        an expired label reads as a miss and is dropped by the next GC.
    trace_ttl:
        Optional age limit for archived traces and profiles; defaults
        to ``ttl`` (``None`` = they live as long as labels do).  They
        age out independently of labels but share the ``max_bytes``
        budget.
    timeout:
        SQLite busy timeout in seconds (cross-process writer
        contention).
    clock:
        Wall-clock source (``time.time``); injectable for tests.
    """

    def __init__(
        self,
        path: str | os.PathLike,
        max_bytes: int | None = None,
        ttl: float | None = None,
        trace_ttl: float | None = None,
        timeout: float = 30.0,
        clock: Callable[[], float] = time.time,
    ):
        if max_bytes is not None and max_bytes < 1:
            raise StoreError(f"store max_bytes must be >= 1, got {max_bytes}")
        if ttl is not None and ttl <= 0:
            raise StoreError(f"store ttl must be > 0 seconds, got {ttl}")
        if trace_ttl is not None and trace_ttl <= 0:
            raise StoreError(
                f"store trace_ttl must be > 0 seconds, got {trace_ttl}"
            )
        self.path = os.fspath(path)
        self._max_bytes = max_bytes
        self._ttl = ttl
        self._trace_ttl = trace_ttl
        self._clock = clock
        self._lock = threading.RLock()
        # keyed like stats(): "hits", "trace_hits", "profile_hits", ...
        self._counts = dict.fromkeys(
            [kind.prefix + name for kind in _KINDS for name in _COUNTERS]
            + ["decode_failures"],
            0,
        )
        try:
            self._connection = sqlite3.connect(
                self.path, timeout=timeout, check_same_thread=False
            )
        except sqlite3.Error as exc:
            raise StoreError(f"cannot open label store {self.path!r}: {exc}") from exc
        try:
            self._connection.execute("PRAGMA journal_mode=WAL")
            self._connection.execute("PRAGMA synchronous=NORMAL")
            self._connection.execute("PRAGMA foreign_keys=ON")
            ensure_schema(self._connection, self.path)
        except sqlite3.Error as exc:
            self._connection.close()
            raise StoreError(
                f"{self.path!r} is not a usable label store: {exc}"
            ) from exc
        except StoreError:
            self._connection.close()
            raise

    # -- properties ------------------------------------------------------------

    @property
    def max_bytes(self) -> int | None:
        """The configured payload budget (``None`` = unbounded)."""
        return self._max_bytes

    @property
    def ttl(self) -> float | None:
        """The configured label age limit (``None`` = immortal)."""
        return self._ttl

    @property
    def trace_ttl(self) -> float | None:
        """The effective trace and profile age limit (falls back to ``ttl``)."""
        return self._trace_ttl if self._trace_ttl is not None else self._ttl

    # -- the one archive path --------------------------------------------------

    def _expired(self, kind: _Kind, created_at: float) -> bool:
        ttl = getattr(self, kind.ttl)
        return ttl is not None and self._clock() - created_at > ttl

    def _insert(
        self,
        kind: _Kind,
        key: str,
        payload: bytes,
        row: dict[str, Any],
        *also: tuple[str, tuple],
    ) -> int:
        """Write one entry (plus ``also`` statements in the same
        transaction), count it, and apply the configured bounds."""
        now = self._clock()
        row = {
            kind.key: key, **row, "payload": payload,
            "size_bytes": len(payload), "created_at": now, "last_access": now,
        }
        sql = (
            f"INSERT OR REPLACE INTO {kind.table} ({', '.join(row)}) "
            f"VALUES ({', '.join('?' * len(row))})"
        )
        with self._lock:
            with self._connection:
                self._connection.execute(sql, tuple(row.values()))
                for statement, params in also:
                    self._connection.execute(statement, params)
            self._counts[kind.prefix + "puts"] += 1
            # trace_ttl falls back to ttl, so this covers every bound
            if self._max_bytes is not None or self.trace_ttl is not None:
                self._gc_locked(self._max_bytes, self._ttl, self.trace_ttl)
        return len(payload)

    def _fetch(self, kind: _Kind, key: str) -> Any | None:
        """One entry as its record type, or ``None`` on miss/expiry."""
        counts, prefix = self._counts, kind.prefix
        with span(kind.span, **{kind.key: key[:12]}), self._lock:
            counts[prefix + "gets"] += 1
            row = self._connection.execute(
                f"SELECT {', '.join(kind.columns)} FROM {kind.table} "
                f"WHERE {kind.key} = ?",
                (key,),
            ).fetchone()
            if row is None:
                counts[prefix + "misses"] += 1
                return None
            entry = dict(zip(kind.columns, row))
            if self._expired(kind, entry["created_at"]):
                with self._connection:
                    self._connection.execute(
                        f"DELETE FROM {kind.table} WHERE {kind.key} = ?", (key,)
                    )
                counts[prefix + "expirations"] += 1
                counts[prefix + "misses"] += 1
                return None
            counts[prefix + "hits"] += 1
            now = self._clock()
            with self._connection:
                self._connection.execute(kind.touch_sql, (now, key))
            if "hits" in entry:  # mirror the touch's hit bump
                entry["hits"] += 1
            return kind.record(**{kind.key: key}, **entry, last_access=now)

    def _list(self, kind: _Kind, limit: int | None) -> list[dict[str, Any]]:
        with self._lock:
            cursor = self._connection.execute(
                kind.list_sql, (-1 if limit is None else int(limit),)
            )
            names = [column[0] for column in cursor.description]
            return [dict(zip(names, row)) for row in cursor.fetchall()]

    def _resolve(self, kind: _Kind, prefix: str) -> str:
        """Expand a key prefix to the unique full key (like a VCS).

        An ambiguous prefix raises a :class:`~repro.errors.StoreError`
        carrying the matching keys (newest first, up to ten) on its
        ``matches`` attribute, so callers can list the candidates
        instead of dead-ending.
        """
        if not prefix:
            raise StoreError(f"empty {kind.id_noun} prefix")
        if not all(c in "0123456789abcdef" for c in prefix.lower()):
            # reject, don't sanitize: stripping LIKE wildcards would
            # make "%" silently resolve to an arbitrary entry
            raise StoreError(f"{kind.id_noun} prefix {prefix!r} is not hex")
        with self._lock:
            rows = self._connection.execute(
                f"SELECT {kind.key} FROM {kind.table} WHERE {kind.key} LIKE ? "
                "ORDER BY created_at DESC LIMIT 10",
                (prefix.lower() + "%",),
            ).fetchall()
        if not rows:
            raise StoreError(f"no {kind.noun} matches {kind.id_noun} {prefix!r}")
        if len(rows) > 1:
            error = StoreError(
                f"{kind.id_noun} prefix {prefix!r} is ambiguous "
                f"({len(rows)}{'+' if len(rows) == 10 else ''} matches); "
                "give more characters"
            )
            error.matches = [row[0] for row in rows]
            raise error
        return rows[0][0]

    def _gc_locked(
        self,
        max_bytes: int | None,
        ttl: float | None,
        trace_ttl: float | None,
    ) -> dict[str, int]:
        ttls = {"ttl": ttl, "trace_ttl": trace_ttl}
        expired = dict.fromkeys(_KINDS, 0)
        evicted = dict.fromkeys(_KINDS, 0)
        with self._connection:
            for kind in _VICTIM_ORDER:
                if ttls[kind.ttl] is not None:
                    expired[kind] = self._connection.execute(
                        f"DELETE FROM {kind.table} WHERE created_at < ?",
                        (self._clock() - ttls[kind.ttl],),
                    ).rowcount
            if max_bytes is not None:
                # one budget over every table; totals are aggregated
                # once and adjusted per victim, not re-scanned
                sizes = {
                    kind: self._connection.execute(
                        "SELECT COALESCE(SUM(size_bytes), 0), COUNT(*) "
                        f"FROM {kind.table}"
                    ).fetchone()
                    for kind in _KINDS
                }
                total = sum(size for size, _ in sizes.values())
                for kind in _VICTIM_ORDER:
                    count = sizes[kind][1]
                    while total > max_bytes and count > kind.keep:
                        victim, size = self._connection.execute(
                            f"SELECT {kind.key}, size_bytes FROM {kind.table} "
                            f"ORDER BY last_access ASC, {kind.key} ASC LIMIT 1"
                        ).fetchone()
                        self._connection.execute(
                            f"DELETE FROM {kind.table} WHERE {kind.key} = ?",
                            (victim,),
                        )
                        total -= size
                        count -= 1
                        evicted[kind] += 1
        removed = {}
        for kind in _KINDS:
            self._counts[kind.prefix + "expirations"] += expired[kind]
            self._counts[kind.prefix + "evictions"] += evicted[kind]
            removed[kind.prefix + "expired"] = expired[kind]
            removed[kind.prefix + "evicted"] = evicted[kind]
        return removed

    # -- writes ----------------------------------------------------------------

    def put(
        self,
        fingerprint: str,
        value: Any,
        provenance: LabelProvenance | None = None,
    ) -> int:
        """Persist one label (and its provenance); returns payload size.

        An existing fingerprint is overwritten — the key is a content
        hash, so the bytes can only be the same payload rebuilt.
        """
        try:
            payload = pickle.dumps(value, protocol=PICKLE_PROTOCOL)
        except Exception as exc:
            raise StoreError(
                f"label {fingerprint!r} is not picklable: {exc}"
            ) from exc
        also = () if provenance is None else ((
            "INSERT OR REPLACE INTO provenance VALUES "
            "(?, ?, ?, ?, ?, ?, ?, ?, ?, ?, ?, ?)",
            provenance.as_row(),
        ),)
        with span("store.put", fingerprint=fingerprint[:12]):
            return self._insert(_LABELS, fingerprint, payload, {"hits": 0}, *also)

    def put_trace(
        self,
        trace_id: str,
        *,
        root_name: str,
        status: str,
        started_at: float,
        duration: float,
        spans: list,
        sampled: str = "sampled",
    ) -> int:
        """Archive one completed trace; returns the payload size.

        ``spans`` is the JSON-safe span-dict list the collector hands
        over; it is stored as canonical JSON so retrieval — including
        after a process restart on the same file — is byte-exact.
        Re-archiving a trace id overwrites (ids are random 128-bit, so
        a collision is the same trace finalized twice).
        """
        try:
            payload = _canonical_json(spans)
        except (TypeError, ValueError) as exc:
            raise StoreError(
                f"trace {trace_id!r} spans are not JSON-safe: {exc}"
            ) from exc
        # deliberately NOT wrapped in a span: the collector calls this
        # from its span listener, outside any request context — a span
        # here would be a fresh root, finalize, archive itself, and so
        # on forever (each archived trace spawning the next)
        return self._insert(_TRACES, trace_id, payload, {
            "root_name": root_name, "status": status,
            "started_at": started_at, "duration": duration,
            "span_count": len(spans), "sampled": sampled,
        })

    def put_profile(
        self,
        profile_id: str,
        *,
        source: str,
        started_at: float,
        duration: float,
        hz: float,
        sample_count: int,
        report: dict,
        trace_id: str | None = None,
    ) -> int:
        """Archive one profile capture; returns the payload size.

        ``report`` is the profiler's ``as_dict()`` shape, stored as
        canonical JSON (byte-exact retrieval, like traces).
        ``trace_id`` links the capture to the slow archived trace that
        triggered it; on-demand captures pass ``None``.
        """
        try:
            payload = _canonical_json(report)
        except (TypeError, ValueError) as exc:
            raise StoreError(
                f"profile {profile_id!r} report is not JSON-safe: {exc}"
            ) from exc
        # un-spanned for the same reason as put_trace: the collector
        # archives profiles from its span listener, and a span here
        # would start a fresh self-perpetuating trace
        return self._insert(_PROFILES, profile_id, payload, {
            "trace_id": trace_id, "source": source,
            "started_at": started_at, "duration": duration,
            "hz": float(hz), "sample_count": int(sample_count),
        })

    def gc(
        self,
        max_bytes: int | None = None,
        ttl: float | None = None,
        trace_ttl: float | None = None,
    ) -> dict[str, int]:
        """Trim the store; returns per-kind expired/evicted counts.

        Arguments default to the instance's configured bounds; pass
        explicit values for a one-off trim (the CLI's ``store gc``).
        A one-off ``ttl`` applies to traces and profiles too unless
        ``trace_ttl`` overrides it — the same fallback the constructor
        uses.  TTL-expired entries go first (dead weight regardless of
        the budget), then least-recently-accessed profiles, traces and
        labels, in that order, until ``max_bytes`` fits.
        """
        if trace_ttl is None:
            trace_ttl = ttl if ttl is not None else self.trace_ttl
        with self._lock:
            return self._gc_locked(
                max_bytes if max_bytes is not None else self._max_bytes,
                ttl if ttl is not None else self._ttl,
                trace_ttl,
            )

    def invalidate(self, fingerprint: str) -> bool:
        """Drop one label (and its provenance); returns whether it existed."""
        with self._lock:
            with self._connection:
                cursor = self._connection.execute(
                    "DELETE FROM labels WHERE fingerprint = ?", (fingerprint,)
                )
            return cursor.rowcount > 0

    # -- label reads -----------------------------------------------------------

    def get_record(self, fingerprint: str) -> StoredLabel | None:
        """The full stored row, or ``None`` on miss/expiry (counted)."""
        return self._fetch(_LABELS, fingerprint)

    def get(self, fingerprint: str) -> Any | None:
        """The stored label, unpickled; ``None`` on miss or expiry.

        An undecodable payload — disk corruption, or a label pickled
        against a class layout this engine no longer has — is dropped
        and served as a miss (counted in ``decode_failures``), so the
        tiered cache rebuilds it instead of failing every request on
        that fingerprint forever.
        """
        record = self.get_record(fingerprint)
        if record is None:
            return None
        try:
            return record.value
        except Exception:
            with self._lock:
                self._counts["decode_failures"] += 1
            self.invalidate(fingerprint)
            return None

    def get_bytes(self, fingerprint: str) -> bytes | None:
        """The exact stored payload bytes (byte-identity assertions)."""
        record = self.get_record(fingerprint)
        return None if record is None else record.payload

    def __contains__(self, fingerprint: str) -> bool:
        with self._lock:
            row = self._connection.execute(
                "SELECT created_at FROM labels WHERE fingerprint = ?",
                (fingerprint,),
            ).fetchone()
            return row is not None and not self._expired(_LABELS, row[0])

    def __len__(self) -> int:
        with self._lock:
            return self._connection.execute(
                "SELECT COUNT(*) FROM labels"
            ).fetchone()[0]

    def provenance(self, fingerprint: str) -> LabelProvenance | None:
        """The provenance record for one label (``None`` if unrecorded)."""
        with self._lock:
            row = self._connection.execute(
                "SELECT * FROM provenance WHERE fingerprint = ?", (fingerprint,)
            ).fetchone()
        return None if row is None else LabelProvenance.from_row(row)

    def resolve_prefix(self, prefix: str) -> str:
        """Expand a fingerprint prefix to the unique full fingerprint.

        Store fingerprints are 64 hex characters; the CLI accepts any
        unambiguous prefix.  Raises :class:`~repro.errors.StoreError`
        when nothing — or more than one label — matches; an ambiguous
        prefix lists the candidates on ``matches``.
        """
        return self._resolve(_LABELS, prefix)

    def records(self, limit: int | None = None) -> list[dict[str, Any]]:
        """Listing rows (newest first): summaries plus dataset names."""
        return self._list(_LABELS, limit)

    # -- trace archive reads ---------------------------------------------------

    def get_trace(self, trace_id: str) -> StoredTrace | None:
        """One archived trace, or ``None`` on miss/expiry (counted)."""
        return self._fetch(_TRACES, trace_id)

    def get_trace_bytes(self, trace_id: str) -> bytes | None:
        """The exact archived payload bytes (byte-identity assertions)."""
        record = self.get_trace(trace_id)
        return None if record is None else record.payload

    def trace_records(self, limit: int | None = None) -> list[dict[str, Any]]:
        """Trace listing rows (newest first), no payloads."""
        return self._list(_TRACES, limit)

    def resolve_trace_prefix(self, prefix: str) -> str:
        """Expand a trace-id prefix to the unique full id."""
        return self._resolve(_TRACES, prefix)

    # -- profile archive reads -------------------------------------------------

    def get_profile(self, profile_id: str) -> StoredProfile | None:
        """One archived profile, or ``None`` on miss/expiry (counted)."""
        return self._fetch(_PROFILES, profile_id)

    def profile_for_trace(self, trace_id: str) -> StoredProfile | None:
        """The newest profile linked to an archived trace, if any."""
        with self._lock:
            row = self._connection.execute(
                "SELECT profile_id FROM profiles WHERE trace_id = ? "
                "ORDER BY created_at DESC LIMIT 1",
                (trace_id,),
            ).fetchone()
        return None if row is None else self.get_profile(row[0])

    def profile_records(self, limit: int | None = None) -> list[dict[str, Any]]:
        """Profile listing rows (newest first), no payloads."""
        return self._list(_PROFILES, limit)

    def resolve_profile_prefix(self, prefix: str) -> str:
        """Expand a profile-id prefix to the unique full id."""
        return self._resolve(_PROFILES, prefix)

    # -- observability and lifecycle -------------------------------------------

    def stats(self) -> dict[str, Any]:
        """Counters plus the on-disk totals (the ``/engine/stats`` shape)."""
        with self._lock:
            stats: dict[str, Any] = {
                "path": self.path,
                "max_bytes": self._max_bytes,
                "ttl": self._ttl,
                "trace_ttl": self.trace_ttl,
            }
            for kind in _KINDS:
                total, count = self._connection.execute(
                    "SELECT COALESCE(SUM(size_bytes), 0), COUNT(*) "
                    f"FROM {kind.table}"
                ).fetchone()
                stats[kind.table] = count
                stats[kind.prefix + "bytes"] = total
            stats.update(self._counts)
            return stats

    def close(self) -> None:
        """Close the connection (idempotent; further calls will fail)."""
        with self._lock:
            self._connection.close()

    def __enter__(self) -> "LabelStore":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()
