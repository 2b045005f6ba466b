"""The trial-cluster wire protocol: versioned, fingerprinted frames.

A coordinator ships Monte-Carlo work to a worker as one binary frame::

    magic    b"RFTC"                     (4 bytes)
    version  protocol major, big-endian  (2 bytes)
    start    first trial index           (8 bytes)
    stop     one past the last index     (8 bytes)
    digest   SHA-256 of the body         (32 bytes)
    minor    protocol minor, big-endian  (2 bytes)   [since minor 1]
    trace    trace id, 16 raw bytes      (16 bytes)  [since minor 1]
    body     pickle of (trial_fn, payload)

and the worker replies with the same framing around a pickled result
list (``start``/``stop`` echo the span, so a response can never be
attributed to the wrong chunk).  Four properties matter:

- **Major-version gate.**  ``version`` must equal
  :data:`PROTOCOL_VERSION` on both ends.  A worker running code of a
  different major — whose trial functions or payload dataclasses may
  have drifted — *rejects* the frame with a
  :class:`~repro.errors.ClusterError` instead of unpickling it and
  producing silently different label bytes.  Version checks also run
  at registration time: the worker's ``/healthz`` reports its protocol
  number and the coordinator refuses to schedule onto a major
  mismatch.
- **Minor revisions are additive.**  :data:`PROTOCOL_MINOR` counts
  field additions within a major.  Minor 1 added the ``minor`` and
  ``trace`` header fields — the coordinator stamps the originating
  request's trace id so worker logs and metrics can be correlated with
  it; an end that doesn't understand a propagated trace id simply
  ignores the field (all-zero trace bytes mean "no trace").  Frames
  from minor 0 (no ``minor``/``trace`` fields) still decode: the
  parser tries the current layout first and falls back to the legacy
  one, in both cases proven by the digest, so a mixed-minor pair never
  *misreads* a frame — the worst case is a clean rejection.
- **Payload fingerprint.**  ``digest`` is the SHA-256 of the body
  bytes.  A truncated or corrupted frame (proxy, partial read, flaky
  network) fails the digest check and is rejected rather than fed to
  the unpickler.  The digest is also what makes the legacy-layout
  fallback sound: exactly one layout can hash the body correctly.
- **Span framing.**  ``start``/``stop`` travel in the header, outside
  the body, so one expensive body pickle (table + design) is encoded
  once per batch and reused across every chunk of the shard.

Trust model: the body is a pickle, so a worker must only accept frames
from a coordinator it trusts (the daemon binds to localhost by
default).  This mirrors how a pickle-based process pool trusts its
parent process — the cluster is a wider process pool, not a public API.
"""

from __future__ import annotations

import hashlib
import pickle
import struct
from typing import Any, Callable

from repro.errors import ClusterError

__all__ = [
    "PROTOCOL_VERSION",
    "PROTOCOL_MINOR",
    "MAX_RESPONSE_SPANS",
    "TRACE_ID_BYTES",
    "encode_trial_work",
    "frame",
    "unframe",
    "encode_request",
    "decode_request",
    "encode_response",
    "decode_response",
    "decode_response_spans",
]

#: bump when the frame layout or the trial payload contracts change
#: incompatibly; a mismatch is rejected at probe time and frame time
PROTOCOL_VERSION = 1

#: additive revisions within the major; minor 1 added the trace-id
#: field, minor 2 added the optional span-backhaul response body (a
#: ``{"results", "spans"}`` dict instead of the bare result list —
#: both shapes decode, so mixed-minor pairs interoperate)
PROTOCOL_MINOR = 2

#: ceiling on spans accepted from one response body, over and above the
#: producer-side cap (``repro.telemetry.collect.MAX_BACKHAUL_SPANS``);
#: a misbehaving worker cannot make the coordinator buffer more
MAX_RESPONSE_SPANS = 256

#: width of the raw trace-id header field (32 hex chars when encoded)
TRACE_ID_BYTES = 16

_MAGIC = b"RFTC"
#: shared prefix of both layouts: magic, version, start, stop, digest
_HEADER_V0 = struct.Struct(">4sHQQ32s")
#: current layout appends minor (H) and the raw trace id (16s)
_HEADER = struct.Struct(">4sHQQ32sH16s")

_NO_TRACE = b"\x00" * TRACE_ID_BYTES


def _trace_bytes(trace_id: "str | None") -> bytes:
    if trace_id is None:
        return _NO_TRACE
    try:
        raw = bytes.fromhex(trace_id)
    except ValueError:
        raise ClusterError(
            f"bad trace id {trace_id!r}; expected {TRACE_ID_BYTES * 2} hex chars"
        ) from None
    if len(raw) != TRACE_ID_BYTES:
        raise ClusterError(
            f"bad trace id {trace_id!r}; expected {TRACE_ID_BYTES * 2} hex chars"
        )
    return raw


def encode_trial_work(fn: Callable, payload: Any) -> bytes:
    """Pickle ``(fn, payload)`` once, for reuse across a batch's chunks.

    Raises :class:`ClusterError` when the work cannot cross the wire,
    so the coordinator can fall back to its local backend
    deterministically.
    """
    try:
        return pickle.dumps((fn, payload))
    except Exception as exc:
        raise ClusterError(f"trial work is not picklable: {exc}") from exc


def frame(
    body: bytes, start: int = 0, stop: int = 0, trace_id: "str | None" = None
) -> bytes:
    """Wrap ``body`` in a versioned, fingerprinted frame.

    ``trace_id`` (32 hex chars, or ``None`` for the all-zero "no
    trace") rides in the header so the receiving end can tag its logs
    and metrics with the originating request's trace.
    """
    digest = hashlib.sha256(body).digest()
    return _HEADER.pack(
        _MAGIC, PROTOCOL_VERSION, start, stop, digest,
        PROTOCOL_MINOR, _trace_bytes(trace_id),
    ) + body


def unframe(data: bytes) -> tuple[bytes, int, int, "str | None"]:
    """Verify a frame; returns ``(body, start, stop, trace_id)``.

    Rejects — with a :class:`ClusterError` naming the cause — anything
    that is not a well-formed frame of *this* protocol major with an
    intact body.  Frames from minor 0 (no trace field) decode with
    ``trace_id=None``; the digest proves which layout the sender used.
    """
    if len(data) < _HEADER_V0.size:
        raise ClusterError(
            f"frame too short: {len(data)} bytes < {_HEADER_V0.size}-byte header"
        )
    magic, version, start, stop, digest = _HEADER_V0.unpack(
        data[: _HEADER_V0.size]
    )
    if magic != _MAGIC:
        raise ClusterError(f"bad frame magic {magic!r}; not a trial-cluster frame")
    if version != PROTOCOL_VERSION:
        raise ClusterError(
            f"protocol version mismatch: frame is v{version}, "
            f"this end speaks v{PROTOCOL_VERSION}"
        )
    trace_id: str | None = None
    if len(data) >= _HEADER.size:
        *_, _minor, trace_raw = _HEADER.unpack(data[: _HEADER.size])
        body = data[_HEADER.size:]
        if hashlib.sha256(body).digest() == digest:
            if trace_raw != _NO_TRACE:
                trace_id = trace_raw.hex()
            if stop < start:
                raise ClusterError(f"invalid trial span [{start}, {stop})")
            return body, start, stop, trace_id
    # legacy minor-0 layout: the body starts right after the digest
    body = data[_HEADER_V0.size:]
    if hashlib.sha256(body).digest() != digest:
        raise ClusterError("payload fingerprint mismatch: frame body corrupted")
    if stop < start:
        raise ClusterError(f"invalid trial span [{start}, {stop})")
    return body, start, stop, None


def encode_request(
    body: bytes, start: int, stop: int, trace_id: "str | None" = None
) -> bytes:
    """A chunk request: pre-encoded trial work plus its span and trace."""
    if stop <= start:
        raise ClusterError(f"chunk span [{start}, {stop}) is empty")
    return frame(body, start, stop, trace_id)


def decode_request(data: bytes) -> tuple[Callable, Any, int, int, "str | None"]:
    """Verify and unpack a request into ``(fn, payload, start, stop, trace_id)``."""
    body, start, stop, trace_id = unframe(data)
    if stop <= start:
        raise ClusterError(f"chunk span [{start}, {stop}) is empty")
    try:
        fn, payload = pickle.loads(body)
    except Exception as exc:
        raise ClusterError(f"cannot unpickle trial work: {exc}") from exc
    if not callable(fn):
        raise ClusterError(f"trial work is not callable: {type(fn).__name__}")
    return fn, payload, start, stop, trace_id


def encode_response(
    results: list,
    start: int,
    stop: int,
    trace_id: "str | None" = None,
    spans: "list[dict] | None" = None,
) -> bytes:
    """A chunk response: the span's results, span + trace echoed.

    ``spans`` (minor 2) backhauls the worker's completed trace spans —
    a bounded list of JSON-safe ``Span.as_dict()`` entries — alongside
    the results.  Without spans the body stays the bare pickled result
    list of minor <= 1, so the common path pays nothing and older
    decoders keep working.
    """
    if spans:
        body = pickle.dumps(
            {"results": list(results), "spans": list(spans)[:MAX_RESPONSE_SPANS]}
        )
    else:
        body = pickle.dumps(list(results))
    return frame(body, start, stop, trace_id)


def _decode_response_body(
    data: bytes, start: int, stop: int
) -> tuple[list, list]:
    body, got_start, got_stop, _trace = unframe(data)
    if (got_start, got_stop) != (start, stop):
        raise ClusterError(
            f"response span [{got_start}, {got_stop}) does not match "
            f"requested [{start}, {stop})"
        )
    try:
        decoded = pickle.loads(body)
    except Exception as exc:
        raise ClusterError(f"cannot unpickle chunk results: {exc}") from exc
    spans: list = []
    if isinstance(decoded, dict):  # minor-2 body: results + backhauled spans
        results = decoded.get("results")
        raw_spans = decoded.get("spans")
        if isinstance(raw_spans, list):
            spans = [
                entry for entry in raw_spans[:MAX_RESPONSE_SPANS]
                if isinstance(entry, dict)
            ]
    else:
        results = decoded
    if not isinstance(results, list):
        raise ClusterError(
            f"chunk results are {type(results).__name__}, not a list"
        )
    if len(results) != stop - start:
        raise ClusterError(
            f"chunk returned {len(results)} results for a "
            f"{stop - start}-trial span"
        )
    return results, spans


def decode_response(data: bytes, start: int, stop: int) -> list:
    """Verify a chunk response against the span the caller requested."""
    results, _spans = _decode_response_body(data, start, stop)
    return results


def decode_response_spans(data: bytes, start: int, stop: int) -> tuple[list, list]:
    """Like :func:`decode_response`, plus the backhauled span dicts."""
    return _decode_response_body(data, start, stop)
