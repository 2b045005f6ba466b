"""Tests for repro.cluster.wire: framing, versioning, fingerprints.

The wire layer's contract is *reject, don't guess*: anything that is
not a well-formed frame of this protocol version with an intact body
raises :class:`ClusterError` before any pickle byte is interpreted.
"""

import struct

import pytest

from repro.cluster import wire
from repro.errors import ClusterError


def square(payload, trials, start):
    return [payload["base"] + t * t for t in range(start, start + trials)]


class TestRoundTrip:
    def test_request_roundtrip(self):
        body = wire.encode_trial_work(square, {"base": 3})
        data = wire.encode_request(body, 4, 9)
        fn, payload, start, stop, trace_id = wire.decode_request(data)
        assert fn is square
        assert payload == {"base": 3}
        assert (start, stop) == (4, 9)
        assert trace_id is None  # no trace was stamped

    def test_request_roundtrip_carries_the_trace_id(self):
        body = wire.encode_trial_work(square, {"base": 3})
        trace = "ab" * wire.TRACE_ID_BYTES
        data = wire.encode_request(body, 4, 9, trace)
        *_, trace_id = wire.decode_request(data)
        assert trace_id == trace

    def test_bad_trace_id_is_rejected_at_encode_time(self):
        body = wire.encode_trial_work(square, {"base": 3})
        with pytest.raises(ClusterError, match="bad trace id"):
            wire.encode_request(body, 4, 9, "not-hex")
        with pytest.raises(ClusterError, match="bad trace id"):
            wire.encode_request(body, 4, 9, "abcd")  # too short

    def test_legacy_minor0_frame_still_decodes(self):
        # a minor-0 peer frames without the minor/trace fields; the
        # digest proves which layout the sender used
        body = wire.encode_trial_work(square, {"base": 3})
        import hashlib

        digest = hashlib.sha256(body).digest()
        legacy = (
            struct.pack(">4sHQQ32s", b"RFTC", wire.PROTOCOL_VERSION, 4, 9, digest)
            + body
        )
        fn, payload, start, stop, trace_id = wire.decode_request(legacy)
        assert fn is square
        assert (start, stop) == (4, 9)
        assert trace_id is None

    def test_response_roundtrip(self):
        data = wire.encode_response([1, 2, 3], 5, 8)
        assert wire.decode_response(data, 5, 8) == [1, 2, 3]

    def test_empty_span_is_rejected_at_encode_time(self):
        body = wire.encode_trial_work(square, {"base": 3})
        with pytest.raises(ClusterError, match="empty"):
            wire.encode_request(body, 5, 5)

    def test_unpicklable_work_raises_cluster_error(self):
        import threading

        with pytest.raises(ClusterError, match="not picklable"):
            wire.encode_trial_work(square, {"poison": threading.Lock()})


class TestRejection:
    def _request(self, start=0, stop=4):
        body = wire.encode_trial_work(square, {"base": 3})
        return wire.encode_request(body, start, stop)

    def test_truncated_frame(self):
        with pytest.raises(ClusterError, match="too short"):
            wire.unframe(b"RFTC\x00")

    def test_bad_magic(self):
        data = b"NOPE" + self._request()[4:]
        with pytest.raises(ClusterError, match="magic"):
            wire.decode_request(data)

    def test_version_mismatch_is_rejected_not_unpickled(self):
        data = bytearray(self._request())
        # rewrite the version field (bytes 4-6, big-endian u16)
        data[4:6] = struct.pack(">H", wire.PROTOCOL_VERSION + 1)
        with pytest.raises(ClusterError, match="protocol version mismatch"):
            wire.decode_request(bytes(data))

    def test_v1_frame_is_refused(self):
        """Major 1 shipped a per-trial ``fn(payload, trial)``; an end that
        calls ``fn(payload, trials, start)`` must refuse it, not run it."""
        assert wire.PROTOCOL_VERSION == 2
        data = bytearray(self._request())
        data[4:6] = struct.pack(">H", 1)
        with pytest.raises(
            ClusterError,
            match="protocol version mismatch: frame is v1, this end speaks v2",
        ):
            wire.decode_request(bytes(data))

    def test_corrupted_body_fails_the_fingerprint(self):
        data = bytearray(self._request())
        data[-1] ^= 0xFF  # flip one payload bit
        with pytest.raises(ClusterError, match="fingerprint mismatch"):
            wire.decode_request(bytes(data))

    def test_truncated_body_fails_the_fingerprint(self):
        data = self._request()
        with pytest.raises(ClusterError, match="fingerprint mismatch"):
            wire.decode_request(data[:-3])

    def test_response_span_must_match_the_request(self):
        data = wire.encode_response([1, 2], 0, 2)
        with pytest.raises(ClusterError, match="does not match"):
            wire.decode_response(data, 2, 4)

    def test_response_length_must_match_the_span(self):
        data = wire.encode_response([1, 2], 0, 3)
        with pytest.raises(ClusterError, match="2 results"):
            wire.decode_response(data, 0, 3)
