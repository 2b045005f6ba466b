"""Tests for repro.cluster.multiplex: the non-blocking chunk transport.

The tentpole claims worth pinning down: all chunks are on the wire at
once (wall-clock beats the serial sum), responses are parsed correctly
against Content-Length and HTTP/1.0 EOF framing, and transport deaths
are *classified* — a stale keep-alive retries, a dead-at-dispatch
worker fails over immediately instead of eating the chunk timeout, and
the final results stay byte-identical through all of it.
"""

import selectors
import socket
import time

import pytest

from repro.cluster.coordinator import RemoteTrialBackend
from repro.cluster.multiplex import (
    ChunkMultiplexer,
    ChunkStream,
    encode_http_request,
)
from repro.engine import LabelService
from repro.errors import ClusterError
from repro.label.render_json import render_json
from tests.cluster.conftest import half_closed_worker
from tests.cluster.test_remote_backend import DESIGN, jittered_table
from tests.cluster.test_wire import square

EXPECTED_20 = square({"base": 7}, 20, 0)


def slow_square(payload, trials, start):
    """Trials slow enough that one-at-a-time vs overlapped dispatch differs."""
    results = []
    for trial in range(start, start + trials):
        time.sleep(payload["delay"])
        results.append(payload["base"] + trial * trial)
    return results


class TestEncodeRequest:
    def test_wire_shape(self):
        body = b'{"x": 1}'
        raw = encode_http_request("10.0.0.9", 8101, "/trials", body)
        head, _, got_body = raw.partition(b"\r\n\r\n")
        assert head.startswith(b"POST /trials HTTP/1.1\r\n")
        assert b"Host: 10.0.0.9:8101" in head
        assert f"Content-Length: {len(body)}".encode() in head
        assert got_body == body

    def test_empty_body_still_declares_length(self):
        raw = encode_http_request("h", 1, "/trials", b"")
        assert b"Content-Length: 0" in raw
        assert raw.endswith(b"\r\n\r\n")


def _adopted_pair(reused: bool = True):
    """A ChunkStream driving one end of a socketpair, plus the peer."""
    ours, peer = socket.socketpair()
    stream = ChunkStream(
        "peer", 0,
        encode_http_request("peer", 0, "/trials", b"payload"),
        timeout=5.0,
        sock=ours,
        reused=reused,
    )
    stream.begin()  # adopts the socket and pumps the request out
    return stream, peer


class TestChunkStreamParsing:
    def test_content_length_response_completes(self):
        stream, peer = _adopted_pair()
        assert peer.recv(1 << 16).startswith(b"POST /trials HTTP/1.1")
        peer.sendall(
            b"HTTP/1.1 200 OK\r\nContent-Length: 2\r\n\r\nok"
        )
        stream.advance(selectors.EVENT_READ)
        assert stream.state == "done"
        assert stream.status == 200
        assert stream.body == b"ok"
        assert stream.reusable  # HTTP/1.1 + Content-Length: keep-alive
        stream.close()
        peer.close()

    def test_http10_body_is_read_to_eof(self):
        stream, peer = _adopted_pair()
        peer.recv(1 << 16)
        peer.sendall(b"HTTP/1.0 200 OK\r\n\r\nuntil-close")
        stream.advance(selectors.EVENT_READ)
        assert stream.state == "receiving"  # EOF is the delimiter
        peer.close()
        stream.advance(selectors.EVENT_READ)
        assert stream.state == "done"
        assert stream.body == b"until-close"
        assert not stream.reusable
        stream.close()

    def test_chunked_transfer_is_rejected(self):
        stream, peer = _adopted_pair()
        peer.recv(1 << 16)
        peer.sendall(
            b"HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\n\r\n"
        )
        stream.advance(selectors.EVENT_READ)
        assert stream.state == "failed"
        assert "chunked" in str(stream.error)
        peer.close()

    def test_eof_on_reused_socket_is_stale(self):
        stream, peer = _adopted_pair(reused=True)
        peer.recv(1 << 16)
        peer.close()  # keep-alive peer went away before responding
        stream.advance(selectors.EVENT_READ)
        assert stream.state == "failed"
        assert stream.stale
        assert not stream.dead_at_dispatch

    def test_eof_on_fresh_socket_is_dead_at_dispatch(self):
        stream, peer = _adopted_pair(reused=False)
        peer.recv(1 << 16)
        peer.close()
        stream.advance(selectors.EVENT_READ)
        assert stream.state == "failed"
        assert stream.dead_at_dispatch
        assert not stream.stale

    def test_truncated_response_is_neither(self):
        stream, peer = _adopted_pair(reused=False)
        peer.recv(1 << 16)
        peer.sendall(b"HTTP/1.1 200 OK\r\nContent-Length: 10\r\n\r\nhal")
        stream.advance(selectors.EVENT_READ)
        peer.close()
        stream.advance(selectors.EVENT_READ)
        assert stream.state == "failed"
        assert "truncated" in str(stream.error)
        # bytes arrived: not a dispatch-time death, don't blame routing
        assert not stream.dead_at_dispatch
        assert not stream.stale


class TestMultiplexer:
    def test_refused_connect_finishes_synchronously_or_on_poll(self):
        probe = socket.socket()
        probe.bind(("127.0.0.1", 0))
        port = probe.getsockname()[1]
        probe.close()
        mux = ChunkMultiplexer()
        stream = ChunkStream(
            "127.0.0.1", port,
            encode_http_request("127.0.0.1", port, "/trials", b"x"),
            timeout=5.0,
        )
        finished = [stream] if mux.submit(stream) else mux.poll(max_wait=5.0)
        assert finished == [stream]
        assert stream.state == "failed"
        assert stream.dead_at_dispatch  # refused = dead right now
        with pytest.raises(ClusterError, match="unreachable|closed"):
            raise stream.error
        mux.close()

    def test_deadline_is_enforced_without_io(self):
        # a listening socket that never accepts data keeps the stream
        # in flight; the mux must expire it at its own deadline
        sink = socket.socket()
        sink.bind(("127.0.0.1", 0))
        sink.listen(1)
        port = sink.getsockname()[1]
        mux = ChunkMultiplexer()
        stream = ChunkStream(
            "127.0.0.1", port,
            encode_http_request("127.0.0.1", port, "/trials", b"x"),
            timeout=0.3,
        )
        started = time.perf_counter()
        if not mux.submit(stream):
            while mux.active:
                mux.poll(max_wait=1.0)
        elapsed = time.perf_counter() - started
        assert stream.timed_out
        assert elapsed < 2.0
        mux.close()
        sink.close()


class TestOverlappingDispatch:
    def test_all_chunks_in_flight_beats_the_serial_sum(self, worker_pair):
        """The tentpole: every chunk is on the wire at once, so the
        wall-clock tracks the slowest chunk, not the sum of chunks."""
        one, two = worker_pair
        backend = RemoteTrialBackend(
            [one.address, two.address], probe_timeout=2, chunk_size=5
        )
        payload = {"base": 7, "delay": 0.05}
        expected = [payload["base"] + t * t for t in range(20)]
        started = time.perf_counter()
        assert backend.run(slow_square, payload, 20) == expected
        elapsed = time.perf_counter() - started
        serial = 20 * payload["delay"]  # what one-at-a-time would cost
        assert elapsed < serial * 0.8, (
            f"expected overlapped dispatch, got serial-like {elapsed:.2f}s"
        )
        assert backend.stats()["chunks_remote"] >= 4
        backend.shutdown()


class TestDeadAtDispatchFailover:
    def test_half_closed_worker_fails_over_fast(self, worker_pair):
        """The satellite bugfix: a worker whose socket half-closes at
        dispatch is detected from the EOF in milliseconds — not after
        sitting out the full chunk timeout."""
        one, _ = worker_pair
        with half_closed_worker(hold=4.0) as broken:
            backend = RemoteTrialBackend(
                [broken, one.address], timeout=10.0, probe_timeout=2
            )
            started = time.perf_counter()
            assert backend.run(square, {"base": 7}, 20) == EXPECTED_20
            elapsed = time.perf_counter() - started
            stats = backend.stats()
            backend.shutdown()
        # well under both the 10s chunk timeout and the 4s hold
        assert elapsed < 3.0, f"failover took {elapsed:.2f}s"
        assert stats["chunk_failures"] >= 1
        assert stats["chunks_failed_over"] + stats["chunks_recovered_locally"] >= 1
        by_address = {w["address"]: w for w in stats["workers"]}
        assert by_address[broken]["alive"] is False
        assert "closed the connection" in by_address[broken]["last_error"]

    def test_label_byte_identical_under_half_closed_failover(self, worker_pair):
        """End to end: the failover leaves the label byte-identical."""
        one, _ = worker_pair
        table = jittered_table(n=24, seed=3, group=True)
        serial = DESIGN.builder_for(table, dataset_name="mc").build()
        with half_closed_worker(hold=4.0) as broken:
            backend = RemoteTrialBackend(
                [broken, one.address], timeout=10.0, probe_timeout=2
            )
            with LabelService(use_cache=False, trial_backend=backend) as svc:
                outcome = svc.build_label(table, DESIGN, "mc")
        assert render_json(outcome.facts.label) == render_json(serial.label)
