"""Every transport failure class maps to its documented recovery.

The contract (multiplex.py / coordinator.py docstrings), as one table:

==================  ============================================
class               documented coordinator behavior
==================  ============================================
stale               one transparent retry on the SAME worker over a
                    fresh socket; the worker is not blamed (no breaker
                    failure, no failover, no retry-budget cost)
dead_at_dispatch    immediate failover to another worker — never
                    waits out the chunk timeout
timed_out           failover; the chunk is never retried on the
                    worker that timed out
==================  ============================================

Each row gets asserted two ways: the multiplexer labels the death
correctly (``ChunkStream.failure_class``), and a real coordinator run
through that fault behaves as documented — with results byte-identical
to serial either way.
"""

from __future__ import annotations

import selectors
import socket
import time

import pytest

from repro.cluster.coordinator import RemoteTrialBackend
from repro.cluster.multiplex import ChunkStream, encode_http_request
from repro.cluster.policy import FailurePolicy
from repro.cluster.worker import make_worker
from tests.cluster.faults import (
    dead_address,
    faulty_worker,
    half_closed_worker,
)
from tests.cluster.test_wire import square

EXPECTED_20 = square({"base": 7}, 20, 0)

#: the documented retry/failover contract per failure class
RETRY_CONTRACT = {
    "stale": {"same_worker_retry": True, "fails_over": False, "blames_worker": False},
    "dead_at_dispatch": {"same_worker_retry": False, "fails_over": True, "blames_worker": True},
    "timed_out": {"same_worker_retry": False, "fails_over": True, "blames_worker": True},
}


class TestStreamClassification:
    """The multiplexer labels each death with the right class."""

    @staticmethod
    def _stream(reused: bool, timeout: float = 5.0):
        ours, peer = socket.socketpair()
        stream = ChunkStream(
            "peer", 0,
            encode_http_request("peer", 0, "/trials", b"payload"),
            timeout=timeout,
            sock=ours,
            reused=reused,
        )
        stream.begin()
        return stream, peer

    def test_healthy_stream_has_no_failure_class(self):
        stream, peer = self._stream(reused=True)
        peer.recv(1 << 16)
        peer.sendall(b"HTTP/1.1 200 OK\r\nContent-Length: 2\r\n\r\nok")
        stream.advance(selectors.EVENT_READ)
        assert stream.state == "done"
        assert stream.failure_class is None
        stream.close()
        peer.close()

    def test_eof_on_reused_socket_is_stale(self):
        stream, peer = self._stream(reused=True)
        peer.recv(1 << 16)
        peer.close()
        stream.advance(selectors.EVENT_READ)
        assert stream.failure_class == "stale"

    def test_eof_on_fresh_socket_is_dead_at_dispatch(self):
        stream, peer = self._stream(reused=False)
        peer.recv(1 << 16)
        peer.close()
        stream.advance(selectors.EVENT_READ)
        assert stream.failure_class == "dead_at_dispatch"

    def test_deadline_expiry_is_timed_out(self):
        stream, peer = self._stream(reused=True, timeout=0.1)
        peer.recv(1 << 16)  # request arrives; no response ever comes
        time.sleep(0.15)
        stream.expire()
        assert stream.failure_class == "timed_out"
        peer.close()

    def test_each_contract_row_has_a_class(self):
        # the table and the classifier must name the same classes
        assert set(RETRY_CONTRACT) == {"stale", "dead_at_dispatch", "timed_out"}


class TestCoordinatorBehavior:
    """A real coordinator run through each fault honors the table."""

    def test_stale_is_retried_on_the_same_worker_without_blame(self):
        contract = RETRY_CONTRACT["stale"]
        worker = make_worker().start()
        address = worker.address
        host, port = address.rsplit(":", 1)
        backend = RemoteTrialBackend([address], reprobe_interval=0.0)
        assert backend.run(square, {"base": 7}, 20) == EXPECTED_20
        # restart the daemon on the same port: every kept-alive socket
        # in the coordinator's pool is now stale
        worker.stop()
        revived = make_worker(host=host, port=int(port)).start()
        try:
            assert backend.run(square, {"base": 7}, 20) == EXPECTED_20
            stats = backend.stats()
            # retried on the same worker over fresh sockets...
            assert stats["connection_reconnects"] > 0
            assert (stats["chunks_failed_over"] > 0) == contract["fails_over"]
            # ...and the worker is not blamed for the old sockets
            breaker = stats["workers"][0]["breaker"]
            assert (breaker["state"] != "closed") == contract["blames_worker"]
            assert stats["chunk_failures"] == 0
            assert stats["retries_spent"] == 0  # stale costs no budget
        finally:
            backend.shutdown()
            revived.stop()

    def test_dead_at_dispatch_fails_over_without_waiting_out_the_timeout(self):
        contract = RETRY_CONTRACT["dead_at_dispatch"]
        with make_worker() as good, half_closed_worker(hold=6.0) as broken:
            backend = RemoteTrialBackend(
                [good.address, broken], timeout=30
            )
            started = time.monotonic()
            assert backend.run(square, {"base": 7}, 20) == EXPECTED_20
            elapsed = time.monotonic() - started
            stats = backend.stats()
            assert (stats["chunks_failed_over"] > 0) == contract["fails_over"]
            # a 30s chunk timeout, yet failover happened in seconds:
            # the EOF was classified, not waited out
            assert elapsed < 10
            broken_stats = next(
                row for row in stats["workers"]
                if row["address"] == broken
            )
            assert (broken_stats["failures"] > 0) == contract["blames_worker"]
            backend.shutdown()

    def test_timed_out_fails_over_and_never_returns_to_the_worker(self):
        contract = RETRY_CONTRACT["timed_out"]
        with make_worker() as good, faulty_worker(trial_delay=30.0) as hung:
            backend = RemoteTrialBackend(
                [good.address, hung], timeout=1.0,
                policy=FailurePolicy(reprobe_interval=0.0),
            )
            assert backend.run(square, {"base": 7}, 20) == EXPECTED_20
            stats = backend.stats()
            assert (stats["chunks_failed_over"] > 0) == contract["fails_over"]
            hung_stats = next(
                row for row in stats["workers"]
                if row["address"] == hung
            )
            # blamed (its breaker saw the failure) and abandoned: every
            # chunk ultimately completed on the good worker
            assert (hung_stats["failures"] > 0) == contract["blames_worker"]
            assert hung_stats["chunks"] == 0
            good_stats = next(
                row for row in stats["workers"]
                if row["address"] == good.address
            )
            assert good_stats["chunks"] > 0
            assert stats["chunks_recovered_locally"] == 0  # failover sufficed
            backend.shutdown()

    def test_refused_connection_is_dead_at_dispatch_for_a_known_worker(self):
        # a worker that was probed alive once, then vanished entirely
        with make_worker() as good:
            backend = RemoteTrialBackend(
                [good.address, dead_address()], probe_timeout=1
            )
            assert backend.run(square, {"base": 7}, 20) == EXPECTED_20
            backend.shutdown()
