"""The coordinator's persistent per-worker connections.

One ``WorkerClient`` keeps one HTTP/1.1 connection open across health
probes; a stale one — the worker restarted, or closed an idle socket —
is retried once on a fresh one and the re-open is counted, surfaced
through ``executor.trial_cluster`` stats as ``connection_reconnects``.
Trial chunks do not ride that connection: they go over the per-worker
pool of kept-alive stream sockets, so running chunks must leave the
probe connection's reconnect count at zero.
"""

from repro.cluster.coordinator import RemoteTrialBackend, WorkerClient
from repro.cluster.worker import make_worker
from tests.cluster.test_wire import square

EXPECTED_20 = square({"base": 7}, 20, 0)


class TestPersistentConnection:
    def test_many_requests_one_connection(self):
        with make_worker() as worker:
            client = WorkerClient(worker.address)
            for _ in range(5):
                client.probe()
            # the connection object survived every request
            assert client._connection is not None
            assert client.reconnects == 0
            client.close()

    def test_chunks_reuse_the_probe_connection(self, worker_pair):
        one, two = worker_pair
        backend = RemoteTrialBackend([one.address, two.address])
        assert backend.run(square, {"base": 7}, 20) == EXPECTED_20
        assert backend.run(square, {"base": 7}, 20) == EXPECTED_20
        stats = backend.stats()
        assert stats["chunks_remote"] > 0
        assert stats["connection_reconnects"] == 0
        assert all(row["reconnects"] == 0 for row in stats["workers"])
        backend.shutdown()

    def test_worker_restart_counts_a_reconnect(self):
        worker = make_worker()
        worker.start()
        address = worker.address
        host, port = address.rsplit(":", 1)
        client = WorkerClient(address)
        client.probe()  # opens the persistent connection
        worker.stop()

        # a new daemon on the same port: the old socket is stale, the
        # retry path must transparently reconnect and count it
        revived = make_worker(host=host, port=int(port))
        revived.start()
        try:
            health = client.probe()
            assert health["status"] == "ok"
            assert client.reconnects == 1
        finally:
            client.close()
            revived.stop()

    def test_dead_worker_still_raises_after_the_retry(self):
        worker = make_worker()
        worker.start()
        client = WorkerClient(worker.address, probe_timeout=2)
        client.probe()
        worker.stop()
        import pytest

        from repro.errors import ClusterError

        with pytest.raises(ClusterError, match="unreachable"):
            client.probe()
        client.close()
