"""Tests for repro.cluster.coordinator: registry, scheduling, failover.

The fault-injection matrix the issue asks for lives here: a worker
killed mid-batch, a slow worker past the timeout, and a
version-mismatched worker — all of which must still yield the exact
results a local run produces, with the failure visible in the
coordinator's counters rather than in the output.
"""

import threading

import pytest

from repro.cluster import wire
from repro.cluster.coordinator import (
    RemoteTrialBackend,
    WorkerClient,
    workers_from_env,
    workers_from_file,
)
from repro.cluster.worker import make_worker
from repro.errors import ClusterError
from tests.cluster.conftest import dead_address, faulty_worker
from tests.cluster.test_wire import square

EXPECTED_20 = square({"base": 7}, 20, 0)


class TestAddressSources:
    def test_workers_from_env(self, monkeypatch):
        monkeypatch.setenv(
            "REPRO_TRIAL_WORKERS", "10.0.0.1:8101, 10.0.0.2:8101 ,,"
        )
        assert workers_from_env() == ("10.0.0.1:8101", "10.0.0.2:8101")
        monkeypatch.delenv("REPRO_TRIAL_WORKERS")
        assert workers_from_env() == ()

    def test_workers_from_file(self, tmp_path):
        path = tmp_path / "workers.txt"
        path.write_text(
            "# the cluster\n10.0.0.1:8101\n10.0.0.2:8101, 10.0.0.3:8101\n\n"
        )
        assert workers_from_file(str(path)) == (
            "10.0.0.1:8101",
            "10.0.0.2:8101",
            "10.0.0.3:8101",
        )

    def test_workers_file_must_exist_and_name_workers(self, tmp_path):
        with pytest.raises(ClusterError, match="cannot read"):
            workers_from_file(str(tmp_path / "missing.txt"))
        empty = tmp_path / "empty.txt"
        empty.write_text("# nothing here\n")
        with pytest.raises(ClusterError, match="names no workers"):
            workers_from_file(str(empty))

    def test_bad_addresses_fail_at_construction(self):
        with pytest.raises(ClusterError, match="expected host:port"):
            WorkerClient("nocolon")
        with pytest.raises(ClusterError, match="not a number"):
            WorkerClient("host:port")


class TestDegradedFallback:
    def test_empty_registry_runs_locally_with_reason(self):
        backend = RemoteTrialBackend([])
        assert backend.run(square, {"base": 7}, 20) == EXPECTED_20
        stats = backend.stats()
        assert stats["local_runs"] == 1
        assert stats["fallback_reason"] == "no workers configured"
        backend.shutdown()

    def test_all_probes_failing_runs_locally(self):
        backend = RemoteTrialBackend([dead_address()], probe_timeout=1)
        assert backend.run(square, {"base": 7}, 20) == EXPECTED_20
        stats = backend.stats()
        assert stats["workers_alive"] == 0
        assert "no live workers" in stats["fallback_reason"]
        assert stats["workers"][0]["last_error"] is not None
        backend.shutdown()

    def test_unpicklable_work_runs_locally(self, worker_pair):
        one, two = worker_pair
        backend = RemoteTrialBackend([one.address, two.address], probe_timeout=2)
        payload = {"base": 7, "poison": threading.Lock()}
        expected = square(payload, 6, 0)
        assert backend.run(square, payload, 6) == expected
        assert "not picklable" in backend.stats()["fallback_reason"]
        backend.shutdown()

    def test_effective_name_tracks_cluster_health(self, worker_pair):
        one, two = worker_pair
        backend = RemoteTrialBackend([one.address, two.address], probe_timeout=2)
        backend.run(square, {"base": 7}, 8)
        assert backend.effective_name == "remote"
        empty = RemoteTrialBackend([])
        assert empty.effective_name != "remote"
        backend.shutdown()
        empty.shutdown()


class TestFaultInjection:
    def test_version_mismatched_worker_is_rejected_never_scheduled(
        self, worker_pair
    ):
        one, _ = worker_pair
        with faulty_worker(protocol=wire.PROTOCOL_VERSION + 7) as mismatched:
            backend = RemoteTrialBackend(
                [mismatched, one.address], probe_timeout=2
            )
            assert backend.run(square, {"base": 7}, 20) == EXPECTED_20
            stats = backend.stats()
            assert stats["workers_alive"] == 1
            by_address = {w["address"]: w for w in stats["workers"]}
            assert (
                f"protocol v{wire.PROTOCOL_VERSION + 7}"
                in by_address[mismatched]["last_error"]
            )
            assert by_address[mismatched]["chunks"] == 0  # never sent work
            # nothing failed over: the mismatch was caught at probe time
            assert stats["chunk_failures"] == 0
            backend.shutdown()

    def test_worker_failing_mid_batch_fails_over(self, worker_pair):
        """A worker that dies after passing its probe: chunks retried."""
        one, _ = worker_pair
        with faulty_worker() as flaky:  # healthy probe, 503 on every chunk
            backend = RemoteTrialBackend([flaky, one.address], probe_timeout=2)
            assert backend.run(square, {"base": 7}, 20) == EXPECTED_20
            stats = backend.stats()
            assert stats["chunk_failures"] >= 1
            assert (
                stats["chunks_failed_over"] + stats["chunks_recovered_locally"]
                >= 1
            )
            by_address = {w["address"]: w for w in stats["workers"]}
            assert by_address[flaky]["alive"] is False
            assert by_address[flaky]["failures"] >= 1
            backend.shutdown()

    def test_worker_killed_between_batches_fails_over(self):
        """The literal kill: a live worker stops, the next run recovers."""
        victim = make_worker().start()
        survivor = make_worker().start()
        try:
            backend = RemoteTrialBackend(
                [victim.address, survivor.address], probe_timeout=2
            )
            assert backend.run(square, {"base": 7}, 20) == EXPECTED_20
            assert backend.stats()["workers_alive"] == 2
            victim.stop()  # killed; the coordinator still believes it alive
            assert backend.run(square, {"base": 7}, 20) == EXPECTED_20
            stats = backend.stats()
            assert stats["chunk_failures"] >= 1
            assert (
                stats["chunks_failed_over"] + stats["chunks_recovered_locally"]
                >= 1
            )
            backend.shutdown()
        finally:
            survivor.stop()

    def test_slow_worker_times_out_and_fails_over(self, worker_pair):
        one, _ = worker_pair
        with faulty_worker(trial_delay=5.0) as slow:  # way past the timeout
            backend = RemoteTrialBackend(
                [slow, one.address], timeout=0.5, probe_timeout=2
            )
            assert backend.run(square, {"base": 7}, 20) == EXPECTED_20
            stats = backend.stats()
            assert stats["chunk_failures"] >= 1
            by_address = {w["address"]: w for w in stats["workers"]}
            assert by_address[slow]["alive"] is False
            backend.shutdown()

    def test_restarted_worker_rejoins_on_reprobe(self):
        victim = make_worker().start()
        # reprobe_interval=0: retry the dead worker immediately (the
        # default throttles re-probes so down hosts cannot stall runs)
        backend = RemoteTrialBackend(
            [victim.address], probe_timeout=2, reprobe_interval=0.0
        )
        backend.run(square, {"base": 7}, 8)
        address = victim.address
        host, _, port = address.rpartition(":")
        victim.stop()
        backend.run(square, {"base": 7}, 8)  # fails over locally
        assert backend.stats()["workers_alive"] == 0
        revived = make_worker(host=host, port=int(port)).start()
        try:
            assert backend.run(square, {"base": 7}, 8) == square({"base": 7}, 8, 0)
            assert backend.stats()["workers_alive"] == 1
            backend.shutdown()
        finally:
            revived.stop()

    def test_dead_worker_reprobe_is_throttled(self):
        """A down worker is probed once per interval, not once per run."""
        from repro.cluster.coordinator import _WorkerSlot
        from repro.cluster.policy import CircuitBreaker

        probes = []

        class CountingClient(WorkerClient):
            def probe(self):
                probes.append(1)
                raise ClusterError("still down")

        backend = RemoteTrialBackend([], reprobe_interval=3600.0)
        client = CountingClient(dead_address())
        backend._slots.append(
            _WorkerSlot(client, CircuitBreaker(backend.policy, seed=client.address))
        )
        for _ in range(5):
            backend.run(square, {"base": 7}, 4)
        assert len(probes) == 1  # probed once, then throttled
        backend.shutdown()

    def test_genuine_trial_bug_propagates_not_masked_as_cluster_trouble(
        self, worker_pair
    ):
        from tests.cluster.conftest import boom_trial

        one, two = worker_pair
        backend = RemoteTrialBackend([one.address, two.address], probe_timeout=2)
        # the first worker 500s ("trial raised"); the chunk is NOT failed
        # over — the local re-run raises the genuine error instead
        with pytest.raises(ValueError, match="bad trial"):
            backend.run(boom_trial, {}, 4)
        stats = backend.stats()
        # a trial bug is not cluster trouble: no worker marked dead
        assert stats["workers_alive"] == 2
        assert stats["chunk_failures"] == 0
        assert all(w["failures"] == 0 for w in stats["workers"])
        backend.shutdown()
