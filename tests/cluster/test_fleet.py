"""Registry-backed fleets: membership, breakers, budgets, chaos — in-process.

These tests run the whole self-healing loop against real daemons on
ephemeral ports: workers announce themselves to a live registry, the
coordinator discovers them by polling, breakers trip and recover,
retry budgets degrade gracefully — and every label-shaped result stays
byte-identical to serial throughout, because the fleet only ever
decides *where* a chunk runs, never what it computes.
"""

from __future__ import annotations

import time

from repro.cluster.coordinator import RemoteTrialBackend
from repro.cluster.policy import FailurePolicy
from repro.cluster.registry import RegistryClient
from repro.cluster.worker import make_worker
from tests.cluster.faults import (
    dropped_heartbeats,
    faulty_worker,
    kill_worker,
    partitioned_registry,
    revive_worker,
)
from tests.cluster.test_wire import square

EXPECTED_20 = square({"base": 7}, 20, 0)


def fleet_backend(registry, **kwargs):
    kwargs.setdefault("membership_interval", 0.0)
    return RemoteTrialBackend([], registry_url=registry.url, **kwargs)


class TestMembership:
    def test_coordinator_discovers_registered_workers(self, registry):
        with make_worker(register_url=registry.url) as w1, \
                make_worker(register_url=registry.url) as w2:
            backend = fleet_backend(registry)
            assert backend.run(square, {"base": 7}, 20) == EXPECTED_20
            stats = backend.stats()
            assert stats["remote_runs"] == 1
            assert {row["address"] for row in stats["workers"]} == {
                w1.address, w2.address,
            }
            assert all(row["source"] == "registry" for row in stats["workers"])
            assert stats["membership"]["workers_joined"] == 2
            backend.shutdown()

    def test_graceful_worker_exit_shrinks_the_fleet(self, registry):
        w1 = make_worker(register_url=registry.url).start()
        w2 = make_worker(register_url=registry.url).start()
        backend = fleet_backend(registry)
        try:
            assert backend.run(square, {"base": 7}, 20) == EXPECTED_20
            w2.stop()  # drains, deregisters — no TTL wait needed
            assert backend.run(square, {"base": 7}, 20) == EXPECTED_20
            stats = backend.stats()
            assert [row["address"] for row in stats["workers"]] == [w1.address]
            assert stats["membership"]["workers_left"] == 1
        finally:
            backend.shutdown()
            w1.stop()

    def test_late_worker_joins_between_runs(self, registry):
        backend = fleet_backend(registry)
        try:
            # empty fleet: the run degrades to local with the reason recorded
            assert backend.run(square, {"base": 7}, 20) == EXPECTED_20
            assert backend.stats()["local_runs"] == 1
            assert "no workers" in backend.fallback_reason
            with make_worker(register_url=registry.url):
                assert backend.run(square, {"base": 7}, 20) == EXPECTED_20
                assert backend.stats()["remote_runs"] == 1
        finally:
            backend.shutdown()

    def test_killed_worker_with_live_replacement_keeps_runs_remote(self, registry):
        """The acceptance scenario, in-process: SIGKILL one of two
        workers, register a replacement, and the batch still completes
        remotely, byte-identically, with no static worker list."""
        w1 = make_worker(register_url=registry.url, heartbeat_ttl=0.5).start()
        w2 = make_worker(register_url=registry.url, heartbeat_ttl=0.5).start()
        backend = fleet_backend(registry)
        replacement = None
        try:
            assert backend.run(square, {"base": 7}, 20) == EXPECTED_20
            kill_worker(w2)  # no drain, no deregistration: a crash
            replacement = make_worker(register_url=registry.url).start()
            assert backend.run(square, {"base": 7}, 20) == EXPECTED_20
            stats = backend.stats()
            assert stats["remote_runs"] == 2
            assert stats["chunks_recovered_locally"] == 0
            by_address = {row["address"]: row for row in stats["workers"]}
            assert by_address[replacement.address]["chunks"] > 0
            # the dead worker's lease expires; membership drops it
            deadline = time.monotonic() + 5
            while time.monotonic() < deadline:
                backend.run(square, {"base": 7}, 4)
                addresses = {
                    row["address"] for row in backend.stats()["workers"]
                }
                if w2.address not in addresses:
                    break
                time.sleep(0.1)
            assert w2.address not in {
                row["address"] for row in backend.stats()["workers"]
            }
        finally:
            backend.shutdown()
            w1.stop()
            if replacement is not None:
                replacement.stop()

    def test_dropped_heartbeats_expire_the_lease_then_recover(self, registry):
        client = RegistryClient(registry.url)
        with make_worker(register_url=registry.url, heartbeat_ttl=0.3) as w:
            with dropped_heartbeats(w):
                deadline = time.monotonic() + 5
                while time.monotonic() < deadline and client.addresses():
                    time.sleep(0.05)
                assert client.addresses() == ()  # lease expired, worker alive
            # heartbeats resume: the 404 beat re-registers the worker
            deadline = time.monotonic() + 5
            while time.monotonic() < deadline and not client.addresses():
                time.sleep(0.05)
            assert client.addresses() == (w.address,)

    def test_partitioned_registry_degrades_the_view_not_the_fleet(self, registry):
        with make_worker(register_url=registry.url) as w:
            backend = fleet_backend(registry, probe_timeout=1)
            try:
                assert backend.run(square, {"base": 7}, 20) == EXPECTED_20
                with partitioned_registry(registry):
                    # polls fail; the last-known membership keeps serving
                    assert backend.run(square, {"base": 7}, 20) == EXPECTED_20
                stats = backend.stats()
                assert stats["remote_runs"] == 2
                assert stats["membership"]["poll_failures"] >= 1
                assert [row["address"] for row in stats["workers"]] == [w.address]
            finally:
                backend.shutdown()

    def test_static_workers_and_registry_compose(self, registry):
        static = make_worker().start()  # not registered anywhere
        with make_worker(register_url=registry.url) as dynamic:
            backend = RemoteTrialBackend(
                [static.address], registry_url=registry.url,
                membership_interval=0.0,
            )
            try:
                assert backend.run(square, {"base": 7}, 20) == EXPECTED_20
                sources = {
                    row["address"]: row["source"]
                    for row in backend.stats()["workers"]
                }
                assert sources == {
                    static.address: "static", dynamic.address: "registry",
                }
            finally:
                backend.shutdown()
                static.stop()


class TestFailurePolicyIntegration:
    def test_breaker_opens_after_threshold_and_reports_in_stats(self):
        with faulty_worker() as flaky:
            backend = RemoteTrialBackend(
                [flaky],
                policy=FailurePolicy(breaker_threshold=1, reprobe_interval=3600),
            )
            assert backend.run(square, {"base": 7}, 8) == square({"base": 7}, 8, 0)
            stats = backend.stats()
            assert stats["breakers_open"] == 1
            breaker = stats["workers"][0]["breaker"]
            assert breaker["state"] == "open"
            assert breaker["opened"] >= 1
            assert breaker["retry_in"] > 0
            backend.shutdown()

    def test_open_breaker_swallows_probes_until_backoff(self):
        with faulty_worker() as flaky:
            backend = RemoteTrialBackend(
                [flaky],
                policy=FailurePolicy(breaker_threshold=1, reprobe_interval=3600),
            )
            backend.run(square, {"base": 7}, 8)
            opened = backend.stats()["workers"][0]["breaker"]["opened"]
            for _ in range(3):  # runs while open: no probes, no flapping
                backend.run(square, {"base": 7}, 8)
            assert backend.stats()["workers"][0]["breaker"]["opened"] == opened
            assert backend.stats()["local_runs"] >= 3
            backend.shutdown()

    def test_half_open_admits_one_probe_chunk_then_reopens(self):
        with faulty_worker() as flaky:
            # zero backoff: every run re-probes, goes half-open, feeds the
            # worker exactly one probe chunk, fails, re-opens
            backend = RemoteTrialBackend(
                [flaky],
                policy=FailurePolicy(breaker_threshold=1, reprobe_interval=0.0),
            )
            backend.run(square, {"base": 7}, 8)
            first_opened = backend.stats()["workers"][0]["breaker"]["opened"]
            assert backend.run(square, {"base": 7}, 8) == square({"base": 7}, 8, 0)
            stats = backend.stats()
            breaker = stats["workers"][0]["breaker"]
            assert breaker["opened"] > first_opened  # probe chunk failed again
            assert breaker["state"] == "open"
            backend.shutdown()

    def test_recovered_worker_closes_its_breaker(self):
        worker = make_worker()
        worker.start()
        address = worker.address
        host, port = address.rsplit(":", 1)
        backend = RemoteTrialBackend(
            [address],
            policy=FailurePolicy(breaker_threshold=1, reprobe_interval=0.0),
            probe_timeout=1,
        )
        try:
            assert backend.run(square, {"base": 7}, 8) == square({"base": 7}, 8, 0)
            kill_worker(worker)
            backend.run(square, {"base": 7}, 8)  # fails; breaker opens
            assert backend.stats()["workers"][0]["breaker"]["state"] != "closed"
            revived = revive_worker(address).start()
            try:
                # next runs: half-open probe chunk succeeds, breaker closes
                deadline = time.monotonic() + 10
                while time.monotonic() < deadline:
                    backend.run(square, {"base": 7}, 8)
                    if backend.stats()["workers"][0]["breaker"]["state"] == "closed":
                        break
                assert backend.stats()["workers"][0]["breaker"]["state"] == "closed"
                assert backend.stats()["remote_runs"] >= 2
            finally:
                revived.stop()
        finally:
            backend.shutdown()

    def test_retry_budget_exhaustion_degrades_with_reason(self):
        with faulty_worker() as flaky:
            backend = RemoteTrialBackend(
                [flaky],
                policy=FailurePolicy(
                    breaker_threshold=100,  # breaker out of the way
                    reprobe_interval=0.0,
                    retry_budget=0,
                ),
            )
            assert backend.run(square, {"base": 7}, 8) == square({"base": 7}, 8, 0)
            stats = backend.stats()
            assert stats["budget_exhausted_runs"] == 1
            assert stats["retries_spent"] == 0
            assert "retry budget exhausted" in backend.fallback_reason
            backend.shutdown()

    def test_retries_spend_the_budget_and_are_counted(self):
        with faulty_worker() as flaky, make_worker() as good:
            backend = RemoteTrialBackend(
                [flaky, good.address],
                policy=FailurePolicy(breaker_threshold=100, reprobe_interval=0.0),
            )
            assert backend.run(square, {"base": 7}, 20) == EXPECTED_20
            stats = backend.stats()
            assert stats["retries_spent"] > 0  # failovers cost budget
            assert stats["budget_exhausted_runs"] == 0
            assert stats["chunks_failed_over"] > 0
            backend.shutdown()

    def test_budget_is_per_run_not_cumulative(self):
        with faulty_worker() as flaky, make_worker() as good:
            backend = RemoteTrialBackend(
                [flaky, good.address],
                policy=FailurePolicy(breaker_threshold=100, reprobe_interval=0.0),
            )
            for _ in range(3):  # each run gets a fresh 2×chunks budget
                assert backend.run(square, {"base": 7}, 20) == EXPECTED_20
            assert backend.stats()["budget_exhausted_runs"] == 0
            backend.shutdown()
