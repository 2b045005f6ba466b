"""One accounting source: every ``stats()`` count equals its metric series.

Label requests, lease events, chunk attempts, failover retries and
worker chunks are each counted once, in a metrics registry family, and
the JSON stats views read that family back.  These tests drive each
component through the events it counts and check, right after each
step, that the stats field and the exposition page show one number.
"""

from __future__ import annotations

import json
import re
import time
import urllib.request

import pytest

from repro.app.server import make_server
from repro.cluster import wire
from repro.cluster.coordinator import RemoteTrialBackend
from repro.cluster.registry import WorkerRegistry
from repro.cluster.worker import TrialWorker, make_worker
from repro.errors import ClusterError
from repro.telemetry import MetricsRegistry, get_default_registry, render_prometheus
from tests.cluster.faults import boom_trial, kill_worker
from tests.cluster.test_wire import square

_SAMPLE = re.compile(r"^([a-zA-Z_:][a-zA-Z0-9_:]*)(?:\{(.*)\})? (\S+)$")
_LABEL = re.compile(r'([a-zA-Z_][a-zA-Z0-9_]*)="((?:[^"\\]|\\.)*)"')

DESIGN = {
    "weights": {"PubCount": 0.4, "Faculty": 0.4, "GRE": 0.2},
    "sensitive": ["DeptSizeBin"],
    "id_column": "DeptName",
}


def series(page: str, family: str, /, **tags: str) -> int:
    """The sum of ``family``'s samples whose labels include ``tags``."""
    total = 0.0
    for line in page.splitlines():
        match = _SAMPLE.match(line)
        if match is None or match.group(1) != family:
            continue
        labels = dict(_LABEL.findall(match.group(2) or ""))
        if all(labels.get(key) == value for key, value in tags.items()):
            total += float(match.group(3))
    assert total == int(total)
    return int(total)


def assert_ints(stats: dict, *keys: str) -> None:
    for key in keys:
        assert type(stats[key]) is int, (key, stats[key])


def http_json(url: str, method: str = "GET", body: object = None) -> dict:
    data = None if body is None else json.dumps(body).encode("utf-8")
    request = urllib.request.Request(url, data=data, method=method)
    with urllib.request.urlopen(request, timeout=30) as response:
        return json.loads(response.read())


class TestLabelRequests:
    @staticmethod
    def served_label(handle) -> tuple[dict, str]:
        """Serve one label, then read ``/engine/stats`` and ``/metrics``."""
        token = http_json(
            handle.url + "/session", "POST",
            {"dataset": "cs-departments", "design": DESIGN},
        )["token"]
        http_json(f"{handle.url}/session/{token}/label")
        stats = http_json(handle.url + "/engine/stats")
        with urllib.request.urlopen(handle.url + "/metrics", timeout=10) as response:
            page = response.read().decode("utf-8")
        return stats, page

    @staticmethod
    def assert_agree(stats: dict, page: str) -> dict[str, int]:
        count = {
            tier: series(page, "repro_label_requests_total", tier=tier)
            for tier in ("l1", "l2", "build")
        }
        l1, l2, built = count["l1"], count["l2"], count["build"]
        assert stats["service"]["requests"] == series(
            page, "repro_label_requests_total"
        )
        assert stats["service"]["builds"] == built
        assert stats["tiers"] == {
            "l1_hits": l1,
            "l1_misses": l2 + built,
            "l2_hits": l2,
            "l2_misses": built,
            "promotions": l2,
            "builds": built,
            "writes": built,
        }
        assert (stats["cache"]["hits"], stats["cache"]["misses"]) == (l1, l2 + built)
        assert_ints(stats["service"], "requests", "builds")
        assert_ints(stats["cache"], "hits", "misses")
        assert_ints(stats["tiers"], *stats["tiers"])
        return count

    def test_engine_stats_equal_metrics_through_every_tier(self, tmp_path):
        path = str(tmp_path / "labels.db")
        with make_server(store_path=path) as handle:
            stats, page = self.served_label(handle)
            assert self.assert_agree(stats, page) == {"l1": 0, "l2": 0, "build": 1}
            stats, page = self.served_label(handle)
            assert self.assert_agree(stats, page) == {"l1": 1, "l2": 0, "build": 1}
        # a restart on the same store: an empty L1 over the durable L2
        with make_server(store_path=path) as reborn:
            stats, page = self.served_label(reborn)
            assert self.assert_agree(stats, page) == {"l1": 1, "l2": 1, "build": 1}

    def test_every_read_of_a_labeled_session_is_an_l1_hit(self, tmp_path):
        """A LABELED session's label, HTML page and preview are served by
        the service: each read counts one ``l1`` request."""
        with make_server(store_path=str(tmp_path / "labels.db")) as handle:
            token = http_json(
                handle.url + "/session", "POST",
                {"dataset": "cs-departments", "design": DESIGN},
            )["token"]
            expected = {"l1": 0, "l2": 0, "build": 0}
            for view, tier in (
                ("label", "build"),
                ("label", "l1"),
                ("label.html", "l1"),
                ("preview", "l1"),
            ):
                with urllib.request.urlopen(
                    f"{handle.url}/session/{token}/{view}", timeout=30
                ) as response:
                    response.read()
                expected[tier] += 1
                stats = http_json(handle.url + "/engine/stats")
                with urllib.request.urlopen(
                    handle.url + "/metrics", timeout=10
                ) as response:
                    page = response.read().decode("utf-8")
                assert self.assert_agree(stats, page) == expected, view


class TestWorkerRegistry:
    def test_lease_counts_equal_their_events(self):
        metrics = MetricsRegistry()
        registry = WorkerRegistry(registry=metrics)

        def agree() -> dict:
            stats = registry.stats()
            page = render_prometheus(metrics)
            for key, event in (
                ("registrations", "register"),
                ("heartbeats", "heartbeat"),
                ("expirations", "expire"),
                ("deregistrations", "deregister"),
            ):
                assert stats[key] == series(
                    page, "repro_registry_events_total", event=event
                ), key
                assert type(stats[key]) is int
            return stats

        registry.register("127.0.0.1:9001")
        registry.register("127.0.0.1:9002", ttl=0.05)
        agree()
        registry.heartbeat("127.0.0.1:9001")
        registry.heartbeat("127.0.0.1:9001")
        agree()
        assert registry.deregister("127.0.0.1:9001")
        time.sleep(0.1)  # the short lease lapses
        stats = agree()
        assert (
            stats["registrations"], stats["heartbeats"],
            stats["expirations"], stats["deregistrations"],
        ) == (2, 2, 1, 1)
        assert stats["workers"] == 0


class TestRemoteTrialBackend:
    def test_chunk_counts_equal_the_chunk_histogram(self):
        metrics = MetricsRegistry()
        victim = make_worker(registry=MetricsRegistry()).start()
        survivor = make_worker(registry=MetricsRegistry()).start()
        backend = RemoteTrialBackend(
            [victim.address, survivor.address], probe_timeout=2, registry=metrics
        )
        try:
            expected = square({"base": 7}, 20, 0)
            assert backend.run(square, {"base": 7}, 20) == expected
            # killed while the coordinator still counts it live: the next
            # run's chunks on it fail and are retried on the survivor
            kill_worker(victim)
            assert backend.run(square, {"base": 7}, 20) == expected
            stats = backend.stats()
        finally:
            backend.shutdown()
            survivor.stop()
        page = render_prometheus(metrics)
        chunks = "repro_cluster_chunk_seconds_count"
        assert stats["chunks_remote"] == series(page, chunks, outcome="ok")
        assert stats["chunk_failures"] == series(page, chunks, outcome="failed")
        assert stats["retries_spent"] == series(page, "repro_cluster_retries_total")
        assert stats["chunk_failures"] > 0 and stats["retries_spent"] > 0
        for row in stats["workers"]:
            address = row["address"]
            assert row["chunks"] == series(page, chunks, worker=address, outcome="ok")
            assert row["failures"] == series(
                page, chunks, worker=address, outcome="failed"
            )
            assert_ints(row, "chunks", "failures")
        by_address = {row["address"]: row for row in stats["workers"]}
        assert by_address[victim.address]["failures"] > 0
        assert by_address[survivor.address]["chunks"] > 0
        assert_ints(stats, "chunks_remote", "chunk_failures", "retries_spent")


class TestTrialWorker:
    def test_chunk_counts_equal_the_worker_chunk_span(self):
        metrics = MetricsRegistry()
        worker = TrialWorker(registry=metrics)
        work = wire.encode_trial_work(square, {"base": 3})
        for start in (0, 4):
            worker.run_chunk(wire.encode_request(work, start, start + 4))
        with pytest.raises(ValueError):
            worker.run_chunk(
                wire.encode_request(wire.encode_trial_work(boom_trial, {}), 0, 2)
            )
        with pytest.raises(ClusterError):  # rejected: never executed
            worker.run_chunk(b"not a frame")
        stats = worker.stats()
        page = render_prometheus(metrics)
        spans = "repro_span_seconds_count"
        assert stats["chunks"] == series(page, spans, name="worker.chunk", status="ok")
        assert stats["trial_errors"] == series(
            page, spans, name="worker.chunk", status="error"
        )
        assert (stats["chunks"], stats["trial_errors"]) == (2, 1)
        assert stats["rejected_frames"] == 1
        assert_ints(stats, "chunks", "trial_errors")
        # the worker wrote into its own registry, not the process default
        assert "worker.chunk" not in render_prometheus(get_default_registry())
