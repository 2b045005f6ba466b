"""The acceptance criteria for the remote trial backend.

- labels and estimator outcomes on a >= 2-worker cluster are
  byte-identical to the per-trial oracle (``tests.oracles``) for equal
  seeds, across all three stability estimators;
- a worker killed mid-batch is transparently retried, the failover is
  counted in ``GET /engine/stats``, and the final label is unchanged;
- the backend wires through ``LabelService`` / ``REPRO_TRIAL_BACKEND``
  and does not fragment the content-addressed cache.
"""

import json
import urllib.request

import numpy as np
import pytest

from repro.app.server import make_server
from repro.cluster.coordinator import RemoteTrialBackend
from repro.cluster.worker import make_worker
from repro.engine import LabelDesign, LabelService, resolve_trial_backend
from repro.label.render_json import render_json
from repro.ranking import LinearScoringFunction
from repro.stability import (
    DataUncertaintyStability,
    WeightPerturbationStability,
    per_attribute_stability,
)
from repro.tabular import Table
from tests.cluster.conftest import faulty_worker
from tests.oracles import OracleTrialBackend

SCORER = LinearScoringFunction({"a": 0.5, "b": 0.5})

DESIGN = LabelDesign.create(
    weights={"a": 0.6, "b": 0.4},
    sensitive="group",
    id_column="name",
    k=5,
    monte_carlo_trials=6,
    monte_carlo_epsilons=(0.1,),
)


def jittered_table(n=30, seed=11, group=False):
    rng = np.random.default_rng(seed)
    data = {
        "name": [f"i{j}" for j in range(n)],
        "a": rng.normal(0, 1, n) * 0.01 + 1.0,
        "b": rng.normal(0, 1, n) * 0.01 + 1.0,
    }
    if group:
        data["group"] = ["g1", "g2"] * (n // 2)
    return Table.from_dict(data)


@pytest.fixture()
def cluster(worker_pair):
    one, two = worker_pair
    backend = RemoteTrialBackend(
        [one.address, two.address], timeout=15, probe_timeout=2
    )
    yield backend
    backend.shutdown()


class TestEstimatorsByteIdentical:
    """All three estimators, the per-trial oracle vs a 2-worker cluster."""

    def test_weight_perturbation(self, cluster):
        table = jittered_table()
        serial = WeightPerturbationStability(
            table, SCORER, "name", trials=8, seed=5, backend=OracleTrialBackend()
        )
        remote = WeightPerturbationStability(
            table, SCORER, "name", trials=8, seed=5, backend=cluster
        )
        for epsilon in (0.0, 0.05, 0.3):
            assert serial.assess_at(epsilon) == remote.assess_at(epsilon)
        assert cluster.stats()["chunks_remote"] > 0  # really went remote

    def test_data_uncertainty(self, cluster):
        table = jittered_table()
        serial = DataUncertaintyStability(
            table, SCORER, "name", trials=8, seed=5, backend=OracleTrialBackend()
        )
        remote = DataUncertaintyStability(
            table, SCORER, "name", trials=8, seed=5, backend=cluster
        )
        for epsilon in (0.0, 0.1, 0.5):
            assert serial.assess_at(epsilon) == remote.assess_at(epsilon)

    def test_per_attribute(self, cluster):
        table = jittered_table()
        serial = per_attribute_stability(
            table, SCORER, "name", trials=6, iterations=3, seed=5,
            backend=OracleTrialBackend(),
        )
        remote = per_attribute_stability(
            table, SCORER, "name", trials=6, iterations=3, seed=5,
            backend=cluster,
        )
        assert serial == remote


class TestServiceIntegration:
    def test_remote_labels_byte_identical_to_serial(self, cluster):
        """The acceptance criterion, end to end through the service."""
        table = jittered_table(n=24, seed=3, group=True)
        serial = DESIGN.builder_for(table, dataset_name="mc").build()
        with LabelService(use_cache=False, trial_backend=cluster) as svc:
            outcome = svc.build_label(table, DESIGN, "mc")
            executor = svc.stats()["executor"]
        assert render_json(outcome.facts.label) == render_json(serial.label)
        assert executor["trial_backend"] == "remote"
        assert executor["trial_backend_effective"] == "remote"
        assert executor["trial_cluster"]["chunks_remote"] > 0
        assert executor["trial_cluster"]["workers_alive"] == 2

    def test_worker_killed_mid_batch_label_unchanged_failover_counted(
        self, worker_pair
    ):
        """One worker passes its probe then fails every chunk — the label
        must come out byte-identical, with the failover visible in
        ``GET /engine/stats``."""
        one, _ = worker_pair
        table = jittered_table(n=24, seed=3, group=True)
        serial = DESIGN.builder_for(table, dataset_name="mc").build()
        with faulty_worker() as flaky:
            backend = RemoteTrialBackend(
                [flaky, one.address], timeout=15, probe_timeout=2
            )
            with LabelService(use_cache=False, trial_backend=backend) as svc:
                outcome = svc.build_label(table, DESIGN, "mc")
                cluster_stats = svc.stats()["executor"]["trial_cluster"]
        assert render_json(outcome.facts.label) == render_json(serial.label)
        assert cluster_stats["chunk_failures"] >= 1
        assert (
            cluster_stats["chunks_failed_over"]
            + cluster_stats["chunks_recovered_locally"]
            >= 1
        )

    def test_remote_backend_does_not_change_the_cache_key(self, cluster):
        table = jittered_table(n=24, seed=3, group=True)
        with LabelService(trial_backend=OracleTrialBackend()) as svc:
            a = svc.build_label(table, DESIGN, "mc")
        with LabelService(trial_backend=cluster) as svc:
            b = svc.build_label(table, DESIGN, "mc")
        assert a.fingerprint == b.fingerprint

    def test_resolve_by_name_reads_the_env(self, worker_pair, monkeypatch):
        one, two = worker_pair
        monkeypatch.setenv(
            "REPRO_TRIAL_WORKERS", f"{one.address},{two.address}"
        )
        backend = resolve_trial_backend("remote")
        assert isinstance(backend, RemoteTrialBackend)
        assert backend.stats()["workers_configured"] == 2
        from tests.cluster.test_wire import square

        expected = square({"base": 7}, 8, 0)
        assert backend.run(square, {"base": 7}, 8) == expected
        assert backend.stats()["chunks_remote"] > 0
        backend.shutdown()

    def test_resolve_by_name_reads_the_registry_env(self, monkeypatch):
        from repro.cluster.registry import make_registry
        from repro.cluster.worker import make_worker
        from tests.cluster.test_wire import square

        monkeypatch.delenv("REPRO_TRIAL_WORKERS", raising=False)
        with make_registry() as registry:
            monkeypatch.setenv("REPRO_TRIAL_REGISTRY", registry.url)
            with make_worker(register_url=registry.url):
                backend = resolve_trial_backend("remote")
                assert isinstance(backend, RemoteTrialBackend)
                expected = square({"base": 7}, 8, 0)
                assert backend.run(square, {"base": 7}, 8) == expected
                stats = backend.stats()
                assert stats["remote_runs"] == 1
                assert stats["membership"]["registry"] == registry.url
                backend.shutdown()

    def test_server_env_var_selects_remote(self, worker_pair, monkeypatch):
        one, two = worker_pair
        monkeypatch.setenv("REPRO_TRIAL_BACKEND", "remote")
        monkeypatch.setenv(
            "REPRO_TRIAL_WORKERS", f"{one.address},{two.address}"
        )
        with make_server() as handle:
            with urllib.request.urlopen(
                handle.url + "/engine/stats", timeout=10
            ) as response:
                stats = json.loads(response.read())
        executor = stats["executor"]
        assert executor["trial_backend"] == "remote"
        assert executor["trial_cluster"]["workers_configured"] == 2
