"""Tests for repro.engine.backends: Monte-Carlo trial execution.

The acceptance-critical properties live here:

- only ``vectorized`` and ``remote`` resolve, on any host;
- labels built on the vectorized backend are byte-identical to labels
  built on the per-trial oracle (``tests.oracles``) for equal seeds;
- the vectorized backend runs every batch function it is handed, and
  counts the batches for the stats endpoint.
"""

import os

import numpy as np
import pytest

from repro.cluster.coordinator import RemoteTrialBackend, _chunk_spans
from repro.engine import LabelDesign, LabelService
from repro.engine.backends import (
    BACKEND_NAMES,
    TrialBackend,
    VectorizedTrialBackend,
    resolve_trial_backend,
)
from repro.errors import EngineError, RankingError
from repro.label.render_json import render_json
from repro.ranking import LinearScoringFunction
from repro.stability import (
    DataUncertaintyStability,
    WeightPerturbationStability,
    per_attribute_stability,
)
from repro.stability.montecarlo import run_payload_trials
from repro.tabular import Table
from tests.oracles import OracleTrialBackend


def _square_trial(payload, trials, start):
    """Module-level (hence picklable) batch function for the unit tests."""
    return [payload["base"] + t * t for t in range(start, start + trials)]


def jittered_table(n=30, seed=11):
    rng = np.random.default_rng(seed)
    return Table.from_dict(
        {
            "name": [f"i{j}" for j in range(n)],
            "a": rng.normal(0, 1, n) * 0.01 + 1.0,
            "b": rng.normal(0, 1, n) * 0.01 + 1.0,
        }
    )


SCORER = LinearScoringFunction({"a": 0.5, "b": 0.5})


class TestResolution:
    def test_unknown_name_rejected(self):
        # thread and process included: old configs may still name them
        for name in ("fibers", "thread", "process"):
            with pytest.raises(EngineError, match="unknown trial backend"):
                resolve_trial_backend(name)

    def test_serial_by_name(self):
        # the scalar loop is a test oracle now, not a backend
        assert BACKEND_NAMES == ("vectorized", "remote")
        with pytest.raises(EngineError, match="unknown trial backend 'serial'"):
            resolve_trial_backend("serial")

    def test_vectorized_by_name(self):
        assert isinstance(resolve_trial_backend("vectorized"), VectorizedTrialBackend)

    def test_vectorized_ignores_cpu_count(self, monkeypatch):
        # no worker pool to disable: one CPU still vectorizes
        monkeypatch.setattr(os, "cpu_count", lambda: 1)
        assert isinstance(resolve_trial_backend("vectorized"), VectorizedTrialBackend)

    def test_default_is_vectorized(self, monkeypatch):
        # the soak-tested kernels are the default, on any host
        for cpus in (1, 4):
            monkeypatch.setattr(os, "cpu_count", lambda c=cpus: c)
            assert isinstance(resolve_trial_backend(), VectorizedTrialBackend)

    def test_every_name_resolves(self):
        for name in BACKEND_NAMES:
            backend = resolve_trial_backend(name)
            assert isinstance(backend, TrialBackend)
            backend.shutdown()


class TestChunking:
    """The remote coordinator's split of a batch into worker chunks."""

    def test_spans_cover_all_trials_in_order(self):
        spans = _chunk_spans(trials=10, workers=2, chunk_size=3)
        assert spans == [(0, 3), (3, 6), (6, 9), (9, 10)]

    def test_default_chunking_amortizes(self):
        # a few chunks per worker, never one-trial-per-request dispatch
        spans = _chunk_spans(trials=100, workers=2, chunk_size=None)
        assert 1 < len(spans) <= 2 * 4
        covered = [t for start, stop in spans for t in range(start, stop)]
        assert covered == list(range(100))

    def test_tiny_loops_are_one_chunk_each(self):
        assert _chunk_spans(trials=2, workers=4, chunk_size=None) == [(0, 1), (1, 2)]


class TestRunOrdering:
    """Every backend returns results in trial order, oracle-identical."""

    def expected(self, trials=12):
        return [7 + t * t for t in range(trials)]

    def test_serial(self):
        assert OracleTrialBackend().run(_square_trial, {"base": 7}, 12) == self.expected()
        assert VectorizedTrialBackend().run(_square_trial, {"base": 7}, 12) == self.expected()

    def test_run_payload_trials_inline_matches_backends(self):
        inline = run_payload_trials(_square_trial, {"base": 7}, 12)
        assert inline == self.expected()


class TestBackendsMatchSerialEstimates:
    """The three estimators give identical results on every local backend."""

    BACKENDS = (OracleTrialBackend, VectorizedTrialBackend)

    def test_weight_perturbation(self):
        table = jittered_table()
        inline = WeightPerturbationStability(table, SCORER, "name", trials=8, seed=5)
        for make in self.BACKENDS:
            other = WeightPerturbationStability(
                table, SCORER, "name", trials=8, seed=5, backend=make()
            )
            for epsilon in (0.0, 0.05, 0.3):
                assert inline.assess_at(epsilon) == other.assess_at(epsilon)

    def test_data_uncertainty(self):
        table = jittered_table()
        inline = DataUncertaintyStability(table, SCORER, "name", trials=8, seed=5)
        for make in self.BACKENDS:
            other = DataUncertaintyStability(
                table, SCORER, "name", trials=8, seed=5, backend=make()
            )
            for epsilon in (0.0, 0.1, 0.5):
                assert inline.assess_at(epsilon) == other.assess_at(epsilon)

    def test_per_attribute(self):
        table = jittered_table()
        inline = per_attribute_stability(
            table, SCORER, "name", trials=6, iterations=3, seed=5
        )
        for make in self.BACKENDS:
            assert inline == per_attribute_stability(
                table, SCORER, "name", trials=6, iterations=3, seed=5,
                backend=make(),
            )


class TestServiceIntegration:
    DESIGN = LabelDesign.create(
        weights={"a": 0.6, "b": 0.4},
        sensitive="group",
        id_column="name",
        k=5,
        monte_carlo_trials=6,
        monte_carlo_epsilons=(0.1,),
    )

    @staticmethod
    def mc_table(n=24, seed=3):
        rng = np.random.default_rng(seed)
        return Table.from_dict(
            {
                "name": [f"i{j}" for j in range(n)],
                "a": rng.normal(0, 1, n) * 0.01 + 1.0,
                "b": rng.normal(0, 1, n) * 0.01 + 1.0,
                "group": ["g1", "g2"] * (n // 2),
            }
        )

    def test_service_reports_requested_and_effective_backend(self):
        with LabelService(trial_backend="vectorized") as svc:
            executor = svc.stats()["executor"]
            assert executor["trial_backend"] == "vectorized"
            assert executor["trial_backend_effective"] == "vectorized"
            assert executor["trial_backend_fallback"] is None
            assert executor["parallel_trials"] is False

    def test_stats_track_runtime_fallback(self):
        """A remote backend that fell back locally must not read as parallel."""
        with LabelService(trial_backend=RemoteTrialBackend([])) as svc:
            backend = svc.executor.trial_backend()
            backend.run(_square_trial, {"base": 0}, 2)
            executor = svc.stats()["executor"]
            assert executor["trial_backend"] == "remote"
            assert executor["trial_backend_effective"] == "vectorized"
            assert "no workers configured" in executor["trial_backend_fallback"]
            assert executor["parallel_trials"] is False

    def test_unknown_backend_fails_at_construction(self):
        with pytest.raises(EngineError, match="unknown trial backend"):
            LabelService(trial_backend="quantum")

    def test_backend_does_not_change_the_cache_key(self):
        """Execution detail must not fragment the content-addressed cache."""
        table = self.mc_table()
        with LabelService(trial_backend=OracleTrialBackend()) as svc:
            a = svc.build_label(table, self.DESIGN, "mc")
        with LabelService(trial_backend=RemoteTrialBackend([])) as svc:
            b = svc.build_label(table, self.DESIGN, "mc")
        assert a.fingerprint == b.fingerprint


class TestVectorizedBackend:
    """Batch dispatch, per-run error isolation, and stats visibility."""

    def test_any_batch_function_runs_as_is(self):
        backend = VectorizedTrialBackend()
        assert backend.run(_square_trial, {"base": 7}, 12) == [
            7 + t * t for t in range(12)
        ]
        assert backend.run_span(_square_trial, {"base": 7}, 3, 5) == [16, 23]
        assert backend.kernel_runs == 2
        assert backend.effective_name == "vectorized"

    def test_dispatch_is_per_run_not_sticky(self):
        """A batch that raises does not stop the next one running."""
        duplicated = Table.from_dict(
            {"name": ["x", "x", "y"], "a": [1.0, 2.0, 3.0], "b": [3.0, 2.0, 1.0]}
        )
        backend = VectorizedTrialBackend()
        broken = WeightPerturbationStability(
            duplicated, SCORER, "name", trials=6, seed=5, backend=backend
        )
        with pytest.raises(RankingError, match="unique item ids"):
            broken.assess_at(0.1)
        table = jittered_table()
        estimator = WeightPerturbationStability(
            table, SCORER, "name", trials=6, seed=5, backend=backend
        )
        oracle = WeightPerturbationStability(
            table, SCORER, "name", trials=6, seed=5, backend=OracleTrialBackend()
        )
        assert estimator.assess_at(0.1) == oracle.assess_at(0.1)
        assert backend.kernel_runs == 1  # only the batch that returned

    def test_estimators_identical_on_vectorized_backend(self):
        table = jittered_table()
        backend = VectorizedTrialBackend()
        oracle = OracleTrialBackend()
        serial = WeightPerturbationStability(
            table, SCORER, "name", trials=8, seed=5, backend=oracle
        )
        vectorized = WeightPerturbationStability(
            table, SCORER, "name", trials=8, seed=5, backend=backend
        )
        for epsilon in (0.0, 0.05, 0.3):
            assert serial.assess_at(epsilon) == vectorized.assess_at(epsilon)
        serial_u = DataUncertaintyStability(
            table, SCORER, "name", trials=8, seed=5, backend=oracle
        )
        vectorized_u = DataUncertaintyStability(
            table, SCORER, "name", trials=8, seed=5, backend=backend
        )
        for epsilon in (0.0, 0.1, 0.5):
            assert serial_u.assess_at(epsilon) == vectorized_u.assess_at(epsilon)
        assert per_attribute_stability(
            table, SCORER, "name", trials=6, iterations=3, seed=5, backend=oracle
        ) == per_attribute_stability(
            table, SCORER, "name", trials=6, iterations=3, seed=5, backend=backend
        )
        assert backend.kernel_runs > 0

    def test_vectorized_labels_byte_identical_to_serial(self):
        """The acceptance criterion, end to end through the service."""
        table = TestServiceIntegration.mc_table()
        design = TestServiceIntegration.DESIGN
        with LabelService(use_cache=False, trial_backend=OracleTrialBackend()) as svc:
            serial = svc.build_label(table, design, "mc").facts
        with LabelService(use_cache=False, trial_backend="vectorized") as svc:
            outcome = svc.build_label(table, design, "mc")
            executor = svc.stats()["executor"]
        assert render_json(outcome.facts.label) == render_json(serial.label)
        assert executor["trial_backend"] == "vectorized"
        assert executor["trial_backend_effective"] == "vectorized"
        assert executor["trial_kernel_runs"] > 0
        assert executor["trial_backend_fallback"] is None
        # batched, not worker-parallel: must not read as a pool
        assert executor["parallel_trials"] is False

    def test_backend_does_not_change_the_cache_key(self):
        table = TestServiceIntegration.mc_table()
        design = TestServiceIntegration.DESIGN
        with LabelService(trial_backend=OracleTrialBackend()) as svc:
            a = svc.build_label(table, design, "mc")
        with LabelService(trial_backend="vectorized") as svc:
            b = svc.build_label(table, design, "mc")
        assert a.fingerprint == b.fingerprint

    def test_shutdown_is_a_no_op(self):
        backend = VectorizedTrialBackend()
        backend.shutdown()  # nothing to release, must not raise
        assert backend.run(_square_trial, {"base": 1}, 2) == [1, 2]
