"""Tests for repro.engine.backends: Monte-Carlo trial execution.

The acceptance-critical properties live here:

- only ``serial``, ``vectorized`` and ``remote`` resolve, on any host;
- labels built on the vectorized backend are byte-identical to serial
  labels for equal seeds;
- the vectorized backend falls back per run to the scalar loop for work
  it has no kernel for, recording the reason for the stats endpoint.
"""

import os

import numpy as np
import pytest

from repro.cluster.coordinator import RemoteTrialBackend, _chunk_spans
from repro.engine import LabelDesign, LabelService
from repro.engine.backends import (
    BACKEND_NAMES,
    SerialTrialBackend,
    TrialBackend,
    VectorizedTrialBackend,
    resolve_trial_backend,
)
from repro.errors import EngineError
from repro.label.render_json import render_json
from repro.ranking import LinearScoringFunction
from repro.stability import (
    DataUncertaintyStability,
    WeightPerturbationStability,
    per_attribute_stability,
)
from repro.stability.montecarlo import run_payload_trials
from repro.tabular import Table


def _square_trial(payload, trial):
    """Module-level (hence picklable) trial function for the unit tests."""
    return payload["base"] + trial * trial


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
        assert isinstance(resolve_trial_backend("serial"), SerialTrialBackend)

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
    """Every backend returns results in trial order, serial-identical."""

    def expected(self, trials=12):
        return [_square_trial({"base": 7}, t) for t in range(trials)]

    def test_serial(self):
        backend = SerialTrialBackend()
        assert backend.run(_square_trial, {"base": 7}, 12) == self.expected()

    def test_run_payload_trials_inline_matches_backends(self):
        inline = run_payload_trials(_square_trial, {"base": 7}, 12)
        assert inline == self.expected()


class TestBackendsMatchSerialEstimates:
    """The three estimators give identical results on every local backend."""

    BACKENDS = (SerialTrialBackend, VectorizedTrialBackend)

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
        with LabelService(trial_backend="serial") as svc:
            executor = svc.stats()["executor"]
            assert executor["trial_backend"] == "serial"
            assert executor["trial_backend_effective"] == "serial"
            assert executor["trial_backend_fallback"] is None
            assert executor["parallel_trials"] is False

    def test_stats_track_runtime_fallback(self):
        """A remote backend that fell back locally must not read as parallel."""
        with LabelService(trial_backend=RemoteTrialBackend([])) as svc:
            backend = svc.executor.trial_backend()
            backend.run(_square_trial, {"base": 0}, 2)
            executor = svc.stats()["executor"]
            assert executor["trial_backend"] == "remote"
            assert executor["trial_backend_effective"] == "serial"
            assert "no workers configured" in executor["trial_backend_fallback"]
            assert executor["parallel_trials"] is False

    def test_unknown_backend_fails_at_construction(self):
        with pytest.raises(EngineError, match="unknown trial backend"):
            LabelService(trial_backend="quantum")

    def test_backend_does_not_change_the_cache_key(self):
        """Execution detail must not fragment the content-addressed cache."""
        table = self.mc_table()
        with LabelService(trial_backend="serial") as svc:
            a = svc.build_label(table, self.DESIGN, "mc")
        with LabelService(trial_backend=RemoteTrialBackend([])) as svc:
            b = svc.build_label(table, self.DESIGN, "mc")
        assert a.fingerprint == b.fingerprint


class TestVectorizedBackend:
    """Kernel dispatch, per-run fallback, and stats visibility."""

    def test_non_kernel_work_runs_inline_with_reason(self):
        backend = VectorizedTrialBackend()
        assert backend.run(_square_trial, {"base": 7}, 12) == [
            _square_trial({"base": 7}, t) for t in range(12)
        ]
        assert backend.kernel_runs == 0
        assert backend.scalar_runs == 1
        assert "no vectorized kernel" in backend.fallback_reason
        assert backend.effective_name == "serial"  # nothing vectorized yet

    def test_dispatch_is_per_run_not_sticky(self):
        table = jittered_table()
        backend = VectorizedTrialBackend()
        backend.run(_square_trial, {"base": 7}, 4)  # declined
        estimator = WeightPerturbationStability(
            table, SCORER, "name", trials=6, seed=5, backend=backend
        )
        serial = WeightPerturbationStability(table, SCORER, "name", trials=6, seed=5)
        assert estimator.assess_at(0.1) == serial.assess_at(0.1)
        assert backend.kernel_runs == 1  # the decline did not stick
        assert backend.effective_name == "vectorized"

    def test_estimators_identical_on_vectorized_backend(self):
        table = jittered_table()
        backend = VectorizedTrialBackend()
        serial = WeightPerturbationStability(table, SCORER, "name", trials=8, seed=5)
        vectorized = WeightPerturbationStability(
            table, SCORER, "name", trials=8, seed=5, backend=backend
        )
        for epsilon in (0.0, 0.05, 0.3):
            assert serial.assess_at(epsilon) == vectorized.assess_at(epsilon)
        serial_u = DataUncertaintyStability(table, SCORER, "name", trials=8, seed=5)
        vectorized_u = DataUncertaintyStability(
            table, SCORER, "name", trials=8, seed=5, backend=backend
        )
        for epsilon in (0.0, 0.1, 0.5):
            assert serial_u.assess_at(epsilon) == vectorized_u.assess_at(epsilon)
        assert per_attribute_stability(
            table, SCORER, "name", trials=6, iterations=3, seed=5
        ) == per_attribute_stability(
            table, SCORER, "name", trials=6, iterations=3, seed=5, backend=backend
        )
        assert backend.scalar_runs == 0

    def test_vectorized_labels_byte_identical_to_serial(self):
        """The acceptance criterion, end to end through the service."""
        table = TestServiceIntegration.mc_table()
        design = TestServiceIntegration.DESIGN
        serial = design.builder_for(table, dataset_name="mc").build()
        with LabelService(use_cache=False, trial_backend="vectorized") as svc:
            outcome = svc.build_label(table, design, "mc")
            executor = svc.stats()["executor"]
        assert render_json(outcome.facts.label) == render_json(serial.label)
        assert executor["trial_backend"] == "vectorized"
        assert executor["trial_backend_effective"] == "vectorized"
        assert executor["trial_kernel_runs"] > 0
        assert executor["trial_scalar_fallbacks"] == 0
        # batched, not worker-parallel: must not read as a pool
        assert executor["parallel_trials"] is False

    def test_stats_surface_kernel_fallback_reason(self):
        with LabelService(trial_backend="vectorized") as svc:
            backend = svc.executor.trial_backend()
            backend.run(_square_trial, {"base": 0}, 2)
            executor = svc.stats()["executor"]
        assert executor["trial_backend_effective"] == "serial"
        assert "no vectorized kernel" in executor["trial_backend_fallback"]
        assert executor["trial_scalar_fallbacks"] == 1

    def test_backend_does_not_change_the_cache_key(self):
        table = TestServiceIntegration.mc_table()
        design = TestServiceIntegration.DESIGN
        with LabelService(trial_backend="serial") as svc:
            a = svc.build_label(table, design, "mc")
        with LabelService(trial_backend="vectorized") as svc:
            b = svc.build_label(table, design, "mc")
        assert a.fingerprint == b.fingerprint

    def test_shutdown_is_a_no_op(self):
        backend = VectorizedTrialBackend()
        backend.shutdown()  # nothing to release, must not raise
        assert backend.run(_square_trial, {"base": 1}, 2) == [1, 2]
