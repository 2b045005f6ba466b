"""Tests for the Monte-Carlo plumbing (repro.stability.montecarlo)."""

import numpy as np
import pytest

from repro.engine.backends import SerialTrialBackend, VectorizedTrialBackend
from repro.ranking import LinearScoringFunction
from repro.stability import (
    DataUncertaintyStability,
    WeightPerturbationStability,
    per_attribute_stability,
    trial_rng,
)
from repro.stability.montecarlo import run_payload_trials
from repro.tabular import Table


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


@pytest.fixture()
def vectorized():
    """The kernel backend; each test checks the kernels actually ran."""
    backend = VectorizedTrialBackend()
    yield backend
    assert backend.kernel_runs > 0 and backend.scalar_runs == 0


class TestPrimitives:
    def test_trial_rng_streams_are_deterministic(self):
        assert trial_rng(3, 0).uniform() == trial_rng(3, 0).uniform()

    def test_trial_rng_streams_are_distinct(self):
        draws = {trial_rng(3, t).uniform() for t in range(20)}
        assert len(draws) == 20

    def test_run_trials_preserves_order(self):
        expected = [7 + t * t for t in range(10)]
        for backend in (None, SerialTrialBackend(), VectorizedTrialBackend()):
            assert run_payload_trials(
                lambda base, t: base + t * t, 7, 10, backend
            ) == expected


class TestParallelEqualsSerial:
    """The vectorized kernels reproduce the serial reference exactly."""

    def test_weight_perturbation(self, vectorized):
        table = jittered_table()
        serial = WeightPerturbationStability(
            table, SCORER, "name", trials=12, seed=5, backend=SerialTrialBackend()
        )
        batched = WeightPerturbationStability(
            table, SCORER, "name", trials=12, seed=5, backend=vectorized
        )
        for epsilon in (0.0, 0.05, 0.3):
            assert serial.assess_at(epsilon) == batched.assess_at(epsilon)

    def test_data_uncertainty(self, vectorized):
        table = jittered_table()
        serial = DataUncertaintyStability(
            table, SCORER, "name", trials=12, seed=5, backend=SerialTrialBackend()
        )
        batched = DataUncertaintyStability(
            table, SCORER, "name", trials=12, seed=5, backend=vectorized
        )
        for epsilon in (0.0, 0.1, 0.5):
            assert serial.assess_at(epsilon) == batched.assess_at(epsilon)

    def test_per_attribute(self, vectorized):
        table = jittered_table()
        serial = per_attribute_stability(
            table, SCORER, "name", trials=8, iterations=4, seed=5,
            backend=SerialTrialBackend(),
        )
        batched = per_attribute_stability(
            table, SCORER, "name", trials=8, iterations=4, seed=5,
            backend=vectorized,
        )
        assert serial == batched

    def test_trials_are_order_independent(self):
        """The per-trial streams mean trial i's outcome ignores trial j."""
        table = jittered_table()
        ten = WeightPerturbationStability(table, SCORER, "name", trials=10, seed=5)
        twenty = WeightPerturbationStability(table, SCORER, "name", trials=20, seed=5)
        # the first ten trials of both estimators are the same draws, so
        # a run that only changed `trials` shares its prefix outcomes
        def prefix_changes(estimator, trials):
            return [
                estimator._run_trial(0.1, trial)[2] for trial in range(trials)
            ]

        assert prefix_changes(ten, 10) == prefix_changes(twenty, 10)
