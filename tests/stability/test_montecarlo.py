"""Tests for the Monte-Carlo plumbing (repro.stability.montecarlo)."""

import numpy as np
import pytest

from repro.engine.backends import VectorizedTrialBackend
from repro.ranking import LinearScoringFunction
from repro.stability import (
    DataUncertaintyStability,
    WeightPerturbationStability,
    per_attribute_stability,
    trial_rng,
)
from repro.stability.kernels import run_perturbation_kernel
from repro.stability.montecarlo import run_payload_trials
from repro.tabular import Table
from tests.oracles import OracleTrialBackend


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
    assert backend.kernel_runs > 0


class TestPrimitives:
    def test_trial_rng_streams_are_deterministic(self):
        assert trial_rng(3, 0).uniform() == trial_rng(3, 0).uniform()

    def test_trial_rng_streams_are_distinct(self):
        draws = {trial_rng(3, t).uniform() for t in range(20)}
        assert len(draws) == 20

    def test_run_trials_preserves_order(self):
        expected = [7 + t * t for t in range(10)]
        for backend in (None, OracleTrialBackend(), VectorizedTrialBackend()):
            assert run_payload_trials(
                lambda base, trials, start: [
                    base + t * t for t in range(start, start + trials)
                ],
                7, 10, backend,
            ) == expected


class TestParallelEqualsSerial:
    """The vectorized kernels reproduce the per-trial oracle exactly."""

    def test_weight_perturbation(self, vectorized):
        table = jittered_table()
        serial = WeightPerturbationStability(
            table, SCORER, "name", trials=12, seed=5, backend=OracleTrialBackend()
        )
        batched = WeightPerturbationStability(
            table, SCORER, "name", trials=12, seed=5, backend=vectorized
        )
        for epsilon in (0.0, 0.05, 0.3):
            assert serial.assess_at(epsilon) == batched.assess_at(epsilon)

    def test_data_uncertainty(self, vectorized):
        table = jittered_table()
        serial = DataUncertaintyStability(
            table, SCORER, "name", trials=12, seed=5, backend=OracleTrialBackend()
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
            backend=OracleTrialBackend(),
        )
        batched = per_attribute_stability(
            table, SCORER, "name", trials=8, iterations=4, seed=5,
            backend=vectorized,
        )
        assert serial == batched

    def test_trials_are_order_independent(self):
        """The per-trial streams mean trial i's outcome ignores trial j."""
        table = jittered_table()
        payload = WeightPerturbationStability(
            table, SCORER, "name", trials=10, seed=5
        )._payload_at(0.1)
        # the first ten trials of a twenty-trial batch are the same draws,
        # and so is any span computed on its own at its absolute indices
        twenty = run_perturbation_kernel(payload, 20)
        assert run_perturbation_kernel(payload, 10) == twenty[:10]
        assert run_perturbation_kernel(payload, 5, 12) == twenty[12:17]
