"""Tests for repro.stability.kernels: vectorized trial batches.

The acceptance-critical property lives here: for every payload a
kernel accepts, its batch result is **byte-identical** to running the
scalar trial function over ``range(trials)`` — across seeds, k, and
epsilon, for all three estimators.  Payloads a kernel cannot reproduce
exactly (non-linear scorers, duplicate ids, inconsistent baselines)
must be declined with a reason so the ``vectorized`` backend can fall
back to the scalar path.
"""

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.datasets import synthetic_scores_table
from repro.engine.backends import VectorizedTrialBackend
from repro.ranking.ranker import rank_table
from repro.ranking.scoring import LinearScoringFunction, ScoringFunction
from repro.stability import (
    DataUncertaintyStability,
    WeightPerturbationStability,
    per_attribute_stability,
)
from repro.stability.kernels import (
    dispatch_kernel,
    kernel_for,
    run_attribute_kernel,
    run_perturbation_kernel,
    run_uncertainty_kernel,
)
from repro.stability.per_attribute import AttributeTrialPayload, _attribute_trial
from repro.stability.perturbation import (
    PerturbationTrialPayload,
    _perturbation_trial,
)
from repro.stability.uncertainty import _uncertainty_trial
from repro.tabular import Table

WEIGHTS = {"attr_1": 0.5, "attr_2": 0.3, "attr_3": 0.2}


def mc_table(n=60, seed=11):
    return synthetic_scores_table(
        n, num_attributes=3, group_advantage=0.6, seed=seed
    )


def scalar_batch(fn, payload, trials, start=0):
    """The reference: the scalar trial function, run serially."""
    return [fn(payload, start + t) for t in range(trials)]


class SubclassedLinear(LinearScoringFunction):
    """A linear subclass that overrides scoring — kernels must decline it."""

    def score_table(self, table):
        return super().score_table(table) + 1.0


class CubeScorer(ScoringFunction):
    """A genuinely non-linear scorer (for the uncertainty estimator)."""

    name = "cube scorer"

    def __init__(self, attribute: str):
        self._attribute = attribute

    def score_table(self, table):
        return np.nan_to_num(table.numeric_column(self._attribute).values) ** 3

    def attributes(self):
        return (self._attribute,)


class TestByteIdentityViaEstimators:
    """Estimator outcomes on the vectorized backend == serial outcomes."""

    @pytest.mark.parametrize("seed", [0, 7, 20180610])
    @pytest.mark.parametrize("epsilon", [0.0, 0.02, 0.25])
    def test_perturbation(self, seed, epsilon):
        table = mc_table()
        scorer = LinearScoringFunction(WEIGHTS)
        backend = VectorizedTrialBackend()
        for k in (1, 5, 200):  # 200 > n exercises the clamped prefix
            serial = WeightPerturbationStability(
                table, scorer, "item", k=k, trials=16, seed=seed
            )
            vectorized = WeightPerturbationStability(
                table, scorer, "item", k=k, trials=16, seed=seed, backend=backend
            )
            assert serial.assess_at(epsilon) == vectorized.assess_at(epsilon)
        assert backend.scalar_runs == 0

    @pytest.mark.parametrize("seed", [0, 7])
    @pytest.mark.parametrize("epsilon", [0.0, 0.1, 0.5])
    def test_uncertainty(self, seed, epsilon):
        table = mc_table(seed=5)
        scorer = LinearScoringFunction(WEIGHTS)
        backend = VectorizedTrialBackend()
        for k in (3, 10):
            serial = DataUncertaintyStability(
                table, scorer, "item", k=k, trials=16, seed=seed
            )
            vectorized = DataUncertaintyStability(
                table, scorer, "item", k=k, trials=16, seed=seed, backend=backend
            )
            assert serial.assess_at(epsilon) == vectorized.assess_at(epsilon)
        assert backend.scalar_runs == 0

    @pytest.mark.parametrize("seed", [1, 42])
    def test_per_attribute(self, seed):
        table = mc_table(seed=3)
        scorer = LinearScoringFunction(WEIGHTS)
        backend = VectorizedTrialBackend()
        serial = per_attribute_stability(
            table, scorer, "item", k=8, trials=8, iterations=4, seed=seed
        )
        vectorized = per_attribute_stability(
            table, scorer, "item", k=8, trials=8, iterations=4, seed=seed,
            backend=backend,
        )
        assert serial == vectorized
        assert backend.scalar_runs == 0
        assert backend.kernel_runs > 0

    def test_per_attribute_without_id_column(self):
        """Positional ids: the kernel must mirror the scalar quirk exactly."""
        table = mc_table(seed=9)
        scorer = LinearScoringFunction(WEIGHTS)
        backend = VectorizedTrialBackend()
        serial = per_attribute_stability(
            table, scorer, None, k=8, trials=6, iterations=3, seed=1
        )
        vectorized = per_attribute_stability(
            table, scorer, None, k=8, trials=6, iterations=3, seed=1,
            backend=backend,
        )
        assert serial == vectorized
        assert backend.scalar_runs == 0

    def test_zero_weight_attribute_jitters_identically(self):
        """The mean-|w| rescue for zero weights must match draw-for-draw."""
        table = mc_table(seed=2)
        scorer = LinearScoringFunction({"attr_1": 0.7, "attr_2": 0.0, "attr_3": 0.3})
        backend = VectorizedTrialBackend()
        serial = WeightPerturbationStability(
            table, scorer, "item", k=5, trials=12, seed=4
        )
        vectorized = WeightPerturbationStability(
            table, scorer, "item", k=5, trials=12, seed=4, backend=backend
        )
        assert serial.assess_at(0.3) == vectorized.assess_at(0.3)
        assert backend.scalar_runs == 0

    @pytest.mark.parametrize("policy", ["zero", "propagate"])
    def test_missing_values_both_policies(self, policy):
        rng = np.random.default_rng(8)
        values_a = rng.normal(0, 1, 40)
        values_b = rng.normal(0, 1, 40)
        values_a[::7] = np.nan  # a NaN pattern both paths must honour
        table = Table.from_dict(
            {"name": [f"i{j}" for j in range(40)], "a": values_a, "b": values_b}
        )
        scorer = LinearScoringFunction({"a": 0.6, "b": 0.4}, missing_policy=policy)
        backend = VectorizedTrialBackend()
        serial = WeightPerturbationStability(
            table, scorer, "name", k=5, trials=10, seed=6
        )
        vectorized = WeightPerturbationStability(
            table, scorer, "name", k=5, trials=10, seed=6, backend=backend
        )
        assert serial.assess_at(0.2) == vectorized.assess_at(0.2)
        serial_u = DataUncertaintyStability(
            table, scorer, "name", k=5, trials=10, seed=6
        )
        vectorized_u = DataUncertaintyStability(
            table, scorer, "name", k=5, trials=10, seed=6, backend=backend
        )
        assert serial_u.assess_at(0.2) == vectorized_u.assess_at(0.2)
        assert backend.scalar_runs == 0


class TestKernelsMatchScalarTrialFunctions:
    """Raw kernel output == the scalar trial function, element for element."""

    def test_perturbation_kernel_raw(self):
        table = mc_table(n=40)
        scorer = LinearScoringFunction(WEIGHTS)
        estimator = WeightPerturbationStability(
            table, scorer, "item", k=7, trials=9, seed=13
        )
        payload = estimator._payload_at(0.15)
        assert run_perturbation_kernel(payload, 9) == scalar_batch(
            _perturbation_trial, payload, 9
        )

    def test_uncertainty_kernel_raw(self):
        table = mc_table(n=40)
        scorer = LinearScoringFunction(WEIGHTS)
        estimator = DataUncertaintyStability(
            table, scorer, "item", k=7, trials=9, seed=13
        )
        payload = estimator._payload_at(0.15)
        assert run_uncertainty_kernel(payload, 9) == scalar_batch(
            _uncertainty_trial, payload, 9
        )

    def test_attribute_kernel_raw(self):
        table = mc_table(n=40)
        scorer = LinearScoringFunction(WEIGHTS)
        baseline = rank_table(table, scorer, "item")
        payload = AttributeTrialPayload(
            table=table,
            scorer=scorer,
            attribute="attr_2",
            epsilon=0.6,
            scale=abs(WEIGHTS["attr_2"]),
            id_column="item",
            baseline_top=frozenset(baseline.item_ids()[:7]),
            k=7,
            seed=21,
        )
        assert run_attribute_kernel(payload, 9) == scalar_batch(
            _attribute_trial, payload, 9
        )


def attribute_payload(table, scorer, attribute, epsilon, k, seed):
    """A per-attribute payload built the way ``_change_probability`` does."""
    weights = scorer.weights
    weight = weights[attribute]
    scale = abs(weight) if weight != 0.0 else float(
        np.mean([abs(w) for w in weights.values()])
    )
    baseline = rank_table(table, scorer, "item")
    return AttributeTrialPayload(
        table=table,
        scorer=scorer,
        attribute=attribute,
        epsilon=epsilon,
        scale=scale,
        id_column="item",
        baseline_top=frozenset(baseline.item_ids()[:k]),
        k=k,
        seed=seed,
    )


#: integer-valued cells make score ties at the k boundary likely
CELLS = st.one_of(
    st.integers(-3, 3).map(float),
    st.sampled_from([-0.0, float("nan")]),
    st.floats(-10.0, 10.0, allow_nan=False),
)
WEIGHT_VALUES = st.one_of(
    st.sampled_from([0.0, 1.0, -1.0, 0.5]), st.floats(-2.0, 2.0, allow_nan=False)
)


class TestAttributeKernelProperty:
    """The sort-free per-attribute kernel == the scalar trial path."""

    @given(
        data=st.data(),
        n=st.integers(1, 14),
        weights=st.lists(WEIGHT_VALUES, min_size=3, max_size=3),
        policy=st.sampled_from(["zero", "propagate"]),
        attribute=st.sampled_from(["a", "b", "c"]),
        k_choice=st.sampled_from(["1", "n-1", "n", "n+1"]),
        log_epsilon=st.floats(-12.0, 0.0),
        seed=st.integers(0, 2**16),
        trials=st.integers(1, 12),
        start=st.sampled_from([0, 0, 7, 40]),
    )
    @settings(max_examples=250, deadline=None)
    def test_matches_scalar_trials(
        self, data, n, weights, policy, attribute, k_choice, log_epsilon,
        seed, trials, start,
    ):
        assume(any(w != 0.0 for w in weights))
        columns = {
            name: data.draw(st.lists(CELLS, min_size=n, max_size=n), label=name)
            for name in ("a", "b", "c")
        }
        table = Table.from_dict({"item": [f"i{j}" for j in range(n)], **columns})
        scorer = LinearScoringFunction(
            dict(zip(("a", "b", "c"), weights)), missing_policy=policy
        )
        k = {"1": 1, "n-1": max(1, n - 1), "n": n, "n+1": n + 1}[k_choice]
        payload = attribute_payload(
            table, scorer, attribute, 10.0 ** log_epsilon, k, seed
        )
        if data.draw(st.booleans(), label="arbitrary baseline_top"):
            # a baseline set that is not the table's own top-k
            ids = data.draw(st.permutations(table.column("item").values.tolist()))
            payload = replace(payload, baseline_top=frozenset(ids[:k]))
        assert run_attribute_kernel(payload, trials, start) == scalar_batch(
            _attribute_trial, payload, trials, start
        )

    def test_nan_member_keeps_every_row(self):
        """A NaN-scored member sorts last, so no finite row may be pruned."""
        table = Table.from_dict(
            {"item": ["i0", "i1"], "a": [-100.0, float("nan")], "b": [0.0, 0.0]}
        )
        scorer = LinearScoringFunction({"a": 1.0, "b": 1.0}, missing_policy="propagate")
        payload = replace(
            attribute_payload(table, scorer, "b", 0.01, 1, 2),
            baseline_top=frozenset({"i1"}),
        )
        assert run_attribute_kernel(payload, 4) == [True] * 4
        assert scalar_batch(_attribute_trial, payload, 4) == [True] * 4

    def test_baseline_id_absent_from_table_always_flags(self):
        table = mc_table(n=30)
        scorer = LinearScoringFunction(WEIGHTS)
        genuine = attribute_payload(table, scorer, "attr_1", 0.01, 3, 2)
        payload = replace(
            genuine,
            baseline_top=frozenset(sorted(genuine.baseline_top)[:2] + ["absent"]),
        )
        assert run_attribute_kernel(payload, 5) == [True] * 5
        assert scalar_batch(_attribute_trial, payload, 5) == [True] * 5

    @pytest.mark.parametrize("epsilon", [1e-12, 1e-3, 0.3, 1.0])
    def test_pruned_large_table_matches_scalar(self, epsilon):
        """Most rows are pruned on a wide table; the flags must not move."""
        rng = np.random.default_rng(3)
        n = 400
        table = Table.from_dict(
            {
                "item": [f"i{j}" for j in range(n)],
                "a": rng.integers(0, 20, n).astype(float),
                "b": rng.integers(0, 20, n).astype(float),
                "c": rng.normal(0.0, 1.0, n),
            }
        )
        scorer = LinearScoringFunction({"a": 0.5, "b": 0.3, "c": 0.2})
        for attribute in ("a", "b", "c"):
            payload = attribute_payload(table, scorer, attribute, epsilon, 10, 5)
            assert run_attribute_kernel(payload, 20, 3) == scalar_batch(
                _attribute_trial, payload, 20, 3
            )

    def test_never_sorts(self, monkeypatch):
        """Structural guard: a probe selects, it never calls a numpy sort."""
        table = mc_table(n=200, seed=4)
        scorer = LinearScoringFunction(WEIGHTS)
        payloads = [
            attribute_payload(table, scorer, attribute, epsilon, 10, 9)
            for attribute in WEIGHTS
            for epsilon in (0.05, 1.0)
        ]
        calls = []
        for name in ("argsort", "sort"):

            def counted(*args, _original=getattr(np, name), _name=name, **kwargs):
                calls.append(_name)
                return _original(*args, **kwargs)

            monkeypatch.setattr(np, name, counted)
        for payload in payloads:
            run_attribute_kernel(payload, 30)
        assert calls == []


class TestFallbackDispatch:
    """Ineligible work is declined with a reason, never computed wrong."""

    def test_unknown_trial_function(self):
        results, reason = dispatch_kernel(lambda payload, trial: 0, {}, 3)
        assert results is None
        assert "no vectorized kernel" in reason

    def test_payload_type_mismatch(self):
        results, reason = dispatch_kernel(_perturbation_trial, {"not": "it"}, 3)
        assert results is None
        assert "does not match" in reason

    def test_kernel_for_registry(self):
        assert kernel_for(_perturbation_trial) is run_perturbation_kernel
        assert kernel_for(_uncertainty_trial) is run_uncertainty_kernel
        assert kernel_for(_attribute_trial) is run_attribute_kernel
        assert kernel_for(print) is None

    def test_linear_subclass_declined_but_results_match(self):
        """A subclass may override score_table — fall back, stay correct."""
        table = mc_table(n=30)
        scorer = SubclassedLinear(WEIGHTS)
        backend = VectorizedTrialBackend()
        serial = WeightPerturbationStability(
            table, scorer, "item", k=5, trials=8, seed=2
        )
        vectorized = WeightPerturbationStability(
            table, scorer, "item", k=5, trials=8, seed=2, backend=backend
        )
        assert serial.assess_at(0.1) == vectorized.assess_at(0.1)
        assert backend.kernel_runs == 0
        assert backend.scalar_runs == 1
        assert "LinearScoringFunction" in backend.fallback_reason

    def test_nonlinear_scorer_declined_but_results_match(self):
        table = mc_table(n=30)
        scorer = CubeScorer("attr_1")
        backend = VectorizedTrialBackend()
        serial = DataUncertaintyStability(
            table, scorer, "item", k=5, trials=8, seed=2
        )
        vectorized = DataUncertaintyStability(
            table, scorer, "item", k=5, trials=8, seed=2, backend=backend
        )
        assert serial.assess_at(0.2) == vectorized.assess_at(0.2)
        assert backend.kernel_runs == 0
        assert backend.scalar_runs == 1

    def test_duplicate_ids_declined(self):
        table = Table.from_dict(
            {
                "name": ["x", "x", "y", "z"],
                "a": [1.0, 2.0, 3.0, 4.0],
                "b": [4.0, 3.0, 2.0, 1.0],
            }
        )
        scorer = LinearScoringFunction({"a": 0.5, "b": 0.5})
        payload = PerturbationTrialPayload(
            table=table,
            scorer=scorer,
            id_column="name",
            baseline_ids=("x", "x", "y", "z"),
            baseline_top=frozenset({"x", "y"}),
            k=2,
            epsilon=0.1,
            seed=1,
        )
        results, reason = dispatch_kernel(_perturbation_trial, payload, 4)
        assert results is None
        assert "unique" in reason

    def test_inconsistent_baseline_declined(self):
        """A payload whose baseline lies about its table must not be trusted."""
        table = mc_table(n=20)
        scorer = LinearScoringFunction(WEIGHTS)
        estimator = WeightPerturbationStability(
            table, scorer, "item", k=5, trials=4, seed=1
        )
        genuine = estimator._payload_at(0.1)
        doctored = PerturbationTrialPayload(
            table=genuine.table,
            scorer=genuine.scorer,
            id_column=genuine.id_column,
            baseline_ids=tuple(reversed(genuine.baseline_ids)),
            baseline_top=genuine.baseline_top,
            k=genuine.k,
            epsilon=genuine.epsilon,
            seed=genuine.seed,
        )
        results, reason = dispatch_kernel(_perturbation_trial, doctored, 4)
        assert results is None
        assert "baseline" in reason
