"""Tests for repro.stability.kernels: vectorized trial batches.

The acceptance-critical property lives here: each kernel's batch
result is **byte-identical** to running the scalar trial function it
replaced (``tests.oracles``) over ``range(trials)`` — across seeds, k,
and epsilon, for all three estimators.  Where the scalar path raises,
the kernel raises the same error type with the same message; a
non-linear scorer or a baseline that disagrees with its table raises
``StabilityError``.
"""

from dataclasses import replace
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro import _native
from repro.datasets import synthetic_scores_table
from repro.engine.backends import VectorizedTrialBackend
from repro.errors import RankingError, StabilityError, WeightError
from repro.ranking.ranker import rank_table
from repro.ranking.scoring import LinearScoringFunction, ScoringFunction
from repro.stability import (
    DataUncertaintyStability,
    WeightPerturbationStability,
    per_attribute_stability,
)
from repro.stability.kernels import (
    _movement_outcomes,
    dispatch_kernel,
    run_attribute_kernel,
    run_perturbation_kernel,
    run_uncertainty_kernel,
)
from repro.stability.per_attribute import AttributeTrialPayload
from repro.stability.perturbation import PerturbationTrialPayload
from repro.stability.uncertainty import UncertaintyTrialPayload
from repro.tabular import Table
from tests.oracles import (
    OracleTrialBackend,
    _attribute_trial,
    _perturbation_trial,
    _uncertainty_trial,
)

WEIGHTS = {"attr_1": 0.5, "attr_2": 0.3, "attr_3": 0.2}

needs_native = pytest.mark.skipif(
    _native.movement is None,
    reason=f"native kernels did not load: {_native.reason}",
)


def mc_table(n=60, seed=11):
    return synthetic_scores_table(
        n, num_attributes=3, group_advantage=0.6, seed=seed
    )


def scalar_batch(fn, payload, trials, start=0):
    """The reference: the scalar trial function, one trial at a time."""
    return [fn(payload, start + t) for t in range(trials)]


def error_of(call, *args):
    """``(type, message)`` of what ``call(*args)`` raises."""
    with pytest.raises(Exception) as caught:
        call(*args)
    return type(caught.value), str(caught.value)


def assert_raises_like_oracle(kernel, oracle, payload, trials=4, start=0):
    """The kernel raises exactly the error the scalar trial raises."""
    expected = error_of(scalar_batch, oracle, payload, trials, start)
    assert error_of(kernel, payload, trials, start) == expected
    return expected


class SubclassedLinear(LinearScoringFunction):
    """A linear subclass that overrides scoring — the estimators refuse it."""

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
    """Estimator outcomes on the vectorized backend == oracle outcomes."""

    @pytest.mark.parametrize("seed", [0, 7, 20180610])
    @pytest.mark.parametrize("epsilon", [0.0, 0.02, 0.25])
    def test_perturbation(self, seed, epsilon):
        table = mc_table()
        scorer = LinearScoringFunction(WEIGHTS)
        backend = VectorizedTrialBackend()
        for k in (1, 5, 200):  # 200 > n exercises the clamped prefix
            serial = WeightPerturbationStability(
                table, scorer, "item", k=k, trials=16, seed=seed,
                backend=OracleTrialBackend(),
            )
            vectorized = WeightPerturbationStability(
                table, scorer, "item", k=k, trials=16, seed=seed, backend=backend
            )
            assert serial.assess_at(epsilon) == vectorized.assess_at(epsilon)
        assert backend.kernel_runs > 0

    @pytest.mark.parametrize("seed", [0, 7])
    @pytest.mark.parametrize("epsilon", [0.0, 0.1, 0.5])
    def test_uncertainty(self, seed, epsilon):
        table = mc_table(seed=5)
        scorer = LinearScoringFunction(WEIGHTS)
        backend = VectorizedTrialBackend()
        for k in (3, 10):
            serial = DataUncertaintyStability(
                table, scorer, "item", k=k, trials=16, seed=seed,
                backend=OracleTrialBackend(),
            )
            vectorized = DataUncertaintyStability(
                table, scorer, "item", k=k, trials=16, seed=seed, backend=backend
            )
            assert serial.assess_at(epsilon) == vectorized.assess_at(epsilon)
        assert backend.kernel_runs > 0

    @pytest.mark.parametrize("seed", [1, 42])
    def test_per_attribute(self, seed):
        table = mc_table(seed=3)
        scorer = LinearScoringFunction(WEIGHTS)
        backend = VectorizedTrialBackend()
        serial = per_attribute_stability(
            table, scorer, "item", k=8, trials=8, iterations=4, seed=seed,
            backend=OracleTrialBackend(),
        )
        vectorized = per_attribute_stability(
            table, scorer, "item", k=8, trials=8, iterations=4, seed=seed,
            backend=backend,
        )
        assert serial == vectorized
        assert backend.kernel_runs > 0

    def test_per_attribute_without_id_column(self):
        """Positional ids: the kernel must mirror the scalar quirk exactly."""
        table = mc_table(seed=9)
        scorer = LinearScoringFunction(WEIGHTS)
        backend = VectorizedTrialBackend()
        serial = per_attribute_stability(
            table, scorer, None, k=8, trials=6, iterations=3, seed=1,
            backend=OracleTrialBackend(),
        )
        vectorized = per_attribute_stability(
            table, scorer, None, k=8, trials=6, iterations=3, seed=1,
            backend=backend,
        )
        assert serial == vectorized
        assert backend.kernel_runs > 0

    def test_zero_weight_attribute_jitters_identically(self):
        """The mean-|w| rescue for zero weights must match draw-for-draw."""
        table = mc_table(seed=2)
        scorer = LinearScoringFunction({"attr_1": 0.7, "attr_2": 0.0, "attr_3": 0.3})
        backend = VectorizedTrialBackend()
        serial = WeightPerturbationStability(
            table, scorer, "item", k=5, trials=12, seed=4,
            backend=OracleTrialBackend(),
        )
        vectorized = WeightPerturbationStability(
            table, scorer, "item", k=5, trials=12, seed=4, backend=backend
        )
        assert serial.assess_at(0.3) == vectorized.assess_at(0.3)
        assert backend.kernel_runs > 0

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
            table, scorer, "name", k=5, trials=10, seed=6,
            backend=OracleTrialBackend(),
        )
        vectorized = WeightPerturbationStability(
            table, scorer, "name", k=5, trials=10, seed=6, backend=backend
        )
        assert serial.assess_at(0.2) == vectorized.assess_at(0.2)
        serial_u = DataUncertaintyStability(
            table, scorer, "name", k=5, trials=10, seed=6,
            backend=OracleTrialBackend(),
        )
        vectorized_u = DataUncertaintyStability(
            table, scorer, "name", k=5, trials=10, seed=6, backend=backend
        )
        assert serial_u.assess_at(0.2) == vectorized_u.assess_at(0.2)
        assert backend.kernel_runs > 0


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


def draw_table(data, n, names):
    """An ``item`` id column plus one drawn ``CELLS`` column per name."""
    columns = {
        name: data.draw(st.lists(CELLS, min_size=n, max_size=n), label=name)
        for name in names
    }
    return Table.from_dict({"item": [f"i{j}" for j in range(n)], **columns})


K_CHOICES = st.sampled_from(["1", "n-1", "n", "n+1"])


def k_for(choice, n):
    return {"1": 1, "n-1": max(1, n - 1), "n": n, "n+1": n + 1}[choice]


class TestAttributeKernelProperty:
    """The sort-free per-attribute kernel == the scalar trial path."""

    @given(
        data=st.data(),
        n=st.integers(1, 14),
        weights=st.lists(WEIGHT_VALUES, min_size=3, max_size=3),
        policy=st.sampled_from(["zero", "propagate"]),
        attribute=st.sampled_from(["a", "b", "c"]),
        k_choice=K_CHOICES,
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
        table = draw_table(data, n, ("a", "b", "c"))
        scorer = LinearScoringFunction(
            dict(zip(("a", "b", "c"), weights)), missing_policy=policy
        )
        k = k_for(k_choice, n)
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


def uncertainty_payload(table, scorer, attribute_stds, epsilon, k, seed):
    """An uncertainty payload with a free-form ``attribute_stds``."""
    ids = rank_table(table, scorer, "item").item_ids()
    return UncertaintyTrialPayload(
        table=table,
        scorer=scorer,
        id_column="item",
        baseline_ids=tuple(ids),
        baseline_top=frozenset(ids[:k]),
        attribute_stds=tuple(attribute_stds),
        k=k,
        epsilon=epsilon,
        seed=seed,
    )


class TestPerturbationKernelProperty:
    """The trial-major perturbation kernel == the scalar trial path."""

    @given(
        data=st.data(),
        n=st.integers(2, 14),
        weights=st.lists(WEIGHT_VALUES, min_size=3, max_size=3),
        policy=st.sampled_from(["zero", "propagate"]),
        k_choice=K_CHOICES,
        log_epsilon=st.floats(-12.0, 0.0),
        seed=st.integers(0, 2**16),
        trials=st.integers(1, 12),
        start=st.sampled_from([0, 7, 40]),
    )
    @settings(max_examples=200, deadline=None)
    def test_matches_scalar_trials(
        self, data, n, weights, policy, k_choice, log_epsilon, seed, trials, start,
    ):
        assume(any(w != 0.0 for w in weights))
        table = draw_table(data, n, ("a", "b", "c"))
        scorer = LinearScoringFunction(
            dict(zip(("a", "b", "c"), weights)), missing_policy=policy
        )
        payload = WeightPerturbationStability(
            table, scorer, "item", k=k_for(k_choice, n), trials=1, seed=seed
        )._payload_at(10.0 ** log_epsilon)
        assert run_perturbation_kernel(payload, trials, start) == scalar_batch(
            _perturbation_trial, payload, trials, start
        )


class TestUncertaintyKernelProperty:
    """The trial-major uncertainty kernel == the scalar trial path.

    ``attribute_stds`` is drawn free-form: repeated attributes, zero
    stds and a noisy column ``d`` the scorer never reads all occur.
    """

    @given(
        data=st.data(),
        n=st.integers(2, 14),
        weights=st.lists(WEIGHT_VALUES, min_size=3, max_size=3),
        policy=st.sampled_from(["zero", "propagate"]),
        attribute_stds=st.lists(
            st.tuples(
                st.sampled_from(["a", "b", "c", "d"]),
                st.sampled_from([0.0, 0.5, 1.0, 3.0]),
            ),
            max_size=6,
        ),
        k_choice=K_CHOICES,
        log_epsilon=st.floats(-12.0, 0.0),
        seed=st.integers(0, 2**16),
        trials=st.integers(1, 12),
        start=st.sampled_from([0, 7, 40]),
    )
    @settings(max_examples=200, deadline=None)
    def test_matches_scalar_trials(
        self, data, n, weights, policy, attribute_stds, k_choice, log_epsilon,
        seed, trials, start,
    ):
        assume(any(w != 0.0 for w in weights))
        table = draw_table(data, n, ("a", "b", "c", "d"))
        scorer = LinearScoringFunction(
            dict(zip(("a", "b", "c"), weights)), missing_policy=policy
        )
        payload = uncertainty_payload(
            table, scorer, attribute_stds, 10.0 ** log_epsilon,
            k_for(k_choice, n), seed,
        )
        assert run_uncertainty_kernel(payload, trials, start) == scalar_batch(
            _uncertainty_trial, payload, trials, start
        )


#: score cells for the fused kernel: ties, signed zeros, infinities, NaN
MOVEMENT_CELLS = st.one_of(
    st.integers(-3, 3).map(float),
    st.sampled_from([0.0, -0.0, float("inf"), float("-inf"), float("nan")]),
)


def numpy_movement(base_order, scores, k):
    """``_movement_outcomes`` with the fused C kernel unbound."""
    with mock.patch.object(_native, "movement", None):
        return _movement_outcomes(base_order, scores, k)


@needs_native
class TestFusedMovementKernel:
    """``rank_movement_batch`` == the numpy argsort path it replaces."""

    @given(
        data=st.data(),
        n=st.integers(2, 40),
        trials=st.integers(1, 6),
        k_choice=K_CHOICES,
    )
    @settings(max_examples=300, deadline=None)
    def test_matches_numpy_path(self, data, n, trials, k_choice):
        scores = np.array(
            data.draw(
                st.lists(
                    st.lists(MOVEMENT_CELLS, min_size=n, max_size=n),
                    min_size=trials, max_size=trials,
                ),
                label="scores",
            ),
            dtype=np.float64,
        )
        base_order = np.array(
            data.draw(st.permutations(range(n)), label="base_order"), dtype=np.int64
        )
        k = k_for(k_choice, n)
        assert _movement_outcomes(base_order, scores, k) == numpy_movement(
            base_order, scores, k
        )

    @pytest.mark.parametrize("k", [1, 10, 6888, 6889, 6890])
    def test_matches_numpy_path_at_compas_size(self, k):
        rng = np.random.default_rng(k)
        n = 6889
        base = rng.integers(0, 40, n).astype(np.float64)
        scores = base[None, :] + rng.integers(-2, 3, (8, n))
        scores[:, rng.integers(0, n, 30)] = np.nan
        scores[1] = -0.0
        # a realistic baseline (the unperturbed order) and an arbitrary one
        for base_order in (np.argsort(-base, kind="stable"), rng.permutation(n)):
            assert _movement_outcomes(base_order, scores, k) == numpy_movement(
                base_order, scores, k
            )

    def test_fused_kernels_never_argsort_trials(self, monkeypatch):
        """Structural guard: no (T x n) argsort with the fused kernel bound."""
        table = mc_table(n=200, seed=4)
        scorer = LinearScoringFunction(WEIGHTS)
        payloads = [
            (run_perturbation_kernel, WeightPerturbationStability(
                table, scorer, "item", k=10, trials=1, seed=3
            )._payload_at(0.2)),
            (run_uncertainty_kernel, DataUncertaintyStability(
                table, scorer, "item", k=10, trials=1, seed=3
            )._payload_at(0.2)),
        ]
        two_d = []

        def counted(a, *args, _original=np.argsort, **kwargs):
            if np.ndim(a) == 2:
                two_d.append(np.shape(a))
            return _original(a, *args, **kwargs)

        monkeypatch.setattr(np, "argsort", counted)
        for kernel, payload in payloads:
            kernel(payload, 30)
        assert two_d == []


class TestFallbackDispatch:
    """Dispatch is a plain call; what a kernel cannot rank, it raises."""

    def test_unknown_trial_function(self):
        """Any batch function runs as is, at the span's absolute indices."""
        def spans(payload, trials, start):
            return list(range(start, start + trials))

        assert dispatch_kernel(spans, {}, 3, 5) == [5, 6, 7]
        assert dispatch_kernel(spans, {}, 2) == [0, 1]

    def test_payload_type_mismatch(self):
        with pytest.raises(AttributeError):
            dispatch_kernel(run_perturbation_kernel, {"not": "it"}, 3)

    def test_linear_subclass_rejected(self):
        """A subclass may override score_table: every estimator refuses it."""
        table = mc_table(n=30)
        scorer = SubclassedLinear(WEIGHTS)
        message = "scorer SubclassedLinear is not a plain LinearScoringFunction"
        with pytest.raises(StabilityError, match=message):
            WeightPerturbationStability(table, scorer, "item", k=5, trials=8)
        with pytest.raises(StabilityError, match=message):
            DataUncertaintyStability(table, scorer, "item", k=5, trials=8)
        with pytest.raises(StabilityError, match=message):
            per_attribute_stability(table, scorer, "item", k=5, trials=8)
        payload = replace(
            WeightPerturbationStability(
                table, LinearScoringFunction(WEIGHTS), "item", k=5, trials=8
            )._payload_at(0.1),
            scorer=scorer,
        )
        with pytest.raises(StabilityError, match=message):
            run_perturbation_kernel(payload, 4)

    def test_nonlinear_scorer_rejected(self):
        table = mc_table(n=30)
        with pytest.raises(StabilityError, match="scorer CubeScorer is not a plain"):
            DataUncertaintyStability(table, CubeScorer("attr_1"), "item", k=5, trials=8)

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
        assert assert_raises_like_oracle(
            run_perturbation_kernel, _perturbation_trial, payload
        ) == (RankingError, "rank comparison requires unique item ids")

    def test_inconsistent_baseline_declined(self):
        """A payload whose baseline lies about its table must not be trusted."""
        table = mc_table(n=20)
        scorer = LinearScoringFunction(WEIGHTS)
        estimator = WeightPerturbationStability(
            table, scorer, "item", k=5, trials=4, seed=1
        )
        genuine = estimator._payload_at(0.1)
        doctored = replace(genuine, baseline_ids=tuple(reversed(genuine.baseline_ids)))
        with pytest.raises(StabilityError, match="baseline_ids do not match"):
            dispatch_kernel(run_perturbation_kernel, doctored, 4)
        wrong_top = replace(genuine, baseline_top=frozenset(genuine.baseline_ids[-5:]))
        with pytest.raises(StabilityError, match="baseline_top does not match"):
            dispatch_kernel(run_perturbation_kernel, wrong_top, 4)


def perturbation_payload(table, scorer, id_column="item", k=3, epsilon=0.1, seed=1):
    """A perturbation payload whose baseline is ranked by the scalar path."""
    ids = rank_table(table, scorer, id_column).item_ids()
    return PerturbationTrialPayload(
        table=table, scorer=scorer, id_column=id_column,
        baseline_ids=tuple(ids), baseline_top=frozenset(ids[:k]),
        k=k, epsilon=epsilon, seed=seed,
    )


def zero_draw_rng(seed, trial):
    """A trial stream whose every uniform is its lower bound."""

    class Lowest:
        def uniform(self, low, high):
            return low

    return Lowest()


class TestKernelsRaiseTheScalarErrors:
    """One test per input the kernels once handed back to the scalar loop."""

    def small_table(self, n=6, ids=None):
        rng = np.random.default_rng(4)
        return Table.from_dict({
            "item": ids if ids is not None else [f"i{j}" for j in range(n)],
            "a": rng.normal(0, 1, n), "b": rng.normal(0, 1, n),
            "label": ["x"] * n,
        })

    SCORER = LinearScoringFunction({"a": 0.6, "b": 0.4})

    def each_kernel(self, table, k=3, id_column="item", scorer=None):
        """(kernel, oracle, payload) for all three kernels on one table."""
        scorer = scorer or self.SCORER
        perturbation = perturbation_payload(table, scorer, id_column, k)
        uncertainty = UncertaintyTrialPayload(
            table=table, scorer=scorer, id_column=id_column,
            baseline_ids=perturbation.baseline_ids,
            baseline_top=perturbation.baseline_top,
            attribute_stds=(("a", 1.0), ("b", 1.0)), k=k, epsilon=0.1, seed=1,
        )
        attribute = AttributeTrialPayload(
            table=table, scorer=scorer, attribute="a", epsilon=0.1, scale=0.6,
            id_column=id_column, baseline_top=perturbation.baseline_top, k=k,
            seed=1,
        )
        return [
            (run_perturbation_kernel, _perturbation_trial, perturbation),
            (run_uncertainty_kernel, _uncertainty_trial, uncertainty),
            (run_attribute_kernel, _attribute_trial, attribute),
        ]

    def test_missing_id_column(self):
        for kernel, oracle, payload in self.each_kernel(self.small_table()):
            payload = replace(payload, id_column="absent")
            assert assert_raises_like_oracle(kernel, oracle, payload) == (
                RankingError, "id column 'absent' not in table"
            )

    def test_duplicate_ids(self):
        """Perturbation and uncertainty compare ids; per-attribute now refuses
        them too, where the scalar probe silently ranked duplicates."""
        table = self.small_table(ids=["x", "x", "y", "z", "w", "v"])
        expected = (RankingError, "rank comparison requires unique item ids")
        for kernel, oracle, payload in self.each_kernel(table):
            if kernel is run_attribute_kernel:
                assert error_of(kernel, payload, 4, 0) == expected
                assert isinstance(scalar_batch(oracle, payload, 4), list)
            else:
                assert assert_raises_like_oracle(kernel, oracle, payload) == expected

    def test_per_attribute_stability_refuses_duplicate_ids(self):
        table = self.small_table(ids=["x", "x", "y", "z", "w", "v"])
        backend = VectorizedTrialBackend()
        with pytest.raises(RankingError, match="requires unique item ids"):
            per_attribute_stability(
                table, self.SCORER, "item", k=2, trials=4, backend=backend
            )
        with pytest.raises(RankingError, match="requires unique item ids"):
            WeightPerturbationStability(table, self.SCORER, "item").assess_at(0.1)

    def test_too_few_items(self):
        table = self.small_table(n=1)
        for kernel, oracle, payload in self.each_kernel(table)[:2]:
            assert assert_raises_like_oracle(kernel, oracle, payload) == (
                RankingError, "rank comparison needs at least 2 common items, found 1"
            )

    def test_empty_table(self):
        table = self.small_table()
        empty = table.take(np.array([], dtype=np.int64))
        assert empty.num_rows == 0
        for kernel, oracle, payload in self.each_kernel(table):
            assert_raises_like_oracle(kernel, oracle, replace(payload, table=empty))

    def test_k_below_one(self):
        for kernel, oracle, payload in self.each_kernel(self.small_table())[:2]:
            payload = replace(payload, k=0)
            assert assert_raises_like_oracle(kernel, oracle, payload) == (
                RankingError, "top_k_overlap needs k >= 1, got 0"
            )

    def test_attribute_kernel_k_below_one_raises_the_estimator_error(self):
        """The scalar probe ranked k = 0; the kernel refuses it as
        per_attribute_stability always has."""
        _, _, payload = self.each_kernel(self.small_table())[2]
        with pytest.raises(StabilityError, match="k must be >= 1, got 0"):
            run_attribute_kernel(replace(payload, k=0), 4)
        with pytest.raises(StabilityError, match="k must be >= 1, got 0"):
            per_attribute_stability(self.small_table(), self.SCORER, "item", k=0)

    def test_unknown_jittered_attribute(self):
        _, _, payload = self.each_kernel(self.small_table())[2]
        assert assert_raises_like_oracle(
            run_attribute_kernel, _attribute_trial, replace(payload, attribute="zz")
        ) == (WeightError, "perturbed() got unknown attribute(s): zz")

    @pytest.mark.parametrize("attribute", ["absent", "label"])
    def test_unusable_scoring_attribute(self, attribute):
        scorer = LinearScoringFunction({"a": 0.6, attribute: 0.4})
        table = self.small_table()
        for kernel, oracle, payload in self.each_kernel(table):
            assert_raises_like_oracle(kernel, oracle, replace(payload, scorer=scorer))

    @pytest.mark.parametrize("attribute", ["absent", "label"])
    def test_unusable_noisy_attribute(self, attribute):
        _, _, payload = self.each_kernel(self.small_table())[1]
        payload = replace(payload, attribute_stds=(("a", 1.0), (attribute, 1.0)))
        assert_raises_like_oracle(run_uncertainty_kernel, _uncertainty_trial, payload)

    def test_all_zero_weight_draw(self, monkeypatch):
        """A draw that zeroes every weight raises the scorer's WeightError."""
        import repro.stability.kernels as kernels
        import tests.oracles as oracles

        monkeypatch.setattr(kernels, "trial_rng", zero_draw_rng)
        monkeypatch.setattr(oracles, "trial_rng", zero_draw_rng)
        table = self.small_table()
        expected = (WeightError, "all weights are zero; the ranking would be arbitrary")
        # epsilon 1: every weight w moves by -|w|, to exactly zero
        perturbation = replace(
            perturbation_payload(table, LinearScoringFunction({"a": 0.6, "b": 0.4})),
            epsilon=1.0,
        )
        assert assert_raises_like_oracle(
            run_perturbation_kernel, _perturbation_trial, perturbation
        ) == expected
        _, _, attribute = self.each_kernel(
            table, scorer=LinearScoringFunction({"a": 0.6, "b": 0.0})
        )[2]
        attribute = replace(attribute, epsilon=1.0, scale=0.6)
        assert assert_raises_like_oracle(
            run_attribute_kernel, _attribute_trial, attribute
        ) == expected
