"""B2: vectorized Monte-Carlo trial kernels vs the per-trial scalar oracle.

PR 3 batches the whole trial loop into array operations
(:mod:`repro.stability.kernels`): one design-matrix extraction, a
trial-major ``(T x n)`` score matrix accumulated in the scalar path's
exact operation order, and Kendall tau / top-k overlap from one fused
compiled merge-sort pass per trial (a numpy stable argsort plus
inversion count when the library did not load).  This bench times
that kernel path against the per-trial scalar loop it replaced
(``tests.oracles.OracleTrialBackend``, labelled ``serial`` below) on
the synthetic dataset at several table sizes and trial counts, and
asserts the two acceptance criteria:

- byte-identical outcomes against the scalar oracle, and
- >= 5x speedup over it for the 50-trial perturbation profile
  (in practice the kernels land one to two orders of magnitude ahead).

Two cold-build rows ride along, each asserting equality with the plain
version it replaced and reporting the time without a bound: a first
(uncached) FA*IR ``adjust_alpha`` call against a bisection over
``compute_fail_probability``, and the vectorised ``rankdata_average``
against its old tie loop.
"""

import time
from unittest import mock

import numpy as np
import pytest

from benchmarks.conftest import report
from repro import _native
from repro.datasets import synthetic_scores_table
from repro.engine import LabelDesign, LabelService
from repro.engine.backends import VectorizedTrialBackend
from repro.fairness.fair_star.adjustment import adjust_alpha
from repro.label.render_json import render_json
from repro.ranking.compare import _count_inversions_numpy, count_inversions_batch
from repro.ranking.scoring import LinearScoringFunction
from repro.stability import (
    DataUncertaintyStability,
    WeightPerturbationStability,
    per_attribute_stability,
)
from repro.stability.kernels import _movement_outcomes
from repro.stats.correlation import rankdata_average
from tests.oracles import OracleTrialBackend, rankdata_tie_loop, reference_adjust_alpha

WEIGHTS = {"attr_1": 0.5, "attr_2": 0.3, "attr_3": 0.2}
PROFILE_EPSILONS = [0.05, 0.1, 0.2]


def bench_table(n):
    return synthetic_scores_table(n, num_attributes=3, group_advantage=0.8, seed=42)


def timed(fn):
    start = time.perf_counter()
    result = fn()
    return result, time.perf_counter() - start


def test_bench_b2_perturbation_profile_speedup():
    """The acceptance bench: 50-trial perturbation profile, >= 5x."""
    table = bench_table(800)
    scorer = LinearScoringFunction(WEIGHTS)

    def estimator(backend):
        return WeightPerturbationStability(
            table, scorer, "item", k=20, trials=50, seed=1, backend=backend
        )

    backends = [
        ("serial", OracleTrialBackend()),
        ("vectorized", VectorizedTrialBackend()),
    ]
    seconds = {}
    outcomes = {}
    for name, backend in backends:
        est = estimator(backend)
        est.assess_at(0.1)  # warm-up: kernels outside the clock
        outcomes[name], seconds[name] = timed(
            lambda est=est: est.profile(PROFILE_EPSILONS)
        )

    speedup = seconds["serial"] / seconds["vectorized"]
    report(
        "B2: 50-trial perturbation profile, n=800, 3 epsilons",
        [
            *(
                f"{name:<12} {seconds[name] * 1000:8.1f} ms"
                for name, _ in backends
            ),
            f"vectorized speedup over serial: {speedup:.1f}x",
        ],
    )

    # both backends, the same outcome — then the acceptance threshold
    assert outcomes["serial"] == outcomes["vectorized"]
    assert speedup >= 5.0


def test_bench_b2_kernel_scaling_across_sizes_and_trials():
    """Serial-vs-vectorized timings across table sizes and trial counts."""
    scorer = LinearScoringFunction(WEIGHTS)
    rows = []
    for n, trials in ((200, 20), (800, 50), (2000, 50)):
        table = bench_table(n)
        serial = WeightPerturbationStability(
            table, scorer, "item", k=20, trials=trials, seed=1,
            backend=OracleTrialBackend(),
        )
        vectorized = WeightPerturbationStability(
            table, scorer, "item", k=20, trials=trials, seed=1,
            backend=VectorizedTrialBackend(),
        )
        vectorized.assess_at(0.1)  # warm the numpy code paths
        serial_outcome, serial_s = timed(lambda e=serial: e.assess_at(0.1))
        vector_outcome, vector_s = timed(lambda e=vectorized: e.assess_at(0.1))
        assert serial_outcome == vector_outcome
        rows.append(
            f"n={n:<5} T={trials:<3} serial {serial_s * 1000:8.1f} ms   "
            f"vectorized {vector_s * 1000:7.1f} ms   "
            f"({serial_s / vector_s:5.1f}x)"
        )
    report("B2: weight-perturbation kernel scaling", rows)


def test_bench_b2_uncertainty_and_per_attribute_kernels():
    """The other two estimators ride the same kernels, same identity."""
    table = bench_table(800)
    scorer = LinearScoringFunction(WEIGHTS)
    rows = []

    serial_u = DataUncertaintyStability(
        table, scorer, "item", k=20, trials=50, seed=1, backend=OracleTrialBackend()
    )
    vector_u = DataUncertaintyStability(
        table, scorer, "item", k=20, trials=50, seed=1,
        backend=VectorizedTrialBackend(),
    )
    vector_u.assess_at(0.1)
    serial_outcome, serial_s = timed(lambda: serial_u.assess_at(0.1))
    vector_outcome, vector_s = timed(lambda: vector_u.assess_at(0.1))
    assert serial_outcome == vector_outcome
    rows.append(
        f"uncertainty   serial {serial_s * 1000:8.1f} ms   "
        f"vectorized {vector_s * 1000:7.1f} ms   ({serial_s / vector_s:5.1f}x)"
    )

    serial_attr, serial_s = timed(
        lambda: per_attribute_stability(
            table, scorer, "item", k=20, trials=20, iterations=4, seed=1,
            backend=OracleTrialBackend(),
        )
    )
    vector_attr, vector_s = timed(
        lambda: per_attribute_stability(
            table, scorer, "item", k=20, trials=20, iterations=4, seed=1,
            backend=VectorizedTrialBackend(),
        )
    )
    assert serial_attr == vector_attr
    rows.append(
        f"per-attribute serial {serial_s * 1000:8.1f} ms   "
        f"vectorized {vector_s * 1000:7.1f} ms   ({serial_s / vector_s:5.1f}x)"
    )
    report("B2: uncertainty and per-attribute kernels (n=800)", rows)


def test_bench_b2_full_label_byte_identity_and_stats():
    """A full Monte-Carlo label through the service: identical bytes."""
    table = bench_table(800)
    design = LabelDesign.create(
        weights=WEIGHTS,
        sensitive="group",
        id_column="item",
        k=20,
        monte_carlo_trials=50,
        monte_carlo_epsilons=(0.1,),
    )

    with LabelService(use_cache=False, trial_backend=OracleTrialBackend()) as oracle:
        serial_outcome, serial_s = timed(
            lambda: oracle.build_label(table, design, "bench")
        )
    serial_facts = serial_outcome.facts
    with LabelService(use_cache=False, trial_backend="vectorized") as service:
        outcome, vector_s = timed(
            lambda: service.build_label(table, design, "bench")
        )
        executor = service.stats()["executor"]

    report("B2: full MC label (n=800, 50 trials), serial vs vectorized", [
        f"serial build      {serial_s * 1000:8.1f} ms",
        f"vectorized build  {vector_s * 1000:8.1f} ms  "
        f"({serial_s / vector_s:.1f}x)",
        f"kernel runs {executor['trial_kernel_runs']}",
    ])

    assert render_json(outcome.facts.label) == render_json(serial_facts.label)
    assert executor["trial_backend_effective"] == "vectorized"
    assert executor["trial_kernel_runs"] > 0


def test_bench_b2_native_vs_numpy_inversions():
    """Kendall inversion counting: the compiled kernel vs the numpy merge."""
    if _native.kernel is None:
        pytest.skip(f"native inversion kernel did not load: {_native.reason}")
    rng = np.random.default_rng(7)
    rows = []
    for n in (1000, 6889):
        batch = np.stack([rng.permutation(n) for _ in range(100)])
        native, native_s = timed(lambda: count_inversions_batch(batch))
        oracle, numpy_s = timed(lambda: _count_inversions_numpy(batch))
        assert native.tolist() == oracle.tolist()
        rows.append(
            f"n={n:<5} T=100 numpy {numpy_s * 1000:7.1f} ms   "
            f"native {native_s * 1000:6.1f} ms   ({numpy_s / native_s:4.1f}x)"
        )
    report("B2: count_inversions_batch, native vs numpy (random permutations)", rows)


def test_bench_b2_fused_vs_numpy_movement():
    """Trial movement (tau, overlap): the fused C pass vs the numpy path."""
    if _native.movement is None:
        pytest.skip(f"native kernels did not load: {_native.reason}")
    rng = np.random.default_rng(11)
    rows = []
    for n in (1000, 6889):
        base = rng.integers(0, 40, n).astype(np.float64)  # ties, as in compas
        scores = base[None, :] + rng.normal(0.0, 2.0, (100, n))
        base_order = np.argsort(-base, kind="stable")
        fused, fused_s = timed(lambda: _movement_outcomes(base_order, scores, 10))
        with mock.patch.object(_native, "movement", None):
            oracle, numpy_s = timed(lambda: _movement_outcomes(base_order, scores, 10))
        assert fused == oracle
        rows.append(
            f"n={n:<5} T=100 numpy {numpy_s * 1000:7.1f} ms   "
            f"fused {fused_s * 1000:6.1f} ms   ({numpy_s / fused_s:4.1f}x)"
        )
    report("B2: _movement_outcomes, fused native vs numpy (jittered tied scores)", rows)


def test_bench_cold_adjust_alpha_vs_reference_bisection():
    """A first FA*IR adjust_alpha call: CDF memo vs plain bisection."""
    rows = []
    for p in (0.31, 0.5, 0.69):
        # the function under the process-wide memo, so every call is cold
        memoised, memo_s = timed(lambda: adjust_alpha.__wrapped__(100, p, 0.05))
        oracle, plain_s = timed(lambda: reference_adjust_alpha(100, p, 0.05))
        assert memoised == oracle
        rows.append(
            f"k=100 p={p:<4} bisection {plain_s * 1000:7.1f} ms   "
            f"memoised {memo_s * 1000:6.1f} ms   ({plain_s / memo_s:4.1f}x)"
        )
    report("cold build: first adjust_alpha call, CDF memo vs plain bisection", rows)


def test_bench_cold_rankdata_vs_tie_loop():
    """Average ranks: run boundaries vs the Python tie loop."""
    rng = np.random.default_rng(5)
    rows = []
    for n in (1000, 20000):
        values = rng.integers(0, n // 10, n).astype(np.float64)  # ties
        values[rng.integers(0, n, n // 50)] = np.nan
        fast, fast_s = timed(lambda: rankdata_average(values))
        oracle, loop_s = timed(lambda: rankdata_tie_loop(values))
        assert np.array_equal(fast.view(np.uint64), oracle.view(np.uint64))
        rows.append(
            f"n={n:<5} tie loop {loop_s * 1000:7.1f} ms   "
            f"vectorised {fast_s * 1000:6.1f} ms   ({loop_s / fast_s:4.1f}x)"
        )
    report("cold build: rankdata_average, run boundaries vs tie loop", rows)
