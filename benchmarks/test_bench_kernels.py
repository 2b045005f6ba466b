"""B2: vectorized Monte-Carlo trial kernels vs the serial scalar loop.

PR 3 batches the whole trial loop into array operations
(:mod:`repro.stability.kernels`): one design-matrix extraction, an
``(n x T)`` score matrix accumulated in the scalar path's exact
operation order, one stable argsort across all trials, and Kendall
tau / top-k overlap computed on integer permutation arrays via
merge-sort inversion counting.  This bench times that kernel path
against ``serial`` on the synthetic dataset at several table sizes and
trial counts, and asserts the two acceptance criteria:

- byte-identical outcomes against the serial scalar path, and
- >= 5x speedup over serial for the 50-trial perturbation profile
  (in practice the kernels land one to two orders of magnitude ahead).
"""

import time

from benchmarks.conftest import report
from repro.datasets import synthetic_scores_table
from repro.engine import LabelDesign, LabelService
from repro.engine.backends import SerialTrialBackend, VectorizedTrialBackend
from repro.label.render_json import render_json
from repro.ranking.scoring import LinearScoringFunction
from repro.stability import (
    DataUncertaintyStability,
    WeightPerturbationStability,
    per_attribute_stability,
)

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
        ("serial", SerialTrialBackend()),
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
            table, scorer, "item", k=20, trials=trials, seed=1
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

    serial_u = DataUncertaintyStability(table, scorer, "item", k=20, trials=50, seed=1)
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
            table, scorer, "item", k=20, trials=20, iterations=4, seed=1
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

    serial_facts, serial_s = timed(
        lambda: design.builder_for(table, dataset_name="bench").build()
    )
    with LabelService(use_cache=False, trial_backend="vectorized") as service:
        outcome, vector_s = timed(
            lambda: service.build_label(table, design, "bench")
        )
        executor = service.stats()["executor"]

    report("B2: full MC label (n=800, 50 trials), serial vs vectorized", [
        f"serial build      {serial_s * 1000:8.1f} ms",
        f"vectorized build  {vector_s * 1000:8.1f} ms  "
        f"({serial_s / vector_s:.1f}x)",
        f"kernel runs {executor['trial_kernel_runs']}, "
        f"scalar fallbacks {executor['trial_scalar_fallbacks']}",
    ])

    assert render_json(outcome.facts.label) == render_json(serial_facts.label)
    assert executor["trial_backend_effective"] == "vectorized"
    assert executor["trial_scalar_fallbacks"] == 0
