"""E1: the label engine — batch executor and cache vs naive serving.

The seed served one synchronous session and rebuilt every label from
scratch; the engine adds content-addressed caching, single-flight
deduplication, and batch execution.  This bench quantifies the two
claims the engine makes:

- a batch of Monte-Carlo-enabled labels through the executor beats the
  sequential builder loop (duplicate designs collapse to one build —
  the realistic multi-user workload where popular recipes repeat);
- a cached label is served orders of magnitude faster than a cold
  build, with byte-identical JSON for equal seeds.

The serial and vectorized trial backends are timed too, but only
*reported* here; the kernel speedup is asserted by B2
(``test_bench_kernels.py``).
"""

import time

from benchmarks.conftest import report
from repro.datasets import synthetic_scores_table
from repro.engine import LabelDesign, LabelJob, LabelService
from repro.label.render_json import render_json

TRIALS = 10
EPSILONS = (0.1,)


def bench_table():
    return synthetic_scores_table(800, num_attributes=3, group_advantage=0.8, seed=42)


def mc_design(weights):
    return LabelDesign.create(
        weights=weights,
        sensitive="group",
        id_column="item",
        k=20,
        monte_carlo_trials=TRIALS,
        monte_carlo_epsilons=EPSILONS,
    )


#: three popular recipes, each requested twice (6 jobs, 3 unique)
UNIQUE_DESIGNS = [
    mc_design({"attr_1": 0.5, "attr_2": 0.3, "attr_3": 0.2}),
    mc_design({"attr_1": 0.2, "attr_2": 0.6, "attr_3": 0.2}),
    mc_design({"attr_1": 1.0, "attr_2": 1.0, "attr_3": 1.0}),
]


def test_bench_e1_batch_vs_sequential_loop():
    """Engine batch of 6 MC labels vs the naive sequential builder loop."""
    table = bench_table()
    designs = UNIQUE_DESIGNS * 2  # duplicates, as popular recipes repeat

    start = time.perf_counter()
    sequential = [
        design.builder_for(table, dataset_name="bench").build()
        for design in designs
    ]
    sequential_seconds = time.perf_counter() - start

    with LabelService(cache_size=16, max_workers=4) as service:
        jobs = [
            LabelJob(design=design, table=table, dataset_name="bench")
            for design in designs
        ]
        start = time.perf_counter()
        results = service.run_batch(jobs)
        batch_seconds = time.perf_counter() - start
        stats = service.stats()

    report("E1: batch of 6 MC labels (3 unique designs)", [
        f"sequential loop   {sequential_seconds * 1000:8.1f} ms  (6 cold builds)",
        f"engine batch      {batch_seconds * 1000:8.1f} ms  "
        f"({stats['service']['builds']} builds, "
        f"{stats['cache']['hits']} cache hits)",
        f"speedup           {sequential_seconds / batch_seconds:8.2f}x",
    ])

    # the engine must do the work once per unique design...
    assert stats["service"]["builds"] == len(UNIQUE_DESIGNS)
    # ...be measurably faster than the naive loop...
    assert batch_seconds < sequential_seconds
    # ...and serve byte-identical labels for equal seeds
    for direct, served in zip(sequential, results):
        assert render_json(direct.label) == render_json(served.facts.label)


def test_bench_e1_cached_vs_cold_label(benchmark):
    """Latency of a cache hit vs the cold Monte-Carlo build it replaces."""
    table = bench_table()
    design = UNIQUE_DESIGNS[0]
    with LabelService(cache_size=16) as service:
        start = time.perf_counter()
        cold = service.build_label(table, design, "bench")
        cold_seconds = time.perf_counter() - start
        assert not cold.cached

        def hit():
            outcome = service.build_label(table, design, "bench")
            assert outcome.cached
            return outcome

        outcome = benchmark(hit)
        hit_seconds = benchmark.stats.stats.mean

    report("E1: cold build vs cache hit (MC label, n=800)", [
        f"cold build   {cold_seconds * 1000:8.2f} ms",
        f"cache hit    {hit_seconds * 1000:8.4f} ms",
        f"speedup      {cold_seconds / hit_seconds:8.0f}x",
    ])
    assert outcome.facts is cold.facts
    # "zero rebuilds" must be dramatic, not marginal
    assert hit_seconds < cold_seconds / 10


def test_bench_e1_trial_backend_report():
    """Serial vs vectorized Monte-Carlo trials (report only; see module doc)."""
    from repro.engine.backends import SerialTrialBackend, VectorizedTrialBackend
    from repro.ranking.scoring import LinearScoringFunction
    from repro.stability import WeightPerturbationStability

    table = bench_table()
    scorer = LinearScoringFunction({"attr_1": 0.5, "attr_2": 0.3, "attr_3": 0.2})

    seconds = {}
    outcomes = {}
    for name, backend in (
        ("serial", SerialTrialBackend()),
        ("vectorized", VectorizedTrialBackend()),
    ):
        estimator = WeightPerturbationStability(
            table, scorer, "item", k=20, trials=40, seed=1, backend=backend
        )
        start = time.perf_counter()
        outcomes[name] = estimator.assess_at(0.1)
        seconds[name] = time.perf_counter() - start

    report(
        "E1: 40 MC trials, serial vs vectorized",
        [f"{name:<10} {seconds[name] * 1000:8.1f} ms" for name in seconds],
    )
    # the determinism contract: the kernels reproduce the serial bytes
    assert outcomes["serial"] == outcomes["vectorized"]
