"""B3: the distributed trial cluster — the scalar oracle vs a 2-worker local cluster.

The cluster's value proposition is *byte-identical labels on more
machines*: each worker runs its chunk's trials at their absolute
indices through the vectorized kernels, so the assembled batch equals
a local run bit for bit.  Because the workers vectorize, the remote
column beats the per-trial scalar oracle (``tests.oracles``, the
``serial`` column) even on this single-CPU bench host (the
kernels' win dwarfs the HTTP round-trips); the honest local comparison
is the ``vectorized`` column, which the cluster cannot beat while both
"workers" share the one core — *scaling past* one host's vectorized
throughput is what real machines behind the addresses buy.  What is
asserted is the determinism contract plus the scheduler's accounting
(every trial crossed the wire, spread over both workers); the timings
are recorded so a reader with a real cluster can compare the columns.

Failover cost is benchmarked too: a run where one worker dies
mid-batch must still produce the identical outcome, paying only the
retried chunks.
"""

import time

from benchmarks.conftest import report
from repro.cluster.coordinator import RemoteTrialBackend
from repro.cluster.worker import make_worker
from repro.datasets import synthetic_scores_table
from repro.ranking.scoring import LinearScoringFunction
from repro.stability import WeightPerturbationStability
from tests.oracles import OracleTrialBackend

TRIALS = 40
WEIGHTS = {"attr_1": 0.5, "attr_2": 0.3, "attr_3": 0.2}


def bench_table():
    return synthetic_scores_table(800, num_attributes=3, group_advantage=0.8, seed=42)


def test_bench_b3_cluster_timings_and_determinism():
    """40 MC trials: serial vs 2 workers; identical outcomes, recorded timings."""
    table = bench_table()
    scorer = LinearScoringFunction(WEIGHTS)

    serial_estimator = WeightPerturbationStability(
        table, scorer, "item", k=20, trials=TRIALS, seed=1,
        backend=OracleTrialBackend(),
    )
    serial_estimator.assess_at(0.1)  # warm-up
    start = time.perf_counter()
    serial_outcome = serial_estimator.assess_at(0.1)
    serial_seconds = time.perf_counter() - start

    from repro.engine.backends import VectorizedTrialBackend

    vectorized_estimator = WeightPerturbationStability(
        table, scorer, "item", k=20, trials=TRIALS, seed=1,
        backend=VectorizedTrialBackend(),
    )
    vectorized_estimator.assess_at(0.1)  # warm-up
    start = time.perf_counter()
    vectorized_outcome = vectorized_estimator.assess_at(0.1)
    vectorized_seconds = time.perf_counter() - start

    with make_worker() as one, make_worker() as two:
        backend = RemoteTrialBackend(
            [one.address, two.address], timeout=30, probe_timeout=5
        )
        remote_estimator = WeightPerturbationStability(
            table, scorer, "item", k=20, trials=TRIALS, seed=1, backend=backend
        )
        remote_estimator.assess_at(0.1)  # warm-up: probes outside the clock
        start = time.perf_counter()
        remote_outcome = remote_estimator.assess_at(0.1)
        remote_seconds = time.perf_counter() - start
        stats = backend.stats()
        worker_chunks = [w["chunks"] for w in stats["workers"]]
        backend.shutdown()

    report(
        "B3  trial cluster (vectorized workers; 1 CPU host shares the core)",
        [
            f"serial            {serial_seconds * 1000:8.1f} ms",
            f"vectorized        {vectorized_seconds * 1000:8.1f} ms",
            f"remote (2 local)  {remote_seconds * 1000:8.1f} ms",
            f"chunks per worker {worker_chunks}",
        ],
    )
    # the determinism contract is the acceptance bar, not wall-clock
    assert remote_outcome == serial_outcome
    assert vectorized_outcome == serial_outcome
    assert stats["chunks_remote"] > 0
    assert stats["local_runs"] == 0
    assert all(chunks > 0 for chunks in worker_chunks)  # both workers pulled


def test_bench_b3_failover_preserves_outcome():
    """Kill one worker mid-bench: identical outcome, failover accounted."""
    table = bench_table()
    scorer = LinearScoringFunction(WEIGHTS)
    serial_outcome = WeightPerturbationStability(
        table, scorer, "item", k=20, trials=TRIALS, seed=1,
        backend=OracleTrialBackend(),
    ).assess_at(0.1)

    victim = make_worker().start()
    survivor = make_worker().start()
    try:
        backend = RemoteTrialBackend(
            [victim.address, survivor.address], timeout=30, probe_timeout=5
        )
        estimator = WeightPerturbationStability(
            table, scorer, "item", k=20, trials=TRIALS, seed=1, backend=backend
        )
        estimator.assess_at(0.1)  # both workers now believed alive
        victim.stop()
        start = time.perf_counter()
        outcome = estimator.assess_at(0.1)
        seconds = time.perf_counter() - start
        stats = backend.stats()
        backend.shutdown()
    finally:
        survivor.stop()

    report(
        "B3b failover (one worker killed mid-batch)",
        [
            f"degraded run      {seconds * 1000:8.1f} ms",
            f"chunk failures    {stats['chunk_failures']}",
            f"failed over       {stats['chunks_failed_over']}"
            f" (+{stats['chunks_recovered_locally']} recovered locally)",
        ],
    )
    assert outcome == serial_outcome
    assert stats["chunk_failures"] >= 1
