"""E6: the durable label store — warm restarts vs cold rebuilds.

The in-memory engine (E1) made repeated requests cheap *within* one
process; the store makes the first request after a restart cheap too.
This bench quantifies the acceptance claims:

- a fresh :class:`~repro.engine.service.LabelService` (empty L1) over
  an existing store serves a previously computed label from L2 at
  least **20x** faster than the cold Monte-Carlo build that produced
  it;
- the stored payload round-trips byte-identically: the bytes on disk
  are exactly the pickle of the originally computed label, and the
  label served from them renders the same JSON.
"""

import pickle
import time

from benchmarks.conftest import report
from repro.datasets import synthetic_scores_table
from repro.engine import LabelDesign, LabelService
from repro.label.render_json import render_json
from repro.store.store import PICKLE_PROTOCOL

TRIALS = 25
EPSILONS = (0.05, 0.1)


def bench_table():
    return synthetic_scores_table(800, num_attributes=3, group_advantage=0.8, seed=42)


DESIGN = LabelDesign.create(
    weights={"attr_1": 0.5, "attr_2": 0.3, "attr_3": 0.2},
    sensitive="group",
    id_column="item",
    k=20,
    monte_carlo_trials=TRIALS,
    monte_carlo_epsilons=EPSILONS,
)


def test_bench_e6_warm_restart_vs_cold_build(tmp_path):
    """A restarted service must serve the archived label >= 20x faster."""
    path = str(tmp_path / "bench-store.db")
    table = bench_table()

    with LabelService(store_path=path) as service:
        start = time.perf_counter()
        cold = service.build_label(table, DESIGN, "bench")
        cold_seconds = time.perf_counter() - start
        assert cold.tier == "build"
        stored_bytes = service.store.get_bytes(cold.fingerprint)

    # byte-exact archival: disk holds exactly the original label's pickle
    assert stored_bytes == pickle.dumps(cold.facts, protocol=PICKLE_PROTOCOL)

    # "restart": a brand-new service over the same file, L1 empty
    with LabelService(store_path=path) as reborn:
        # counts are per process: the reborn service adds no build
        builds = reborn.stats()["service"]["builds"]
        start = time.perf_counter()
        warm = reborn.build_label(table, DESIGN, "bench")
        warm_seconds = time.perf_counter() - start
        assert warm.tier == "l2"
        assert reborn.stats()["service"]["builds"] == builds

        # once promoted, the second request is pure memory
        start = time.perf_counter()
        promoted = reborn.build_label(table, DESIGN, "bench")
        l1_seconds = time.perf_counter() - start
        assert promoted.tier == "l1"

    report(
        f"E6: warm restart over a label store (n=800, {TRIALS} MC trials)",
        [
            f"cold build        {cold_seconds * 1000:9.2f} ms",
            f"L2 warm restart   {warm_seconds * 1000:9.2f} ms"
            f"  ({cold_seconds / warm_seconds:6.0f}x)",
            f"L1 after promote  {l1_seconds * 1000:9.4f} ms"
            f"  ({cold_seconds / l1_seconds:6.0f}x)",
        ],
    )

    # the served label is the same label, down to the rendered bytes
    assert render_json(warm.facts.label) == render_json(cold.facts.label)
    # acceptance floor: a disk read + unpickle must beat the MC loop 20x
    assert warm_seconds < cold_seconds / 20


def test_bench_e6_store_write_overhead_is_modest(tmp_path):
    """Write-through must not dominate a cold build (report + sanity)."""
    table = bench_table()

    with LabelService() as memory_only:
        start = time.perf_counter()
        memory_only.build_label(table, DESIGN, "bench")
        plain_seconds = time.perf_counter() - start

    with LabelService(store_path=str(tmp_path / "overhead.db")) as stored:
        start = time.perf_counter()
        stored.build_label(table, DESIGN, "bench")
        stored_seconds = time.perf_counter() - start

    report("E6: cold build, in-memory engine vs write-through store", [
        f"memory only     {plain_seconds * 1000:9.2f} ms",
        f"with store      {stored_seconds * 1000:9.2f} ms",
        f"overhead        {(stored_seconds / plain_seconds - 1) * 100:8.1f}%",
    ])
    # the pickle + sqlite insert must stay a fraction of the MC loop
    assert stored_seconds < plain_seconds * 2
