"""Batch labelling through the engine: cache, executor, statistics.

The seed tool built one label at a time, synchronously, from scratch.
The engine (`repro.engine`) turns labelling into a *service*: designs
are frozen value objects, identical requests are content-addressed
cache hits, and a batch of jobs runs through a worker pool in one call.

This walkthrough labels two built-in datasets under several recipes —
including a deliberately repeated one — and reads the engine's
statistics afterwards to show what was built versus served from cache.

Backend selection: the Monte-Carlo trials inside each build run on a
trial backend — ``vectorized`` (the default: the whole trial batch as
array kernels), ``serial`` (the scalar reference loop), or ``remote``
(trials sharded across worker daemons).  Pick one with
``LabelService(trial_backend="serial")`` here, with ``ranking-facts
batch --trial-backend serial`` on the CLI, or with
``REPRO_TRIAL_BACKEND=serial`` for the server.  All three serve
byte-identical labels for equal seeds, so the setting only changes
speed.

Run:  PYTHONPATH=src python examples/batch_engine.py
"""

from repro.engine import JobStatus, LabelDesign, LabelJob, LabelService

# -- 1. designs are frozen, hashable recipes -----------------------------------
#
# LabelDesign captures everything the builder can be configured with.
# Equal designs (same weights *in the same order*, same k, same seed...)
# are literally the same computation, which is what the cache keys on.

figure1 = LabelDesign.create(
    weights={"PubCount": 0.4, "Faculty": 0.4, "GRE": 0.2},
    sensitive="DeptSizeBin",
    diversity=["DeptSizeBin", "Region"],
    id_column="DeptName",
    monte_carlo_trials=10,          # the expensive stability detail
    monte_carlo_epsilons=(0.1,),
)
gre_only = figure1.with_updates(weights=(("GRE", 1.0),))
credit = LabelDesign.create(
    weights={"credit_score": 0.7, "credit_amount": 0.3},
    sensitive="sex",
    id_column="applicant_id",
)

# -- 2. a batch is a list of jobs: dataset reference + design ---------------------
#
# The Figure-1 recipe appears twice, as popular recipes do in a real
# deployment; the engine will build it once and serve the repeat from
# cache (single-flight: even concurrent duplicates build only once).

jobs = [
    LabelJob(design=figure1, dataset="cs-departments"),
    LabelJob(design=gre_only, dataset="cs-departments"),
    LabelJob(design=figure1, dataset="cs-departments"),  # duplicate
    LabelJob(design=credit, dataset="german-credit"),
]

# -- 3. run everything through one service ----------------------------------------
#
# trial_backend picks how each build's Monte-Carlo trials execute;
# "vectorized" is the default — try "serial" and watch the build times
# grow while the labels stay byte-identical.

with LabelService(cache_size=32, trial_backend="vectorized") as service:
    results = service.run_batch(jobs)

    print("batch of", len(jobs), "jobs:")
    for result in results:
        source = "cache" if result.cached else "built"
        print(
            f"  {result.job_id}: {result.status.value:<6} "
            f"{result.dataset_name:<16} {source}  "
            f"({result.seconds * 1000:.1f} ms)"
        )
        assert result.status is JobStatus.DONE

    # the duplicate served the *same* label object, byte for byte
    assert results[2].facts is results[0].facts

    # -- 4. the engine explains itself ---------------------------------------------

    stats = service.stats()
    print(
        "engine: "
        f"{stats['service']['builds']} builds for "
        f"{stats['service']['requests']} requests, "
        f"cache hit rate {stats['cache']['hit_rate']:.0%}, "
        f"trials on the {stats['executor']['trial_backend_effective']} backend"
    )

    # -- 5. the async path the web server uses ---------------------------------------
    #
    # POST /jobs submits exactly like this and polls GET /jobs/<id>;
    # resubmitting the same designs is pure cache traffic.

    handle = service.submit_batch(jobs)
    resubmitted = handle.results()
    print(
        "resubmitted batch", handle.batch_id + ":",
        sum(1 for r in resubmitted if r.cached), "of", len(resubmitted),
        "jobs served from cache",
    )

print("done: the engine is the seam future scaling PRs plug into")
