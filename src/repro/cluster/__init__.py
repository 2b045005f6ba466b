"""Distributed Monte-Carlo trial execution: workers + coordinator.

The Ranking Facts label spends almost all of its compute in the
Monte-Carlo stability trials, and PRs 2-3 made that loop pluggable
(:mod:`repro.engine.backends`) and picklable
(:func:`repro.stability.montecarlo.run_payload_trials` over plain
payload dataclasses).  This package is the step those PRs set up:
running the trial batch across *machines*.

- :mod:`repro.cluster.wire` — the framing protocol: versioned,
  fingerprinted binary frames carrying pickled ``(trial_fn, payload)``
  work plus a trial-index span, so a mismatched or corrupted worker is
  *rejected*, never silently wrong;
- :mod:`repro.cluster.worker` — a stdlib ``http.server`` daemon that
  executes trial-chunk requests through any local backend (default
  ``vectorized``) and exposes ``/healthz`` + ``/stats``;
- :mod:`repro.cluster.coordinator` —
  :class:`~repro.cluster.coordinator.RemoteTrialBackend`, a
  :class:`~repro.engine.backends.TrialBackend` that registers workers,
  health-probes them, shards a trial batch into contiguous spans,
  fails chunks over to other workers on error or timeout, and falls
  back to a local backend when the cluster is empty or degraded —
  recording why;
- :mod:`repro.cluster.registry` — dynamic membership: a TTL-lease
  registry service workers announce themselves to (jittered
  heartbeats, graceful deregistration), which coordinators poll so the
  fleet reshapes mid-run without static address lists;
- :mod:`repro.cluster.policy` — the failure policy engine: one
  :class:`~repro.cluster.policy.FailurePolicy` drives per-worker
  circuit breakers (closed → open → half-open with a single probe
  chunk), jittered exponential re-probe backoff, and per-run retry
  budgets.

Determinism contract (inherited from the backends): every chunk runs
its trials at their *absolute* indices, so each trial draws from its
own ``[seed, trial]`` RNG stream no matter which worker (or which
retry) executed it.  A label computed on a cluster — including one
that lost workers mid-batch — is byte-identical to a local build.
"""

__all__ = [
    "PROTOCOL_VERSION",
    "RemoteTrialBackend",
    "WorkerClient",
    "TrialWorker",
    "make_worker",
    "serve_worker_forever",
    "workers_from_env",
    "workers_from_file",
    "FailurePolicy",
    "CircuitBreaker",
    "WorkerRegistry",
    "RegistryClient",
    "HeartbeatLoop",
    "make_registry",
    "serve_registry_forever",
]

# lazy exports (PEP 562): ``python -m repro.cluster.worker`` must be able
# to run the worker module as __main__ without this package having
# already imported it (runpy warns about the double import otherwise)
_EXPORTS = {
    "PROTOCOL_VERSION": "repro.cluster.wire",
    "RemoteTrialBackend": "repro.cluster.coordinator",
    "WorkerClient": "repro.cluster.coordinator",
    "workers_from_env": "repro.cluster.coordinator",
    "workers_from_file": "repro.cluster.coordinator",
    "TrialWorker": "repro.cluster.worker",
    "make_worker": "repro.cluster.worker",
    "serve_worker_forever": "repro.cluster.worker",
    "FailurePolicy": "repro.cluster.policy",
    "CircuitBreaker": "repro.cluster.policy",
    "WorkerRegistry": "repro.cluster.registry",
    "RegistryClient": "repro.cluster.registry",
    "HeartbeatLoop": "repro.cluster.registry",
    "make_registry": "repro.cluster.registry",
    "serve_registry_forever": "repro.cluster.registry",
}


def __getattr__(name: str):
    module_name = _EXPORTS.get(name)
    if module_name is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    import importlib

    return getattr(importlib.import_module(module_name), name)


def __dir__():
    return sorted(set(globals()) | set(_EXPORTS))
