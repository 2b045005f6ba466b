"""Execution backends for the Monte-Carlo trial loop.

The stability estimators run their trials through a module-level batch
function ``fn(payload, trials, start) -> list`` — one of the kernels in
:mod:`repro.stability.kernels` — where ``payload`` is plain, picklable
data (the table, the design parameters, the baseline).  That shape lets
the *same* trial code run on any :class:`TrialBackend`:

- :class:`VectorizedTrialBackend` (the default) — the entire trial
  batch computed in-process as array operations, with no per-trial
  Python interpretation;
- ``remote`` (:class:`repro.cluster.coordinator.RemoteTrialBackend`) —
  the trial batch sharded across worker daemons on *other machines*
  (:mod:`repro.cluster`), with per-chunk failover and a local fallback;
  resolved lazily so the cluster package is only imported when asked
  for.  Trial functions stay module-level and payloads picklable
  because the cluster wire pickles them.

Determinism contract: every backend returns results in trial order
(0..trials-1), and every trial draws from its own ``[seed, trial]`` RNG
stream (:func:`repro.stability.montecarlo.trial_rng`), so the label a
backend produces is byte-identical to any other's for equal seeds.

:func:`resolve_trial_backend` maps a backend *name* (CLI flag, env var,
service config) to an instance.
"""

from __future__ import annotations

import os
import threading
from collections.abc import Callable
from typing import Any, Protocol, runtime_checkable

from repro.errors import EngineError

__all__ = [
    "BACKEND_NAMES",
    "TrialBackend",
    "VectorizedTrialBackend",
    "resolve_trial_backend",
]

#: names accepted by the CLI flag, the env var, and the service config
BACKEND_NAMES = ("vectorized", "remote")

#: ``fn(payload, trials, start)``: trials ``[start, start + trials)``, in order
TrialFn = Callable[[Any, int, int], list]


@runtime_checkable
class TrialBackend(Protocol):
    """How a Monte-Carlo trial loop executes.

    ``run`` must return ``fn(payload, trials, 0)`` — results in trial
    order, regardless of how the work is scheduled.
    """

    #: the backend kind, one of :data:`BACKEND_NAMES`
    name: str

    def run(self, fn: TrialFn, payload: Any, trials: int) -> list[Any]:
        """Execute the trials and return their results in order."""
        ...

    def shutdown(self) -> None:
        """Release any worker resources (idempotent)."""
        ...

    @property
    def effective_name(self) -> str:
        """What actually executes trials now (the local backend after fallback)."""
        ...


class VectorizedTrialBackend:
    """The whole trial batch as one in-process array program.

    :attr:`kernel_runs` counts the batches run, so ``GET /engine/stats``
    can report how much of the trial load ran here.
    """

    name = "vectorized"

    def __init__(self):
        self.kernel_runs = 0
        self._lock = threading.Lock()

    def run(self, fn: TrialFn, payload: Any, trials: int) -> list[Any]:
        """Run every trial of the batch."""
        return self.run_span(fn, payload, 0, trials)

    def run_span(self, fn: TrialFn, payload: Any, start: int, stop: int) -> list[Any]:
        """Run trials ``[start, stop)`` at their absolute indices.

        Every trial draws from its own ``[seed, trial]`` RNG stream keyed
        by the *absolute* index, so a cluster worker computing one chunk
        of a sharded batch produces the exact bytes the full batch would
        for those positions.
        """
        # imported lazily: stability imports this module for the
        # TrialBackend protocol, so a module-level import would cycle
        from repro.stability.kernels import dispatch_kernel

        results = dispatch_kernel(fn, payload, stop - start, start)
        with self._lock:
            self.kernel_runs += 1
        return results

    def shutdown(self) -> None:
        """Nothing to release."""
        pass

    @property
    def effective_name(self) -> str:
        """Always ``vectorized``."""
        return self.name


def resolve_trial_backend(name: str | None = None) -> TrialBackend:
    """Build the backend for ``name``.

    ``None`` means the default, ``vectorized``.  ``remote`` builds a
    :class:`~repro.cluster.coordinator.RemoteTrialBackend` over the
    addresses in the ``REPRO_TRIAL_WORKERS`` environment variable
    (comma-separated ``host:port``) and/or the registry named by
    ``REPRO_TRIAL_REGISTRY`` (a URL — dynamic membership, workers may
    join and leave mid-run); with neither configured it simply runs
    everything on its local fallback, recording the reason.
    """
    requested = name if name is not None else "vectorized"
    if requested not in BACKEND_NAMES:
        raise EngineError(
            f"unknown trial backend {requested!r}; expected one of "
            f"{', '.join(BACKEND_NAMES)}"
        )
    if requested == "vectorized":
        return VectorizedTrialBackend()
    # lazy: the cluster package imports this module for the protocol
    from repro.cluster.coordinator import (
        REGISTRY_ENV_VAR,
        RemoteTrialBackend,
        workers_from_env,
    )

    return RemoteTrialBackend(
        workers_from_env(),
        registry_url=os.environ.get(REGISTRY_ENV_VAR) or None,
    )
