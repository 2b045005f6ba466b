"""Execution backends for the Monte-Carlo trial loop.

The stability estimators run their trials through a module-level
function ``fn(payload, trial) -> result`` where ``payload`` is plain,
picklable data (the table, the design parameters, the baseline).  That
shape lets the *same* trial code run on any :class:`TrialBackend`:

- :class:`VectorizedTrialBackend` (the default) — the entire trial
  batch is computed as array operations by the kernels in
  :mod:`repro.stability.kernels`, eliminating per-trial Python
  interpretation; trial work without a kernel runs inline, with the
  reason recorded;
- :class:`SerialTrialBackend` — the scalar trial loop inline on the
  calling thread: the reference the kernels are proven against;
- ``remote`` (:class:`repro.cluster.coordinator.RemoteTrialBackend`) —
  the trial batch sharded across worker daemons on *other machines*
  (:mod:`repro.cluster`), with per-chunk failover and a local fallback;
  resolved lazily so the cluster package is only imported when asked
  for.  Trial functions stay module-level and payloads picklable
  because the cluster wire pickles them.

Determinism contract: every backend returns results in trial order
(0..trials-1), and every trial draws from its own ``[seed, trial]`` RNG
stream (:func:`repro.stability.montecarlo.trial_rng`), so the label a
backend produces is byte-identical to the serial one for equal seeds.

:func:`resolve_trial_backend` maps a backend *name* (CLI flag, env var,
service config) to an instance.

:func:`run_trial_span` runs the contiguous trial span ``[start, stop)``
of a larger batch on a local backend, preserving the absolute trial
indices (and therefore the per-trial RNG streams).  It is how a
cluster worker executes the chunk a coordinator hands it while keeping
the assembled batch byte-identical to a local run.
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
    "SerialTrialBackend",
    "VectorizedTrialBackend",
    "resolve_trial_backend",
    "run_trial_span",
]

#: names accepted by the CLI flag, the env var, and the service config
BACKEND_NAMES = ("serial", "vectorized", "remote")

TrialFn = Callable[[Any, int], Any]


@runtime_checkable
class TrialBackend(Protocol):
    """How a Monte-Carlo trial loop executes.

    ``run`` must return ``[fn(payload, 0), ..., fn(payload, trials-1)]``
    — results in trial order, regardless of how the work is scheduled.
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
        """What actually executes trials now (``serial`` after fallback)."""
        ...


class SerialTrialBackend:
    """Trials inline on the calling thread — the reference executor."""

    name = "serial"

    def run(self, fn: TrialFn, payload: Any, trials: int) -> list[Any]:
        """Run every trial inline, in order."""
        return self.run_span(fn, payload, 0, trials)

    def run_span(self, fn: TrialFn, payload: Any, start: int, stop: int) -> list[Any]:
        """Run trials ``[start, stop)`` inline at their absolute indices."""
        return [fn(payload, trial) for trial in range(start, stop)]

    def shutdown(self) -> None:
        """Nothing to release."""
        pass

    @property
    def effective_name(self) -> str:
        """Always ``serial``."""
        return self.name


class VectorizedTrialBackend:
    """Batch the whole trial loop into array kernels.

    Trial functions with a registered kernel
    (:mod:`repro.stability.kernels`: weight perturbation, data
    uncertainty, per-attribute stability over a plain
    :class:`~repro.ranking.scoring.LinearScoringFunction`) are computed
    as one ``(n x T)`` array program, byte-identical to the serial
    scalar loop for equal seeds.  Anything else — an unknown trial
    function, a non-linear scorer, a payload the kernel cannot
    reproduce exactly — runs inline on the scalar path instead.

    Dispatch is **per run**: one non-kernel job does not disable
    vectorization for the next.  :attr:`fallback_reason` records the
    most recent decline and :attr:`kernel_runs` / :attr:`scalar_runs`
    count both outcomes, so ``GET /engine/stats`` can report how much
    of the trial load the kernels actually absorbed.
    """

    name = "vectorized"

    def __init__(self):
        self.fallback_reason: str | None = None
        self.kernel_runs = 0
        self.scalar_runs = 0
        self._lock = threading.Lock()

    def run(self, fn: TrialFn, payload: Any, trials: int) -> list[Any]:
        """Run the batch kernel for ``fn``, or the scalar loop inline."""
        return self.run_span(fn, payload, 0, trials)

    def run_span(self, fn: TrialFn, payload: Any, start: int, stop: int) -> list[Any]:
        """Kernel-or-scalar execution of trials ``[start, stop)``.

        The kernels take the span's absolute trial indices, so a
        cluster worker vectorizing one chunk of a sharded batch
        produces the exact bytes the full-batch kernel would for those
        positions.
        """
        # imported lazily: stability imports this module for the
        # TrialBackend protocol, so a module-level import would cycle
        from repro.stability.kernels import dispatch_kernel

        if stop <= start:
            return []
        results, reason = dispatch_kernel(fn, payload, stop - start, start)
        with self._lock:
            if results is None:
                self.scalar_runs += 1
                self.fallback_reason = reason
            else:
                self.kernel_runs += 1
        if results is None:
            return [fn(payload, trial) for trial in range(start, stop)]
        return results

    def shutdown(self) -> None:
        """Nothing to release."""
        pass

    @property
    def effective_name(self) -> str:
        """``vectorized``, or ``serial`` while no run has hit a kernel."""
        with self._lock:
            if self.scalar_runs and not self.kernel_runs:
                return "serial"
            return self.name


def run_trial_span(
    backend: "SerialTrialBackend | VectorizedTrialBackend",
    fn: TrialFn,
    payload: Any,
    start: int,
    stop: int,
) -> list[Any]:
    """Run trials ``[start, stop)`` on a local ``backend`` at their absolute indices.

    Every trial still draws from its own ``[seed, trial]`` RNG stream
    keyed by the *absolute* index, so concatenating the spans of a
    sharded batch reproduces the unsharded run byte-for-byte.
    """
    return backend.run_span(fn, payload, start, stop)


def resolve_trial_backend(name: str | None = None) -> TrialBackend:
    """Build the backend for ``name``.

    ``None`` means the default, ``vectorized``.  ``serial`` is the
    scalar reference loop.  ``remote`` builds a
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
    if requested == "serial":
        return SerialTrialBackend()
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
