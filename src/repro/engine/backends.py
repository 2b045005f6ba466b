"""Pluggable execution backends for the Monte-Carlo trial loop.

The stability estimators run their trials through a module-level
function ``fn(payload, trial) -> result`` where ``payload`` is plain,
picklable data (the table, the design parameters, the baseline).  That
shape lets the *same* trial code run on any :class:`TrialBackend`:

- :class:`SerialTrialBackend` — trials inline on the calling thread;
- :class:`ThreadTrialBackend` — a thread pool (wins when the trial work
  releases the GIL, loses on a single core);
- :class:`ProcessTrialBackend` — a process pool, sidestepping the GIL
  entirely; trials are *chunked* so one payload pickle amortizes over
  many trials instead of paying IPC per trial;
- :class:`VectorizedTrialBackend` — no pool at all: the entire trial
  batch is computed as array operations by the kernels in
  :mod:`repro.stability.kernels`, eliminating per-trial Python
  interpretation (the single biggest single-machine win); trial work
  without a kernel runs inline, with the reason recorded;
- ``remote`` (:class:`repro.cluster.coordinator.RemoteTrialBackend`) —
  the trial batch sharded across worker daemons on *other machines*
  (:mod:`repro.cluster`), with per-chunk failover and a local fallback;
  resolved lazily so the cluster package is only imported when asked
  for;
- :class:`ExecutorTrialBackend` — adapter for a caller-owned
  :class:`concurrent.futures.Executor` (the pre-backend API).

Determinism contract: every backend returns results in trial order
(0..trials-1), and every trial draws from its own ``[seed, trial]`` RNG
stream (:func:`repro.stability.montecarlo.trial_rng`), so the label a
backend produces is byte-identical to the serial one for equal seeds.

:func:`resolve_trial_backend` maps a backend *name* (CLI flag, env var,
service config) to an instance, probing ``os.cpu_count()``: on a
single-CPU host a parallel backend is pure overhead, so ``thread`` and
``process`` self-disable to serial unless a worker count is forced
(``vectorized`` — the default — needs no workers and is never
disabled; ``remote`` reads its worker addresses from the
``REPRO_TRIAL_WORKERS`` environment variable).
The process backend additionally falls back to serial — per instance,
with the reason recorded for ``GET /engine/stats`` — when the trial
work does not pickle or the worker pool breaks.

:func:`run_trial_span` runs the contiguous trial span ``[start, stop)``
of a larger batch on any backend, preserving the absolute trial
indices (and therefore the per-trial RNG streams).  It is how a
cluster worker executes the chunk a coordinator hands it while keeping
the assembled batch byte-identical to a local run.
"""

from __future__ import annotations

import math
import multiprocessing
import os
import pickle
import threading
from collections.abc import Callable
from concurrent.futures import (
    CancelledError,
    Executor,
    ProcessPoolExecutor,
    ThreadPoolExecutor,
)
from concurrent.futures.process import BrokenProcessPool
from functools import partial
from typing import Any, Protocol, runtime_checkable

from repro.errors import EngineError

__all__ = [
    "BACKEND_NAMES",
    "TrialBackend",
    "SerialTrialBackend",
    "ThreadTrialBackend",
    "ProcessTrialBackend",
    "VectorizedTrialBackend",
    "ExecutorTrialBackend",
    "resolve_trial_backend",
    "run_trial_span",
]

#: names accepted by the CLI flag, the env var, and the service config
BACKEND_NAMES = ("serial", "thread", "process", "vectorized", "remote")

TrialFn = Callable[[Any, int], Any]


@runtime_checkable
class TrialBackend(Protocol):
    """How a Monte-Carlo trial loop executes.

    ``run`` must return ``[fn(payload, 0), ..., fn(payload, trials-1)]``
    — results in trial order, regardless of how the work is scheduled.
    """

    #: the backend kind, one of :data:`BACKEND_NAMES` (or "executor")
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


def _run_serially(fn: TrialFn, payload: Any, trials: int) -> list[Any]:
    return [fn(payload, trial) for trial in range(trials)]


class SerialTrialBackend:
    """Trials inline on the calling thread — the reference executor."""

    name = "serial"

    def run(self, fn: TrialFn, payload: Any, trials: int) -> list[Any]:
        """Run every trial inline, in order."""
        return _run_serially(fn, payload, trials)

    def shutdown(self) -> None:
        """Nothing to release."""
        pass

    @property
    def effective_name(self) -> str:
        """Always ``serial``."""
        return self.name


class ExecutorTrialBackend:
    """A caller-owned :class:`Executor` as a backend (legacy adapter).

    The caller keeps ownership: :meth:`shutdown` does **not** stop the
    wrapped executor.  ``Executor.map`` yields results in submission
    order, which is exactly the ordering contract.
    """

    name = "executor"

    def __init__(self, executor: Executor):
        self._executor = executor

    def run(self, fn: TrialFn, payload: Any, trials: int) -> list[Any]:
        """Map the trials over the wrapped executor, in order."""
        return list(self._executor.map(partial(fn, payload), range(trials)))

    def shutdown(self) -> None:
        """The caller owns the executor; nothing to release."""
        pass  # not ours to stop

    @property
    def effective_name(self) -> str:
        """Always ``executor``."""
        return self.name


class ThreadTrialBackend:
    """A lazily started thread pool; per-trial dispatch (no IPC to amortize)."""

    name = "thread"

    def __init__(self, workers: int):
        if workers < 2:
            raise EngineError(f"thread backend needs >= 2 workers, got {workers}")
        self.workers = workers
        self._pool: ThreadPoolExecutor | None = None
        self._lock = threading.Lock()

    def _ensure_pool(self) -> ThreadPoolExecutor:
        with self._lock:
            if self._pool is None:
                self._pool = ThreadPoolExecutor(
                    max_workers=self.workers, thread_name_prefix="mc-trial"
                )
            return self._pool

    def run(self, fn: TrialFn, payload: Any, trials: int) -> list[Any]:
        """Fan the trials over the thread pool; results in order."""
        if trials <= 1:
            return _run_serially(fn, payload, trials)
        pool = self._ensure_pool()
        return list(pool.map(partial(fn, payload), range(trials)))

    def shutdown(self) -> None:
        """Stop the thread pool (idempotent)."""
        with self._lock:
            pool, self._pool = self._pool, None
        if pool is not None:
            pool.shutdown(wait=True)

    @property
    def effective_name(self) -> str:
        """Always ``thread`` (threads have no fallback path)."""
        return self.name


class VectorizedTrialBackend:
    """Batch the whole trial loop into array kernels — no pool, no GIL.

    Trial functions with a registered kernel
    (:mod:`repro.stability.kernels`: weight perturbation, data
    uncertainty, per-attribute stability over a plain
    :class:`~repro.ranking.scoring.LinearScoringFunction`) are computed
    as one ``(n x T)`` array program, byte-identical to the serial
    scalar loop for equal seeds.  Anything else — an unknown trial
    function, a non-linear scorer, a payload the kernel cannot
    reproduce exactly — runs inline on the scalar path instead.

    Unlike :class:`ProcessTrialBackend`'s sticky degrade, dispatch is
    **per run**: one non-kernel job does not disable vectorization for
    the next.  :attr:`fallback_reason` records the most recent decline
    and :attr:`kernel_runs` / :attr:`scalar_runs` count both outcomes,
    so ``GET /engine/stats`` can report how much of the trial load the
    kernels actually absorbed.
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
        """No pool to release."""
        pass

    @property
    def effective_name(self) -> str:
        """``vectorized``, or ``serial`` while no run has hit a kernel."""
        with self._lock:
            if self.scalar_runs and not self.kernel_runs:
                return "serial"
            return self.name


class _SpanShiftTrial:
    """Adapter shifting a backend's 0-based trial index by ``offset``.

    Instances are picklable whenever ``fn`` is module-level, so a span
    can still cross a process boundary.
    """

    __slots__ = ("fn", "offset")

    def __init__(self, fn: TrialFn, offset: int):
        self.fn = fn
        self.offset = offset

    def __getstate__(self):
        return (self.fn, self.offset)

    def __setstate__(self, state):
        self.fn, self.offset = state

    def __call__(self, payload: Any, trial: int) -> Any:
        return self.fn(payload, self.offset + trial)


def run_trial_span(
    backend: TrialBackend, fn: TrialFn, payload: Any, start: int, stop: int
) -> list[Any]:
    """Run trials ``[start, stop)`` on ``backend`` at their absolute indices.

    Every trial still draws from its own ``[seed, trial]`` RNG stream
    keyed by the *absolute* index, so concatenating the spans of a
    sharded batch reproduces the unsharded run byte-for-byte.  The
    vectorized backend takes the span natively (its kernels accept an
    index offset); pool backends run through a picklable index-shift
    adapter.
    """
    if stop <= start:
        return []
    if start == 0:
        return backend.run(fn, payload, stop)
    if isinstance(backend, VectorizedTrialBackend):
        return backend.run_span(fn, payload, start, stop)
    return backend.run(_SpanShiftTrial(fn, start), payload, stop - start)


def _safe_mp_context() -> multiprocessing.context.BaseContext:
    """A start method that is safe in an already-threaded process.

    The label server (and the job pool) are multithreaded by the time a
    trial pool first spins up, and ``fork`` from a threaded process can
    snapshot another thread mid-lock (numpy/BLAS, malloc) and deadlock
    the child.  ``forkserver`` forks from a clean helper process and
    ``spawn`` starts fresh interpreters; both are safe here because the
    trial functions are module-level and the payloads picklable.
    """
    methods = multiprocessing.get_all_start_methods()
    return multiprocessing.get_context(
        "forkserver" if "forkserver" in methods else "spawn"
    )


def _run_trial_chunk(fn: TrialFn, payload: Any, start: int, stop: int) -> list[Any]:
    """Run trials ``[start, stop)`` inside one worker (one IPC round-trip)."""
    return [fn(payload, trial) for trial in range(start, stop)]


def _chunk_spans(trials: int, workers: int, chunk_size: int | None) -> list[tuple[int, int]]:
    """Split ``range(trials)`` into contiguous spans, submission-ordered.

    The default aims for a few chunks per worker: large enough that one
    payload pickle covers many trials, small enough that a slow chunk
    does not straggle the whole loop.
    """
    if chunk_size is None:
        chunk_size = max(1, math.ceil(trials / (workers * 4)))
    return [
        (start, min(start + chunk_size, trials))
        for start in range(0, trials, chunk_size)
    ]


def _reap_pool(pool: ProcessPoolExecutor, timeout: float = 5.0) -> None:
    """Bounded teardown of a degraded process pool.

    The pool is not asked to cancel its queued chunks.  On CPython 3.11,
    ``cancel_futures=True`` makes the executor's manager thread swap in
    a fresh pending-work dict while the queue feeder keeps retiring
    unpicklable chunks from the old one, so such a chunk stays pending
    forever: the manager never exits, and the ``concurrent.futures``
    atexit hook then wedges interpreter exit joining it.  Uncancelled,
    every queued chunk either runs or fails to pickle and the manager
    exits on its own.  The join is bounded so a hung worker cannot
    block the build (the serial rerun already owns the results).
    """
    manager = getattr(pool, "_executor_manager_thread", None)
    pool.shutdown(wait=False)
    if manager is not None:
        manager.join(timeout)


class ProcessTrialBackend:
    """A process pool with chunked dispatch and a clean serial fallback.

    Parameters
    ----------
    workers:
        Process count (>= 2; use :func:`resolve_trial_backend` for the
        probe-and-disable behaviour on small hosts).
    chunk_size:
        Trials per submitted chunk; default a few chunks per worker.

    Fallback: if the trial function or payload does not pickle, or the
    worker pool breaks, the instance degrades to serial execution for
    this and subsequent runs, recording the reason
    (:attr:`fallback_reason`) so ``GET /engine/stats`` can report the
    *effective* backend instead of the configured one.  Results are
    unaffected either way — the determinism contract makes the serial
    rerun identical.
    """

    name = "process"

    def __init__(self, workers: int, chunk_size: int | None = None):
        if workers < 2:
            raise EngineError(f"process backend needs >= 2 workers, got {workers}")
        if chunk_size is not None and chunk_size < 1:
            raise EngineError(f"chunk_size must be >= 1, got {chunk_size}")
        self.workers = workers
        self.chunk_size = chunk_size
        self.fallback_reason: str | None = None
        self._probe_ok = False
        self._pool: ProcessPoolExecutor | None = None
        self._lock = threading.Lock()

    def _ensure_pool(self) -> ProcessPoolExecutor:
        with self._lock:
            if self._pool is None:
                self._pool = ProcessPoolExecutor(
                    max_workers=self.workers, mp_context=_safe_mp_context()
                )
            return self._pool

    def _degrade(self, reason: str) -> None:
        with self._lock:
            if self.fallback_reason is None:
                self.fallback_reason = reason
            pool, self._pool = self._pool, None
        if pool is not None:
            _reap_pool(pool)

    def run(self, fn: TrialFn, payload: Any, trials: int) -> list[Any]:
        """Run the trials in chunked process batches, or serially after fallback."""
        if self.fallback_reason is not None or trials <= 1:
            return _run_serially(fn, payload, trials)
        if not self._probe_ok:
            # probe before the first submission: ProcessPoolExecutor surfaces
            # pickling failures asynchronously, a dry run here keeps the
            # fallback deterministic.  One probe suffices — later payloads of
            # the same shapes that still fail are caught at result time below.
            try:
                pickle.dumps((fn, payload))
            except Exception as exc:
                self._degrade(f"trial work is not picklable: {exc}")
                return _run_serially(fn, payload, trials)
            self._probe_ok = True
        spans = _chunk_spans(trials, self.workers, self.chunk_size)
        try:
            pool = self._ensure_pool()
            futures = [
                pool.submit(_run_trial_chunk, fn, payload, start, stop)
                for start, stop in spans
            ]
            results: list[Any] = []
            for future in futures:  # submission order == trial order
                results.extend(future.result())
            return results
        except (
            BrokenProcessPool,
            CancelledError,
            pickle.PicklingError,
            TypeError,
            AttributeError,
        ) as exc:
            # pool death or an unpicklable later payload: the serial rerun is
            # byte-identical
            self._degrade(f"process execution failed: {exc}")
            try:
                return _run_serially(fn, payload, trials)
            except Exception:
                # the serial rerun re-raised, so the fault was the trial
                # itself, not serialization or pool health — one bad job must
                # not disable the process backend for every later build (a
                # genuinely broken pool will just re-degrade on its next run)
                with self._lock:
                    self.fallback_reason = None
                raise

    def shutdown(self) -> None:
        """Stop the process pool (idempotent)."""
        with self._lock:
            pool, self._pool = self._pool, None
        if pool is not None:
            pool.shutdown(wait=True)

    @property
    def effective_name(self) -> str:
        """``process``, or ``serial`` once the instance fell back."""
        return "serial" if self.fallback_reason is not None else self.name


def resolve_trial_backend(
    name: str | None = None, workers: int | None = None
) -> TrialBackend:
    """Build the backend for ``name``, probing the host's CPU count.

    ``None`` means the default: ``vectorized``, which has soaked since
    PR 3 with byte-identical labels and a ~30-60x hot-loop win (pass
    ``"serial"``/``"thread"`` explicitly for the earlier behaviours).
    With ``workers`` unset, the count comes from ``os.cpu_count()`` —
    and a worker-pool backend on a single-CPU host resolves to
    :class:`SerialTrialBackend`, as does any explicit ``workers <= 1``.
    Forcing ``workers >= 2`` yields a real pool even on one CPU (tests
    and benchmarks rely on this to exercise the process path).  The
    ``vectorized`` backend runs no workers at all, so it ignores the
    count and is never self-disabled.  ``remote`` builds a
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
    if requested == "remote":
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
    effective_workers = workers if workers is not None else (os.cpu_count() or 1)
    if requested == "serial" or effective_workers <= 1:
        return SerialTrialBackend()
    if requested == "thread":
        return ThreadTrialBackend(effective_workers)
    return ProcessTrialBackend(effective_workers)
