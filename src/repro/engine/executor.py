"""Concurrent batch execution for label jobs.

:class:`LabelExecutor` owns two things:

- the **job pool** (threads) fans a batch of
  :class:`~repro.engine.jobs.LabelJob` out so independent labels build
  concurrently; batch jobs overlap their cache waits, and the
  single-flight cache collapses duplicate designs to one build;
- the **trial backend** (:mod:`repro.engine.backends`) is handed to the
  label builder so each label's Monte-Carlo stability trials (the hot
  path) run as batched array kernels (``vectorized``, the default) or
  sharded across remote worker daemons (``remote``,
  :mod:`repro.cluster`) — selected by name or passed as an instance.

Batches are tracked by id, so a client can submit asynchronously
(``POST /jobs``) and poll (``GET /jobs/<id>``) — the shape the paper's
"Web-based application" needs to serve many audiences at once.
"""

from __future__ import annotations

import contextvars
import itertools
import os
import threading
from collections import OrderedDict
from collections.abc import Callable, Sequence
from concurrent.futures import Future, ThreadPoolExecutor

from repro.engine.backends import (
    TrialBackend,
    VectorizedTrialBackend,
    resolve_trial_backend,
)
from repro.engine.jobs import JobResult, JobStatus, LabelJob
from repro.errors import EngineError
from repro.telemetry import merged_stats, span

__all__ = ["BatchHandle", "LabelExecutor"]


class BatchHandle:
    """One submitted batch: its jobs, futures, and status rollup."""

    def __init__(self, batch_id: str, jobs: Sequence[LabelJob], futures: Sequence[Future]):
        self.batch_id = batch_id
        self.jobs = list(jobs)
        self._futures = list(futures)

    def done(self) -> bool:
        """Whether every job has finished (successfully or not)."""
        return all(future.done() for future in self._futures)

    def results(self, timeout: float | None = None) -> list[JobResult]:
        """Block until every job finishes; results in submission order."""
        return [future.result(timeout=timeout) for future in self._futures]

    def completed_results(self) -> list[JobResult | None]:
        """Non-blocking: finished jobs' results, ``None`` where not done.

        A slot is also ``None`` if the runner itself raised (the status
        rollup reports that as a failed row); callers get exactly the
        stored results, never a recomputation.
        """
        results: list[JobResult | None] = []
        for future in self._futures:
            if future.done() and future.exception() is None:
                results.append(future.result())
            else:
                results.append(None)
        return results

    def status(self) -> dict[str, object]:
        """Non-blocking snapshot for the polling endpoint."""
        rows: list[dict[str, object]] = []
        for job, future in zip(self.jobs, self._futures):
            if future.done():
                exc = future.exception()
                if exc is not None:  # runner bugs; job errors come back as FAILED
                    rows.append({
                        "job_id": job.job_id,
                        "status": JobStatus.FAILED.value,
                        "error": str(exc),
                    })
                else:
                    rows.append(future.result().summary())
            else:
                rows.append({
                    "job_id": job.job_id,
                    "status": (
                        JobStatus.RUNNING.value
                        if future.running()
                        else JobStatus.PENDING.value
                    ),
                })
        return {
            "batch_id": self.batch_id,
            "done": self.done(),
            "total": len(self.jobs),
            "completed": sum(future.done() for future in self._futures),
            "jobs": rows,
        }


class LabelExecutor:
    """Job-pool fan-out for batches plus the trial backend.

    Parameters
    ----------
    max_workers:
        Job-level concurrency (default: CPU count, at least 2 so
        batches overlap cache waits even on one core).
    max_batches:
        Finished-batch handles retained for polling; when exceeded the
        oldest handle is forgotten (its jobs keep running if still
        live, but it can no longer be polled).  Bounds a long-running
        server's memory.
    trial_backend:
        Backend for the Monte-Carlo trials: a name — ``"vectorized"``
        (the default: batched array kernels) or ``"remote"`` (trials
        sharded across the worker daemons named by
        ``REPRO_TRIAL_WORKERS``, see :mod:`repro.cluster`) — resolved via
        :func:`repro.engine.backends.resolve_trial_backend`; or an
        already-built :class:`TrialBackend` instance (how the CLI hands
        over a remote coordinator configured from ``--workers-from``).
    """

    def __init__(
        self,
        max_workers: int | None = None,
        max_batches: int = 256,
        trial_backend: str | TrialBackend | None = None,
    ):
        cpus = os.cpu_count() or 1
        self._max_workers = max_workers if max_workers is not None else max(2, cpus)
        if self._max_workers < 1:
            raise EngineError(f"max_workers must be >= 1, got {self._max_workers}")
        if max_batches < 1:
            raise EngineError(f"max_batches must be >= 1, got {max_batches}")
        if trial_backend is None or isinstance(trial_backend, str):
            self._trial_backend_requested = (
                trial_backend if trial_backend is not None else "vectorized"
            )
            # resolve eagerly so an unknown name fails at construction time
            self._trial_backend: TrialBackend = resolve_trial_backend(
                self._trial_backend_requested
            )
        else:  # a pre-built backend instance (e.g. a remote coordinator)
            self._trial_backend_requested = trial_backend.name
            self._trial_backend = trial_backend
        self._max_batches = max_batches
        self._job_pool: ThreadPoolExecutor | None = None
        self._batches: OrderedDict[str, BatchHandle] = OrderedDict()
        self._lock = threading.Lock()
        self._batch_counter = itertools.count(1)
        self._batches_submitted = 0
        self._jobs_submitted = 0
        self._tasks_submitted = 0

    # -- pools -----------------------------------------------------------------

    @property
    def max_workers(self) -> int:
        """Job-level worker count."""
        return self._max_workers

    def _jobs(self) -> ThreadPoolExecutor:
        with self._lock:
            if self._job_pool is None:
                self._job_pool = ThreadPoolExecutor(
                    max_workers=self._max_workers,
                    thread_name_prefix="label-job",
                )
            return self._job_pool

    def trial_backend(self) -> TrialBackend:
        """The backend Monte-Carlo trials run on."""
        return self._trial_backend

    # -- batches ----------------------------------------------------------------

    def submit_batch(
        self,
        jobs: Sequence[LabelJob],
        runner: Callable[[LabelJob], JobResult],
    ) -> BatchHandle:
        """Queue every job on the job pool; returns the tracked handle."""
        if not jobs:
            raise EngineError("a batch needs at least one job")
        with self._lock:
            batch_id = f"batch-{next(self._batch_counter):04d}"
            self._batches_submitted += 1
            self._jobs_submitted += len(jobs)
        pool = self._jobs()

        def run_job(job: LabelJob) -> JobResult:
            with span("executor.job", job_id=job.job_id, batch_id=batch_id):
                return runner(job)

        # each job gets its own copy of the *submitting* context, so a
        # trace started by the HTTP request propagates into the pool
        # thread (a shared Context cannot be entered concurrently)
        futures = [
            pool.submit(contextvars.copy_context().run, run_job, job)
            for job in jobs
        ]
        handle = BatchHandle(batch_id, jobs, futures)
        with self._lock:
            self._batches[batch_id] = handle
            while len(self._batches) > self._max_batches:
                self._batches.popitem(last=False)
        return handle

    def submit_task(self, fn: Callable, *args) -> Future:
        """Run one bare callable on the job pool.

        The streaming front end uses this to move a label build off the
        request thread (the build publishes events; the handler drains
        them).  The callable gets a copy of the submitting context, so
        traces propagate exactly as they do for batch jobs.
        """
        with self._lock:
            self._tasks_submitted += 1
        return self._jobs().submit(contextvars.copy_context().run, fn, *args)

    def batch(self, batch_id: str) -> BatchHandle:
        """Look a submitted batch up by id."""
        with self._lock:
            handle = self._batches.get(batch_id)
        if handle is None:
            raise EngineError(f"unknown batch id {batch_id!r}")
        return handle

    def batches(self) -> list[str]:
        """Ids of every batch still retained for polling, oldest first."""
        with self._lock:
            return list(self._batches)

    # -- lifecycle ---------------------------------------------------------------

    def stats(self) -> dict[str, object]:
        """Executor counters for the stats endpoint.

        ``batches_submitted``/``jobs_submitted`` count every submission
        ever made; ``batches_retained`` is the handles currently kept
        for polling (capped at ``max_batches``).
        """
        backend = self._trial_backend
        # a remote backend records why it last ran trials locally
        fallback = getattr(backend, "fallback_reason", None)
        with self._lock:
            stats: dict[str, object] = {
                "max_workers": self._max_workers,
                # effective, not configured: a remote backend that fell
                # back runs every trial locally and must not read as
                # parallel (vectorized trials are batched, not parallel)
                "parallel_trials": backend.effective_name == "remote",
                "trial_backend": self._trial_backend_requested,
                "trial_backend_effective": backend.effective_name,
                "trial_backend_fallback": fallback,
                "batches_submitted": self._batches_submitted,
                "batches_retained": len(self._batches),
                "jobs_submitted": self._jobs_submitted,
                "tasks_submitted": self._tasks_submitted,
            }
        if isinstance(backend, VectorizedTrialBackend):
            stats["trial_kernel_runs"] = backend.kernel_runs
        # the remote coordinator carries its own dispatch/failover
        # counters and per-worker registry state; surface them whole
        return merged_stats(
            stats, trial_cluster=getattr(backend, "stats", None)
        )

    def shutdown(self, wait: bool = True) -> None:
        """Stop the job pool and the trial backend (idempotent)."""
        with self._lock:
            job_pool, self._job_pool = self._job_pool, None
        if job_pool is not None:
            job_pool.shutdown(wait=wait)
        self._trial_backend.shutdown()
