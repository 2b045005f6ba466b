"""Tests for repro.engine.executor: batch bookkeeping and eviction.

The stats contract matters for capacity planning: ``batches_submitted``
must count every submission ever made (it is a rate), while
``batches_retained`` is the polling window (a gauge capped at
``max_batches``) — the two used to be conflated.
"""

import pytest

from repro.engine import JobResult, JobStatus, LabelDesign, LabelExecutor, LabelJob
from repro.errors import EngineError


def _job(tag: str) -> LabelJob:
    return LabelJob(
        design=LabelDesign.create(
            weights={"x": 1.0}, sensitive="group", id_column="name"
        ),
        dataset="cs-departments",
        dataset_name=tag,
        job_id=tag,
    )


def _noop_runner(job):
    return JobResult(
        job_id=job.job_id, status=JobStatus.DONE,
        dataset_name=job.dataset_name or "",
    )


@pytest.fixture()
def executor():
    ex = LabelExecutor(max_workers=2, max_batches=2)
    yield ex
    ex.shutdown()


class TestSubmissionCounters:
    def test_batches_submitted_counts_submissions_not_retained_handles(self, executor):
        for index in range(3):
            executor.submit_batch([_job(f"b{index}")], _noop_runner)
        stats = executor.stats()
        # regression: this used to report len(retained handles), i.e. 2
        assert stats["batches_submitted"] == 3
        assert stats["batches_retained"] == 2
        assert stats["jobs_submitted"] == 3

    def test_jobs_submitted_sums_batch_sizes(self, executor):
        executor.submit_batch([_job("a"), _job("b")], _noop_runner)
        executor.submit_batch([_job("c")], _noop_runner)
        stats = executor.stats()
        assert stats["batches_submitted"] == 2
        assert stats["jobs_submitted"] == 3

    def test_stats_shape(self, executor):
        # the default backend is vectorized, which adds its batch counter
        assert set(executor.stats()) == {
            "max_workers",
            "parallel_trials",
            "trial_backend",
            "trial_backend_effective",
            "trial_backend_fallback",
            "batches_submitted",
            "batches_retained",
            "jobs_submitted",
            "tasks_submitted",
            "trial_kernel_runs",
        }

    def test_default_backend_is_vectorized(self, executor):
        stats = executor.stats()
        assert stats["trial_backend"] == "vectorized"


class TestEviction:
    def test_eviction_is_oldest_first(self, executor):
        handles = [
            executor.submit_batch([_job(f"b{index}")], _noop_runner)
            for index in range(4)
        ]
        # max_batches=2: only the two newest survive, in submission order
        assert executor.batches() == [h.batch_id for h in handles[2:]]

    def test_polling_an_evicted_batch_raises_clearly(self, executor):
        first = executor.submit_batch([_job("old")], _noop_runner)
        first.results()  # finished before eviction; results were retrievable
        for index in range(2):
            executor.submit_batch([_job(f"new{index}")], _noop_runner)
        with pytest.raises(EngineError, match=f"unknown batch id {first.batch_id!r}"):
            executor.batch(first.batch_id)

    def test_evicted_handles_keep_working_if_held(self, executor):
        first = executor.submit_batch([_job("held")], _noop_runner)
        for index in range(2):
            executor.submit_batch([_job(f"new{index}")], _noop_runner)
        # the registry forgot it, but a caller-held handle still resolves
        assert [r.status for r in first.results()] == [JobStatus.DONE]
        assert first.status()["done"] is True

    def test_stats_stay_correct_after_eviction(self, executor):
        for index in range(5):
            executor.submit_batch([_job(f"b{index}")], _noop_runner)
        stats = executor.stats()
        assert stats["batches_submitted"] == 5
        assert stats["batches_retained"] == 2
        assert len(executor.batches()) == 2

    def test_retained_batches_still_pollable(self, executor):
        handles = [
            executor.submit_batch([_job(f"b{index}")], _noop_runner)
            for index in range(3)
        ]
        for handle in handles[1:]:
            assert executor.batch(handle.batch_id) is handle
