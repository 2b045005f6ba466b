"""Tests for repro.engine.service and executor: the engine's guarantees.

The three acceptance-critical properties live here:

- a repeated request for an unchanged design performs zero rebuilds;
- sessions never cross-contaminate (distinct designs, distinct labels);
- parallel Monte-Carlo trials are seed-deterministic and byte-identical
  to the serial path.
"""

import threading

import pytest

from repro.app.session import DemoSession
from repro.engine import (
    JobStatus,
    LabelDesign,
    LabelExecutor,
    LabelJob,
    LabelService,
)
from repro.errors import EngineError, RankingFactsError
from repro.label.render_json import render_json

WEIGHTS = {"PubCount": 0.4, "Faculty": 0.4, "GRE": 0.2}


def design(**overrides):
    base = dict(
        weights=WEIGHTS, sensitive="DeptSizeBin", id_column="DeptName"
    )
    base.update(overrides)
    return LabelDesign.create(**base)


@pytest.fixture()
def service():
    with LabelService(cache_size=8) as svc:
        yield svc


class TestCaching:
    def test_repeat_design_builds_once(self, service, cs_table):
        first = service.build_label(cs_table, design(), "cs")
        second = service.build_label(cs_table, design(), "cs")
        assert not first.cached and second.cached
        assert second.facts is first.facts
        assert service.stats()["service"]["builds"] == 1

    def test_different_designs_build_separately(self, service, cs_table):
        a = service.build_label(cs_table, design(), "cs")
        b = service.build_label(cs_table, design(k=5), "cs")
        assert not a.cached and not b.cached
        assert a.facts.label.k == 10 and b.facts.label.k == 5

    def test_dataset_name_is_part_of_the_key(self, service, cs_table):
        a = service.build_label(cs_table, design(), "one")
        b = service.build_label(cs_table, design(), "two")
        assert not b.cached  # different rendered bytes -> different entry
        assert a.facts.label.dataset_name == "one"
        assert b.facts.label.dataset_name == "two"

    def test_cache_disabled_service_always_builds(self, cs_table):
        with LabelService(use_cache=False) as svc:
            first = svc.build_label(cs_table, design(), "cs")
            second = svc.build_label(cs_table, design(), "cs")
            assert not first.cached and not second.cached
            assert svc.stats()["service"]["builds"] == 2

    def test_concurrent_identical_requests_single_flight(self, cs_table):
        with LabelService(cache_size=8) as svc:
            mc = design(monte_carlo_trials=5, monte_carlo_epsilons=(0.1,))
            outcomes = []

            def request():
                outcomes.append(svc.build_label(cs_table, mc, "cs"))

            threads = [threading.Thread(target=request) for _ in range(6)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
            assert svc.stats()["service"]["builds"] == 1
            assert sum(1 for o in outcomes if not o.cached) == 1
            assert len({id(o.facts) for o in outcomes}) == 1


class TestSessionIntegration:
    def test_sessions_sharing_a_service_share_the_cache(self, service):
        one = DemoSession(service=service)
        two = DemoSession(service=service)
        for session in (one, two):
            session.load_builtin("cs-departments")
            session.design_scoring(
                weights=WEIGHTS, sensitive_attribute="DeptSizeBin",
                id_column="DeptName",
            )
        one.generate_label()
        two.generate_label()
        assert not one.last_label_was_cached()
        assert two.last_label_was_cached()
        assert two.last_label() is one.last_label()

    def test_sessions_with_different_designs_never_cross_contaminate(self, service):
        one = DemoSession(service=service)
        two = DemoSession(service=service)
        for session in (one, two):
            session.load_builtin("cs-departments")
        one.design_scoring(
            weights=WEIGHTS, sensitive_attribute="DeptSizeBin",
            id_column="DeptName", k=10,
        )
        two.design_scoring(
            weights={"GRE": 1.0}, sensitive_attribute="DeptSizeBin",
            id_column="DeptName", k=5,
        )
        label_one = one.generate_label().label
        label_two = two.generate_label().label
        assert set(label_one.recipe.weights) == set(WEIGHTS)
        assert set(label_two.recipe.weights) == {"GRE"}
        assert label_one.k == 10 and label_two.k == 5
        # repeating each session's own request serves its own label
        assert one.generate_label().label is label_one
        assert two.generate_label().label is label_two

    def test_private_session_service_still_caches(self):
        session = DemoSession()
        session.load_builtin("cs-departments")
        session.design_scoring(
            weights=WEIGHTS, sensitive_attribute="DeptSizeBin",
            id_column="DeptName",
        )
        first = session.generate_label()
        second = session.generate_label()
        assert second is first
        assert session.last_label_was_cached()
        assert session.service.stats()["service"]["builds"] == 1


class TestParallelMonteCarlo:
    def test_parallel_trials_byte_identical_to_serial(self, cs_table):
        mc = design(monte_carlo_trials=6, monte_carlo_epsilons=(0.05, 0.2))
        with LabelService(use_cache=False, trial_backend="serial") as svc:
            serial = svc.build_label(cs_table, mc, "cs")
        with LabelService(use_cache=False, trial_backend="vectorized") as svc:
            vectorized = svc.build_label(cs_table, mc, "cs")
            assert svc.stats()["executor"]["trial_kernel_runs"] > 0
        assert render_json(vectorized.facts.label) == render_json(serial.facts.label)

    def test_seed_changes_the_monte_carlo_outcome_key(self, cs_table):
        base = design(monte_carlo_trials=6, monte_carlo_epsilons=(0.2,))
        with LabelService(cache_size=8) as svc:
            a = svc.build_label(cs_table, base, "cs")
            b = svc.build_label(cs_table, base.with_updates(seed=7), "cs")
        assert a.fingerprint != b.fingerprint


class TestBatches:
    def test_run_batch_order_and_status(self, service):
        jobs = [
            LabelJob(design=design(), dataset="cs-departments"),
            LabelJob(design=design(k=5), dataset="cs-departments"),
            LabelJob(
                design=LabelDesign.create(
                    weights={"credit_score": 1.0}, sensitive="sex",
                    id_column="applicant_id",
                ),
                dataset="german-credit",
            ),
        ]
        results = service.run_batch(jobs)
        assert [r.job_id for r in results] == ["job-0", "job-1", "job-2"]
        assert all(r.status is JobStatus.DONE for r in results)
        assert results[2].dataset_name == "german-credit"

    def test_duplicate_jobs_collapse_to_one_build(self, service):
        jobs = [
            LabelJob(design=design(), dataset="cs-departments") for _ in range(4)
        ]
        results = service.run_batch(jobs)
        assert all(r.status is JobStatus.DONE for r in results)
        assert service.stats()["service"]["builds"] == 1
        assert sum(1 for r in results if r.cached) == 3
        payloads = {render_json(r.facts.label) for r in results}
        assert len(payloads) == 1

    def test_failed_job_reported_not_raised(self, service):
        jobs = [
            LabelJob(design=design(), dataset="cs-departments"),
            LabelJob(design=design(), dataset="no-such-dataset"),
        ]
        results = service.run_batch(jobs)
        assert results[0].status is JobStatus.DONE
        assert results[1].status is JobStatus.FAILED
        assert "no-such-dataset" in results[1].error

    def test_unexpected_loader_fault_reported_not_raised(self, service, tmp_path):
        """Non-RankingFactsError faults (e.g. a binary 'CSV') fail one job,
        not the whole batch."""
        binary = tmp_path / "binary.csv"
        binary.write_bytes(b"\xff\xfe\x00not,really,text")
        jobs = [
            LabelJob(design=design(), dataset="cs-departments"),
            LabelJob(design=design(), csv_path=str(binary)),
        ]
        results = service.run_batch(jobs)
        assert results[0].status is JobStatus.DONE
        assert results[1].status is JobStatus.FAILED
        assert results[1].error  # the fault is reported, with its type

    def test_async_submit_and_poll(self, service):
        handle = service.submit_batch(
            [LabelJob(design=design(), dataset="cs-departments")]
        )
        results = handle.results()
        assert handle.done()
        status = handle.status()
        assert status["batch_id"] == handle.batch_id
        assert status["completed"] == 1
        assert status["jobs"][0]["status"] == "done"
        assert results[0].status is JobStatus.DONE
        assert service.batch(handle.batch_id) is handle

    def test_unknown_batch_id_raises(self, service):
        with pytest.raises(EngineError, match="unknown batch"):
            service.batch("batch-zzzz")

    def test_empty_batch_rejected(self, service):
        with pytest.raises(EngineError, match="at least one job"):
            service.submit_batch([])

    def test_completed_results_are_stored_not_recomputed(self, service):
        handle = service.submit_batch(
            [LabelJob(design=design(), dataset="cs-departments")]
        )
        blocking = handle.results()
        stored = handle.completed_results()
        assert stored[0] is blocking[0]  # the very object, no re-run

    def test_batch_registry_is_bounded(self):
        executor = LabelExecutor(max_workers=2, max_batches=2)
        try:
            handles = [
                executor.submit_batch(
                    [LabelJob(design=design(), dataset="cs-departments")],
                    lambda job: None,
                )
                for _ in range(3)
            ]
            assert executor.batches() == [h.batch_id for h in handles[1:]]
            with pytest.raises(EngineError, match="unknown batch"):
                executor.batch(handles[0].batch_id)
        finally:
            executor.shutdown()


class TestStats:
    def test_stats_shape(self, service, cs_table):
        service.build_label(cs_table, design(), "cs")
        stats = service.stats()
        assert set(stats) == {"service", "cache", "executor"}
        assert stats["service"]["requests"] == 1
        assert stats["cache"]["max_size"] == 8
        assert stats["executor"]["max_workers"] >= 1

    def test_cache_hit_rate(self, service, cs_table):
        assert service.stats()["cache"]["hit_rate"] == 0.0
        service.build_label(cs_table, design(), "cs")
        service.build_label(cs_table, design(), "cs")
        cache = service.stats()["cache"]
        assert (cache["hits"], cache["misses"]) == (1, 1)
        assert cache["hit_rate"] == pytest.approx(0.5)

    def test_cache_block_keys(self, service):
        assert set(service.stats()["cache"]) == {
            "hits", "misses", "evictions", "size", "max_size", "hit_rate",
            "bytes", "max_bytes", "expirations", "ttl",
        }

    def test_cache_disabled_counts_no_cache_lookups(self, cs_table):
        with LabelService(use_cache=False) as svc:
            svc.build_label(cs_table, design(), "cs")
            stats = svc.stats()
            assert stats["service"] == {
                "requests": 1, "builds": 1, "cache_enabled": False,
            }
            assert (stats["cache"]["hits"], stats["cache"]["misses"]) == (0, 0)

    @pytest.mark.parametrize("stored", [False, True], ids=["memory", "store"])
    def test_failed_build_counts_nowhere(self, tmp_path, cs_table, stored):
        """A build that raises serves no label, so no tier counts it."""
        store = {"store_path": str(tmp_path / "labels.db")} if stored else {}
        with LabelService(**store) as svc:
            svc.build_label(cs_table, design(), "cs")
            before = svc.stats()
            broken = design(weights={"NoSuchColumn": 1.0})
            with pytest.raises(RankingFactsError):
                svc.build_label(cs_table, broken, "cs")
            after = svc.stats()
        assert after["service"] == before["service"]
        assert after.get("tiers") == before.get("tiers")
        assert after["cache"]["misses"] == before["cache"]["misses"] == 1
