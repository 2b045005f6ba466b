"""Tests for repro.engine.backends: pluggable Monte-Carlo trial execution.

The acceptance-critical properties live here:

- labels built on the process backend are byte-identical to serial
  labels for equal seeds;
- parallel backends self-disable to serial on single-CPU hosts (and on
  ``trial_workers <= 1``) unless a worker count is forced;
- the process backend falls back cleanly to serial when the trial work
  does not pickle, recording the reason for the stats endpoint.
"""

import threading

import numpy as np
import pytest

from repro.engine import LabelDesign, LabelService
from repro.engine.backends import (
    BACKEND_NAMES,
    ExecutorTrialBackend,
    ProcessTrialBackend,
    SerialTrialBackend,
    ThreadTrialBackend,
    TrialBackend,
    VectorizedTrialBackend,
    _chunk_spans,
    resolve_trial_backend,
)
from repro.errors import EngineError
from repro.label.render_json import render_json
from repro.ranking import LinearScoringFunction
from repro.stability import (
    DataUncertaintyStability,
    WeightPerturbationStability,
    per_attribute_stability,
)
from repro.stability.montecarlo import run_payload_trials
from repro.tabular import Table


def _square_trial(payload, trial):
    """Module-level (hence picklable) trial function for the unit tests."""
    return payload["base"] + trial * trial


def _type_error_trial(payload, trial):
    """A trial with a genuine bug (raises TypeError on every backend)."""
    return payload["base"] + None


def jittered_table(n=30, seed=11):
    rng = np.random.default_rng(seed)
    return Table.from_dict(
        {
            "name": [f"i{j}" for j in range(n)],
            "a": rng.normal(0, 1, n) * 0.01 + 1.0,
            "b": rng.normal(0, 1, n) * 0.01 + 1.0,
        }
    )


SCORER = LinearScoringFunction({"a": 0.5, "b": 0.5})


@pytest.fixture()
def process_backend():
    backend = ProcessTrialBackend(workers=2)
    yield backend
    backend.shutdown()


@pytest.fixture()
def thread_backend():
    backend = ThreadTrialBackend(workers=4)
    yield backend
    backend.shutdown()


class TestResolution:
    def test_unknown_name_rejected(self):
        with pytest.raises(EngineError, match="unknown trial backend"):
            resolve_trial_backend("fibers")

    def test_serial_by_name(self):
        assert isinstance(resolve_trial_backend("serial"), SerialTrialBackend)

    def test_vectorized_by_name(self):
        assert isinstance(resolve_trial_backend("vectorized"), VectorizedTrialBackend)

    def test_vectorized_ignores_cpu_count(self, monkeypatch):
        # no worker pool to disable: one CPU still vectorizes
        monkeypatch.setattr("repro.engine.backends.os.cpu_count", lambda: 1)
        assert isinstance(resolve_trial_backend("vectorized"), VectorizedTrialBackend)
        assert isinstance(
            resolve_trial_backend("vectorized", 1), VectorizedTrialBackend
        )

    def test_default_is_vectorized(self, monkeypatch):
        # the soak-tested kernels are the default since PR 4, on any host
        for cpus in (1, 4):
            monkeypatch.setattr("repro.engine.backends.os.cpu_count", lambda c=cpus: c)
            assert isinstance(resolve_trial_backend(), VectorizedTrialBackend)

    def test_thread_by_name_on_multicore(self, monkeypatch):
        monkeypatch.setattr("repro.engine.backends.os.cpu_count", lambda: 4)
        backend = resolve_trial_backend("thread")
        assert isinstance(backend, ThreadTrialBackend)
        assert backend.workers == 4

    @pytest.mark.parametrize("name", ["thread", "process"])
    def test_parallel_backends_self_disable_on_one_cpu(self, name, monkeypatch):
        monkeypatch.setattr("repro.engine.backends.os.cpu_count", lambda: 1)
        assert isinstance(resolve_trial_backend(name), SerialTrialBackend)

    @pytest.mark.parametrize("name", ["thread", "process"])
    def test_explicit_single_worker_means_serial(self, name):
        assert isinstance(resolve_trial_backend(name, 1), SerialTrialBackend)

    def test_forced_workers_yield_real_pools_even_on_one_cpu(self, monkeypatch):
        monkeypatch.setattr("repro.engine.backends.os.cpu_count", lambda: 1)
        assert isinstance(resolve_trial_backend("thread", 2), ThreadTrialBackend)
        assert isinstance(resolve_trial_backend("process", 2), ProcessTrialBackend)

    def test_every_name_resolves(self):
        for name in BACKEND_NAMES:
            backend = resolve_trial_backend(name, 2)
            assert isinstance(backend, TrialBackend)
            backend.shutdown()


class TestChunking:
    def test_spans_cover_all_trials_in_order(self):
        spans = _chunk_spans(trials=10, workers=2, chunk_size=3)
        assert spans == [(0, 3), (3, 6), (6, 9), (9, 10)]

    def test_default_chunking_amortizes(self):
        # a few chunks per worker, never one-trial-per-IPC dispatch
        spans = _chunk_spans(trials=100, workers=2, chunk_size=None)
        assert 1 < len(spans) <= 2 * 4
        covered = [t for start, stop in spans for t in range(start, stop)]
        assert covered == list(range(100))

    def test_tiny_loops_are_one_chunk_each(self):
        assert _chunk_spans(trials=2, workers=4, chunk_size=None) == [(0, 1), (1, 2)]


class TestRunOrdering:
    """Every backend returns results in trial order, serial-identical."""

    def expected(self, trials=12):
        return [_square_trial({"base": 7}, t) for t in range(trials)]

    def test_serial(self):
        backend = SerialTrialBackend()
        assert backend.run(_square_trial, {"base": 7}, 12) == self.expected()

    def test_thread(self, thread_backend):
        assert thread_backend.run(_square_trial, {"base": 7}, 12) == self.expected()

    def test_process(self, process_backend):
        assert process_backend.run(_square_trial, {"base": 7}, 12) == self.expected()

    def test_executor_adapter(self):
        from concurrent.futures import ThreadPoolExecutor

        with ThreadPoolExecutor(max_workers=3) as pool:
            backend = ExecutorTrialBackend(pool)
            assert backend.run(_square_trial, {"base": 7}, 12) == self.expected()
            backend.shutdown()  # a no-op: the pool must stay usable
            assert pool.submit(len, "ok").result() == 2

    def test_run_payload_trials_inline_matches_backends(self):
        inline = run_payload_trials(_square_trial, {"base": 7}, 12)
        assert inline == self.expected()


class TestProcessFallback:
    def test_unpicklable_payload_falls_back_to_serial(self, process_backend):
        payload = {"base": 7, "poison": threading.Lock()}  # locks don't pickle
        expected = [_square_trial(payload, t) for t in range(6)]
        assert process_backend.run(_square_trial, payload, 6) == expected
        assert process_backend.fallback_reason is not None
        assert "picklable" in process_backend.fallback_reason
        assert process_backend.effective_name == "serial"

    def test_fallback_is_sticky(self, process_backend):
        process_backend.run(_square_trial, {"base": 0, "poison": lambda: None}, 2)
        # a later, perfectly picklable run stays serial (and still works)
        assert process_backend.run(_square_trial, {"base": 1}, 4) == [
            _square_trial({"base": 1}, t) for t in range(4)
        ]
        assert process_backend.effective_name == "serial"

    def test_later_unpicklable_payload_degrades_at_result_time(self, process_backend):
        """The pickle probe runs once; later bad payloads still fall back."""
        expected_ok = [_square_trial({"base": 1}, t) for t in range(4)]
        assert process_backend.run(_square_trial, {"base": 1}, 4) == expected_ok
        assert process_backend.fallback_reason is None
        poisoned = {"base": 2, "poison": threading.Lock()}
        expected = [_square_trial(poisoned, t) for t in range(4)]
        assert process_backend.run(_square_trial, poisoned, 4) == expected
        assert process_backend.effective_name == "serial"
        assert process_backend.fallback_reason is not None

    def test_degrade_leaves_no_pool_manager_behind(self):
        """A degraded pool's manager thread must exit.

        The ``concurrent.futures`` atexit hook joins every live manager,
        so a stranded one hangs interpreter exit.  Stranding is a race,
        so several fresh pools are degraded.
        """
        poisoned = {"base": 2, "poison": threading.Lock()}
        for _ in range(5):
            backend = ProcessTrialBackend(workers=2)
            backend.run(_square_trial, {"base": 1}, 4)
            manager = backend._pool._executor_manager_thread
            backend.run(_square_trial, poisoned, 4)
            assert backend.effective_name == "serial"
            assert not manager.is_alive()

    def test_genuine_trial_fault_propagates_without_sticky_degrade(
        self, process_backend
    ):
        """A buggy trial must raise, not silently disable the backend."""
        with pytest.raises(TypeError):
            process_backend.run(_type_error_trial, {"base": 1}, 4)
        assert process_backend.fallback_reason is None
        assert process_backend.effective_name == "process"
        expected = [_square_trial({"base": 1}, t) for t in range(4)]
        assert process_backend.run(_square_trial, {"base": 1}, 4) == expected

    def test_single_trial_short_circuits_the_pool(self):
        backend = ProcessTrialBackend(workers=2)
        assert backend.run(_square_trial, {"base": 3}, 1) == [3]
        assert backend._pool is None  # never paid the pool start-up
        backend.shutdown()

    def test_worker_and_chunk_validation(self):
        with pytest.raises(EngineError, match=">= 2 workers"):
            ProcessTrialBackend(workers=1)
        with pytest.raises(EngineError, match="chunk_size"):
            ProcessTrialBackend(workers=2, chunk_size=0)
        with pytest.raises(EngineError, match=">= 2 workers"):
            ThreadTrialBackend(workers=1)


class TestBackendsMatchSerialEstimates:
    """The three estimators give identical results on every backend."""

    def test_weight_perturbation(self, process_backend, thread_backend):
        table = jittered_table()
        serial = WeightPerturbationStability(table, SCORER, "name", trials=8, seed=5)
        for backend in (thread_backend, process_backend):
            parallel = WeightPerturbationStability(
                table, SCORER, "name", trials=8, seed=5, backend=backend
            )
            for epsilon in (0.0, 0.05, 0.3):
                assert serial.assess_at(epsilon) == parallel.assess_at(epsilon)

    def test_data_uncertainty(self, process_backend):
        table = jittered_table()
        serial = DataUncertaintyStability(table, SCORER, "name", trials=8, seed=5)
        parallel = DataUncertaintyStability(
            table, SCORER, "name", trials=8, seed=5, backend=process_backend
        )
        for epsilon in (0.0, 0.1, 0.5):
            assert serial.assess_at(epsilon) == parallel.assess_at(epsilon)

    def test_per_attribute(self, process_backend):
        table = jittered_table()
        serial = per_attribute_stability(
            table, SCORER, "name", trials=6, iterations=3, seed=5
        )
        parallel = per_attribute_stability(
            table, SCORER, "name", trials=6, iterations=3, seed=5,
            backend=process_backend,
        )
        assert serial == parallel


class TestServiceIntegration:
    DESIGN = LabelDesign.create(
        weights={"a": 0.6, "b": 0.4},
        sensitive="group",
        id_column="name",
        k=5,
        monte_carlo_trials=6,
        monte_carlo_epsilons=(0.1,),
    )

    @staticmethod
    def mc_table(n=24, seed=3):
        rng = np.random.default_rng(seed)
        return Table.from_dict(
            {
                "name": [f"i{j}" for j in range(n)],
                "a": rng.normal(0, 1, n) * 0.01 + 1.0,
                "b": rng.normal(0, 1, n) * 0.01 + 1.0,
                "group": ["g1", "g2"] * (n // 2),
            }
        )

    def test_process_backend_labels_byte_identical_to_serial(self):
        """The acceptance criterion: same bytes, serial vs process."""
        table = self.mc_table()
        serial = self.DESIGN.builder_for(table, dataset_name="mc").build()
        with LabelService(
            use_cache=False, trial_backend="process", trial_workers=2
        ) as svc:
            outcome = svc.build_label(table, self.DESIGN, "mc")
        assert render_json(outcome.facts.label) == render_json(serial.label)

    def test_service_reports_requested_and_effective_backend(self):
        with LabelService(trial_backend="process", trial_workers=2) as svc:
            executor = svc.stats()["executor"]
            assert executor["trial_backend"] == "process"
            assert executor["trial_backend_effective"] == "process"
            assert executor["trial_backend_fallback"] is None
            assert executor["parallel_trials"] is True

    def test_stats_track_runtime_fallback(self):
        """After a pickling fallback, stats must stop reading as parallel."""
        with LabelService(trial_backend="process", trial_workers=2) as svc:
            backend = svc.executor.trial_backend()
            backend.run(_square_trial, {"base": 0, "poison": lambda: None}, 2)
            executor = svc.stats()["executor"]
            assert executor["trial_backend"] == "process"
            assert executor["trial_backend_effective"] == "serial"
            assert "picklable" in executor["trial_backend_fallback"]
            assert executor["parallel_trials"] is False

    def test_service_reports_self_disabled_backend(self):
        with LabelService(trial_backend="process", trial_workers=1) as svc:
            executor = svc.stats()["executor"]
            assert executor["trial_backend"] == "process"
            assert executor["trial_backend_effective"] == "serial"
            assert executor["parallel_trials"] is False

    def test_unknown_backend_fails_at_construction(self):
        with pytest.raises(EngineError, match="unknown trial backend"):
            LabelService(trial_backend="quantum")

    def test_backend_does_not_change_the_cache_key(self):
        """Execution detail must not fragment the content-addressed cache."""
        table = self.mc_table()
        with LabelService(trial_backend="serial") as svc:
            a = svc.build_label(table, self.DESIGN, "mc")
        with LabelService(trial_backend="process", trial_workers=2) as svc:
            b = svc.build_label(table, self.DESIGN, "mc")
        assert a.fingerprint == b.fingerprint


class TestVectorizedBackend:
    """Kernel dispatch, per-run fallback, and stats visibility."""

    def test_non_kernel_work_runs_inline_with_reason(self):
        backend = VectorizedTrialBackend()
        assert backend.run(_square_trial, {"base": 7}, 12) == [
            _square_trial({"base": 7}, t) for t in range(12)
        ]
        assert backend.kernel_runs == 0
        assert backend.scalar_runs == 1
        assert "no vectorized kernel" in backend.fallback_reason
        assert backend.effective_name == "serial"  # nothing vectorized yet

    def test_dispatch_is_per_run_not_sticky(self):
        table = jittered_table()
        backend = VectorizedTrialBackend()
        backend.run(_square_trial, {"base": 7}, 4)  # declined
        estimator = WeightPerturbationStability(
            table, SCORER, "name", trials=6, seed=5, backend=backend
        )
        serial = WeightPerturbationStability(table, SCORER, "name", trials=6, seed=5)
        assert estimator.assess_at(0.1) == serial.assess_at(0.1)
        assert backend.kernel_runs == 1  # the decline did not stick
        assert backend.effective_name == "vectorized"

    def test_estimators_identical_on_vectorized_backend(self):
        table = jittered_table()
        backend = VectorizedTrialBackend()
        serial = WeightPerturbationStability(table, SCORER, "name", trials=8, seed=5)
        vectorized = WeightPerturbationStability(
            table, SCORER, "name", trials=8, seed=5, backend=backend
        )
        for epsilon in (0.0, 0.05, 0.3):
            assert serial.assess_at(epsilon) == vectorized.assess_at(epsilon)
        serial_u = DataUncertaintyStability(table, SCORER, "name", trials=8, seed=5)
        vectorized_u = DataUncertaintyStability(
            table, SCORER, "name", trials=8, seed=5, backend=backend
        )
        for epsilon in (0.0, 0.1, 0.5):
            assert serial_u.assess_at(epsilon) == vectorized_u.assess_at(epsilon)
        assert per_attribute_stability(
            table, SCORER, "name", trials=6, iterations=3, seed=5
        ) == per_attribute_stability(
            table, SCORER, "name", trials=6, iterations=3, seed=5, backend=backend
        )
        assert backend.scalar_runs == 0

    def test_vectorized_labels_byte_identical_to_serial(self):
        """The acceptance criterion, end to end through the service."""
        table = TestServiceIntegration.mc_table()
        design = TestServiceIntegration.DESIGN
        serial = design.builder_for(table, dataset_name="mc").build()
        with LabelService(use_cache=False, trial_backend="vectorized") as svc:
            outcome = svc.build_label(table, design, "mc")
            executor = svc.stats()["executor"]
        assert render_json(outcome.facts.label) == render_json(serial.label)
        assert executor["trial_backend"] == "vectorized"
        assert executor["trial_backend_effective"] == "vectorized"
        assert executor["trial_kernel_runs"] > 0
        assert executor["trial_scalar_fallbacks"] == 0
        # batched, not worker-parallel: must not read as a pool
        assert executor["parallel_trials"] is False

    def test_stats_surface_kernel_fallback_reason(self):
        with LabelService(trial_backend="vectorized") as svc:
            backend = svc.executor.trial_backend()
            backend.run(_square_trial, {"base": 0}, 2)
            executor = svc.stats()["executor"]
        assert executor["trial_backend_effective"] == "serial"
        assert "no vectorized kernel" in executor["trial_backend_fallback"]
        assert executor["trial_scalar_fallbacks"] == 1

    def test_backend_does_not_change_the_cache_key(self):
        table = TestServiceIntegration.mc_table()
        design = TestServiceIntegration.DESIGN
        with LabelService(trial_backend="serial") as svc:
            a = svc.build_label(table, design, "mc")
        with LabelService(trial_backend="vectorized") as svc:
            b = svc.build_label(table, design, "mc")
        assert a.fingerprint == b.fingerprint

    def test_shutdown_is_a_no_op(self):
        backend = VectorizedTrialBackend()
        backend.shutdown()  # nothing to release, must not raise
        assert backend.run(_square_trial, {"base": 1}, 2) == [1, 2]
