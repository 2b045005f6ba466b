"""Tests for repro.cluster.worker: the trial-daemon's HTTP contract."""

import argparse
import json
import struct
import urllib.error
import urllib.request

import pytest

from repro.cluster import wire
from repro.cluster.worker import TrialWorker, add_worker_arguments, make_worker
from repro.engine.backends import VectorizedTrialBackend
from repro.errors import ClusterError
from tests.cluster.test_wire import square
from tests.oracles import OracleTrialBackend


def _get_json(url):
    with urllib.request.urlopen(url, timeout=10) as response:
        return response.status, json.loads(response.read())


def _post_trials(url, data):
    request = urllib.request.Request(
        url + "/trials",
        data=data,
        headers={"Content-Type": "application/octet-stream"},
        method="POST",
    )
    with urllib.request.urlopen(request, timeout=10) as response:
        return response.status, response.read()


def _chunk_request(start, stop, payload=None):
    body = wire.encode_trial_work(square, payload or {"base": 3})
    return wire.encode_request(body, start, stop)


class TestTrialWorkerCore:
    def test_run_chunk_executes_the_span_at_absolute_indices(self):
        worker = TrialWorker()
        response = worker.run_chunk(_chunk_request(3, 7))
        assert wire.decode_response(response, 3, 7) == [12, 19, 28, 39]

    def test_bad_frame_counts_as_rejected(self):
        worker = TrialWorker()
        with pytest.raises(ClusterError):
            worker.run_chunk(b"garbage")
        assert worker.stats()["rejected_frames"] == 1
        assert worker.stats()["chunks"] == 0

    def test_trial_error_counts_and_propagates(self):
        from tests.cluster.conftest import boom_trial

        worker = TrialWorker()
        body = wire.encode_trial_work(boom_trial, {})
        with pytest.raises(ValueError, match="bad trial"):
            worker.run_chunk(wire.encode_request(body, 0, 2))
        assert worker.stats()["trial_errors"] == 1

    def test_v1_frame_is_refused_and_counted(self):
        """A v1 peer ships per-trial functions: refuse, never run them."""
        data = bytearray(_chunk_request(0, 4))
        data[4:6] = struct.pack(">H", 1)
        worker = TrialWorker()
        with pytest.raises(ClusterError, match="frame is v1"):
            worker.run_chunk(bytes(data))
        assert worker.stats()["rejected_frames"] == 1
        assert worker.stats()["trials"] == 0

    def test_remote_backend_is_refused(self):
        # a worker relaying to more workers would recurse; no worker
        # option chooses a backend at all: chunks run vectorized
        parser = argparse.ArgumentParser()
        add_worker_arguments(parser)
        with pytest.raises(SystemExit):
            parser.parse_args(["--backend", "remote"])
        assert TrialWorker().health()["backend"] == "vectorized"

    def test_health_reports_protocol_and_backend(self):
        worker = TrialWorker()
        health = worker.health()
        assert health["status"] == "ok"
        assert health["protocol"] == wire.PROTOCOL_VERSION
        assert health["backend"] == "vectorized"


class TestWorkerHTTP:
    def test_healthz_and_stats(self):
        with make_worker() as handle:
            status, health = _get_json(handle.url + "/healthz")
            assert status == 200
            assert health["protocol"] == wire.PROTOCOL_VERSION
            status, stats = _get_json(handle.url + "/stats")
            assert status == 200
            assert stats["chunks"] == 0

    def test_trials_roundtrip_over_http(self):
        with make_worker() as handle:
            status, raw = _post_trials(handle.url, _chunk_request(2, 6))
            assert status == 200
            assert wire.decode_response(raw, 2, 6) == square({"base": 3}, 4, 2)
            _, stats = _get_json(handle.url + "/stats")
            assert stats["chunks"] == 1
            assert stats["trials"] == 4

    def test_bad_frame_is_http_400(self):
        with make_worker() as handle:
            with pytest.raises(urllib.error.HTTPError) as excinfo:
                _post_trials(handle.url, b"not a frame")
            assert excinfo.value.code == 400

    def test_trial_fault_is_http_500(self):
        from tests.cluster.conftest import boom_trial

        with make_worker() as handle:
            body = wire.encode_trial_work(boom_trial, {})
            with pytest.raises(urllib.error.HTTPError) as excinfo:
                _post_trials(handle.url, wire.encode_request(body, 0, 2))
            assert excinfo.value.code == 500

    def test_unknown_paths_are_404(self):
        with make_worker() as handle:
            with pytest.raises(urllib.error.HTTPError) as excinfo:
                _get_json(handle.url + "/nope")
            assert excinfo.value.code == 404

    def test_draining_worker_answers_healthz_503(self):
        with make_worker() as handle:
            status, _ = _get_json(handle.url + "/healthz")
            assert status == 200
            # shutdown begins: probes must see "leaving", not a socket
            # error — coordinators stop scheduling before requests fail
            handle.worker.begin_drain()
            with pytest.raises(urllib.error.HTTPError) as excinfo:
                _get_json(handle.url + "/healthz")
            assert excinfo.value.code == 503
            body = json.loads(excinfo.value.read())
            assert body["status"] == "draining"
            # chunks in flight still complete: /trials keeps working
            status, raw = _post_trials(handle.url, _chunk_request(0, 4))
            assert status == 200
            _, stats = _get_json(handle.url + "/stats")
            assert stats["draining"] is True

    def test_drain_state_in_health_document(self):
        worker = TrialWorker()
        assert worker.health()["status"] == "ok"
        assert worker.draining is False
        worker.begin_drain()
        assert worker.draining is True
        assert worker.health()["status"] == "draining"


class TestRunTrialSpan:
    """``run_span``: how every worker chunk and local recovery runs."""

    def test_span_matches_the_full_run_slice(self):
        full = [3 + t * t for t in range(12)]
        for backend in (VectorizedTrialBackend(), OracleTrialBackend()):
            assert backend.run_span(square, {"base": 3}, 0, 12) == full
            assert backend.run_span(square, {"base": 3}, 5, 9) == full[5:9]
            assert backend.run_span(square, {"base": 3}, 11, 12) == full[11:]

    def test_empty_span_is_empty(self):
        for backend in (VectorizedTrialBackend(), OracleTrialBackend()):
            assert backend.run_span(square, {"base": 3}, 4, 4) == []

    def test_vectorized_span_uses_absolute_rng_streams(self):
        import numpy as np

        from repro.ranking import LinearScoringFunction
        from repro.stability import WeightPerturbationStability
        from repro.tabular import Table

        rng = np.random.default_rng(11)
        table = Table.from_dict(
            {
                "name": [f"i{j}" for j in range(30)],
                "a": rng.normal(0, 1, 30) * 0.01 + 1.0,
                "b": rng.normal(0, 1, 30) * 0.01 + 1.0,
            }
        )
        scorer = LinearScoringFunction({"a": 0.5, "b": 0.5})
        estimator = WeightPerturbationStability(
            table, scorer, "name", trials=10, seed=5
        )
        payload = estimator._payload_at(0.1)
        from repro.stability.kernels import run_perturbation_kernel
        from tests.oracles import _perturbation_trial

        serial = [_perturbation_trial(payload, t) for t in range(10)]
        backend = VectorizedTrialBackend()
        assert backend.run_span(run_perturbation_kernel, payload, 3, 8) == serial[3:8]
        assert backend.kernel_runs == 1
