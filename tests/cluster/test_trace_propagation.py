"""End-to-end trace propagation: one trace id from coordinator to worker.

The acceptance bar for the telemetry wiring: a label build running
against the remote backend must produce coordinator *and* worker log
lines (and worker stats) that all carry the originating request's
trace id — the id travels inside the wire frame, not out of band.
"""

import io
import json
import logging
import urllib.request

import pytest

from repro.cluster.coordinator import RemoteTrialBackend
from repro.telemetry import (
    MetricsRegistry,
    TraceBuffer,
    configure_logging,
    new_trace_id,
    span,
)


def plus(payload, trials, start):
    return [payload["base"] + t for t in range(start, start + trials)]


@pytest.fixture()
def restored_logging():
    logger = logging.getLogger("repro")
    handlers = list(logger.handlers)
    level = logger.level
    propagate = logger.propagate
    yield
    logger.handlers[:] = handlers
    logger.setLevel(level)
    logger.propagate = propagate


def run_traced(worker_pair, trace, trials=8):
    one, two = worker_pair
    backend = RemoteTrialBackend(
        [one.address, two.address], timeout=15, probe_timeout=2
    )
    try:
        with span(
            "test.build",
            trace_id=trace,
            registry=MetricsRegistry(),
            buffer=TraceBuffer(),
        ):
            return backend.run(plus, {"base": 10}, trials)
    finally:
        backend.shutdown()


class TestTracePropagation:
    def test_workers_adopt_the_coordinators_trace_id(self, worker_pair):
        trace = new_trace_id()
        results = run_traced(worker_pair, trace)
        assert results == [10 + trial for trial in range(8)]
        seen = {handle.worker._last_trace_id for handle in worker_pair}
        seen.discard(None)  # a worker that received no chunk has no trace
        assert seen == {trace}

    def test_worker_stats_expose_uptime_and_the_last_trace(self, worker_pair):
        trace = new_trace_id()
        run_traced(worker_pair, trace)
        last_traces = []
        for handle in worker_pair:
            with urllib.request.urlopen(
                handle.url + "/stats", timeout=5
            ) as response:
                stats = json.loads(response.read())
            assert stats["uptime_seconds"] >= 0
            if stats["last_trace_id"] is not None:
                last_traces.append(stats["last_trace_id"])
        assert last_traces and set(last_traces) == {trace}

    def test_coordinator_and_worker_log_lines_share_one_trace_id(
        self, worker_pair, restored_logging
    ):
        stream = io.StringIO()
        configure_logging("info", stream)
        trace = new_trace_id()
        run_traced(worker_pair, trace)
        entries = [
            json.loads(line) for line in stream.getvalue().splitlines()
        ]
        coordinator_lines = [
            entry
            for entry in entries
            if entry["logger"] == "repro.cluster.coordinator"
            and "completed" in entry["message"]
        ]
        worker_lines = [
            entry
            for entry in entries
            if entry["logger"] == "repro.cluster.worker"
            and "executed chunk" in entry["message"]
        ]
        assert coordinator_lines, "coordinator logged no completed chunks"
        assert worker_lines, "worker logged no executed chunks"
        shared = {
            entry["trace_id"] for entry in coordinator_lines + worker_lines
        }
        assert shared == {trace}
