"""Span backhaul: worker spans ride the chunk response into one trace.

The tentpole acceptance path: a traced remote build must assemble a
single trace holding the coordinator's dispatch/attempt spans *and*
the workers' chunk spans (revived from the wire, tagged with the
worker's address), with retries and failovers visible as sibling
attempt spans carrying a failure class.
"""

import pytest

from repro.cluster import wire
from repro.cluster.coordinator import RemoteTrialBackend
from repro.cluster.worker import TrialWorker
from repro.telemetry import (
    MetricsRegistry,
    TraceBuffer,
    get_trace_buffer,
    new_trace_id,
    span,
)
from tests.cluster.faults import faulty_worker


def plus(payload, trials, start):
    return [payload["base"] + t for t in range(start, start + trials)]


def span_dict(name="worker.chunk", **overrides):
    entry = {
        "name": name,
        "trace_id": "ab" * 16,
        "span_id": "cd" * 8,
        "parent_id": None,
        "started_at": 1.0,
        "duration": 0.5,
        "status": "ok",
    }
    entry.update(overrides)
    return entry


class TestWireMinorTwo:
    def test_response_with_spans_roundtrips(self):
        spans = [span_dict(), span_dict(name="store.get", span_id="ef" * 8)]
        data = wire.encode_response([1, 2, 3], 0, 3, "ab" * 16, spans=spans)
        results, decoded = wire.decode_response_spans(data, 0, 3)
        assert results == [1, 2, 3]
        assert [entry["name"] for entry in decoded] == [
            "worker.chunk", "store.get",
        ]

    def test_spanless_response_body_stays_a_bare_list(self):
        import pickle

        data = wire.encode_response([1], 0, 1, "ab" * 16)
        body, *_ = wire.unframe(data)
        assert isinstance(pickle.loads(body), list)  # minor <= 1 shape
        results, decoded = wire.decode_response_spans(data, 0, 1)
        assert (results, decoded) == ([1], [])

    def test_old_decoder_reads_a_span_bearing_response(self):
        data = wire.encode_response([7], 0, 1, "ab" * 16, spans=[span_dict()])
        assert wire.decode_response(data, 0, 1) == [7]

    def test_span_count_is_capped_at_the_wire(self):
        spans = [span_dict() for _ in range(wire.MAX_RESPONSE_SPANS + 50)]
        data = wire.encode_response([1], 0, 1, "ab" * 16, spans=spans)
        _, decoded = wire.decode_response_spans(data, 0, 1)
        assert len(decoded) == wire.MAX_RESPONSE_SPANS

    def test_non_dict_span_entries_are_dropped(self):
        data = wire.encode_response(
            [1], 0, 1, "ab" * 16, spans=[span_dict(), "junk", 42]
        )
        _, decoded = wire.decode_response_spans(data, 0, 1)
        assert len(decoded) == 1

    def test_result_count_still_validated_with_spans(self):
        data = wire.encode_response([1, 2], 0, 3, "ab" * 16, spans=[span_dict()])
        with pytest.raises(Exception, match="2 results"):
            wire.decode_response_spans(data, 0, 3)


class TestWorkerBackhaul:
    def request(self, trace_id, start=0, stop=4):
        body = wire.encode_trial_work(plus, {"base": 10})
        return wire.encode_request(body, start, stop, trace_id)

    def test_traced_chunk_backhauls_its_span(self):
        worker = TrialWorker(registry=MetricsRegistry())
        trace = new_trace_id()
        response = worker.run_chunk(self.request(trace))
        results, spans = wire.decode_response_spans(response, 0, 4)
        assert results == [10, 11, 12, 13]
        assert spans, "traced chunk returned no spans"
        [chunk_span] = [s for s in spans if s["name"] == "worker.chunk"]
        assert chunk_span["trace_id"] == trace
        assert chunk_span["status"] == "ok"
        assert worker.stats()["backhauled_spans"] == len(spans)

    def test_untraced_chunk_backhauls_nothing(self):
        worker = TrialWorker(registry=MetricsRegistry())
        response = worker.run_chunk(self.request(None))
        _, spans = wire.decode_response_spans(response, 0, 4)
        assert spans == []
        assert worker.stats()["backhauled_spans"] == 0

    def test_backhaul_can_be_disabled(self):
        worker = TrialWorker(registry=MetricsRegistry(), span_backhaul=False)
        response = worker.run_chunk(self.request(new_trace_id()))
        _, spans = wire.decode_response_spans(response, 0, 4)
        assert spans == []

    def test_backhauled_spans_stay_out_of_the_process_ring(self):
        ring = get_trace_buffer()
        before = ring.completed
        worker = TrialWorker(registry=MetricsRegistry())
        worker.run_chunk(self.request(new_trace_id()))
        # the chunk's spans went into the capture, not the shared ring —
        # a parentless worker.chunk there would finalize traces early
        # when the worker runs in-process with a collector installed
        assert ring.completed == before


def collect_trace(trace):
    """A remove-me listener capturing the default ring's spans for ``trace``."""
    collected = []

    def listener(entry):
        if entry.trace_id == trace:
            collected.append(entry)

    get_trace_buffer().add_listener(listener)
    return collected, listener


class TestEndToEndTraceAssembly:
    def test_one_trace_holds_spans_from_both_workers(self, worker_pair):
        one, two = worker_pair
        trace = new_trace_id()
        collected, listener = collect_trace(trace)
        backend = RemoteTrialBackend(
            [one.address, two.address], timeout=15, probe_timeout=2,
            chunk_size=1,
        )
        try:
            with span(
                "test.build", trace_id=trace,
                registry=MetricsRegistry(), buffer=TraceBuffer(),
            ):
                results = backend.run(plus, {"base": 10}, 8)
        finally:
            backend.shutdown()
            get_trace_buffer().remove_listener(listener)
        assert results == [10 + trial for trial in range(8)]

        by_name = {}
        for entry in collected:
            by_name.setdefault(entry.name, []).append(entry)
        assert "cluster.dispatch" in by_name
        attempts = by_name.get("cluster.chunk", [])
        revived = by_name.get("worker.chunk", [])
        assert len(attempts) == 8
        assert len(revived) == 8

        # the cross-process tree connects: every revived worker span is
        # parented under one of this trace's attempt spans
        attempt_ids = {entry.span_id for entry in attempts}
        assert all(entry.parent_id in attempt_ids for entry in revived)

        # and the chunks really ran on both daemons
        workers_used = {entry.tags["worker"] for entry in revived}
        assert workers_used == {one.address, two.address}

    def test_failover_leaves_sibling_attempt_spans(self):
        trace = new_trace_id()
        with faulty_worker() as bad_address:
            from repro.cluster.worker import make_worker

            with make_worker() as good:
                collected, listener = collect_trace(trace)
                backend = RemoteTrialBackend(
                    [bad_address, good.address], timeout=15, probe_timeout=2
                )
                try:
                    with span(
                        "test.build", trace_id=trace,
                        registry=MetricsRegistry(), buffer=TraceBuffer(),
                    ):
                        results = backend.run(plus, {"base": 0}, 6)
                finally:
                    backend.shutdown()
                    get_trace_buffer().remove_listener(listener)
        assert results == list(range(6))
        attempts = [e for e in collected if e.name == "cluster.chunk"]
        failed = [e for e in attempts if e.status == "error"]
        succeeded = [e for e in attempts if e.tags.get("outcome") == "ok"]
        assert failed, "the faulty worker's attempt left no error span"
        assert all("failure_class" in e.tags for e in failed)
        assert succeeded, "no successful attempt span after failover"
        # retries are siblings: same parent, distinct span ids
        parents = {e.parent_id for e in attempts}
        assert len(parents) >= 1
        assert len({e.span_id for e in attempts}) == len(attempts)
