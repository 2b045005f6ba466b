"""B9: span-backhaul overhead on the worker chunk path.

The tentpole's perf bar: serializing a traced chunk's spans into the
response frame (wire minor 2) must cost less than 5% of the chunk
path.  Measured where the cost lives — ``TrialWorker.run_chunk`` with
a propagated trace id, backhaul on vs off — over enough iterations to
drown scheduler noise.  Untraced chunks are asserted to pay nothing
structurally: their response body stays the bare minor-1 result list.
"""

import pickle
import time

from benchmarks.conftest import report
from repro.cluster import wire
from repro.cluster.worker import TrialWorker
from repro.telemetry import MetricsRegistry, new_trace_id

CHUNK_TRIALS = 64
ROUNDS = 120


def plus(payload, trials, start):
    """A zero-cost batch: the chunk path's fixed cost is all there is."""
    return [payload["base"] + t for t in range(start, start + trials)]


def timed_chunks(worker, trace_id, rounds=ROUNDS):
    body = wire.encode_trial_work(plus, {"base": 10})
    request = wire.encode_request(body, 0, CHUNK_TRIALS, trace_id)
    for _ in range(10):  # warm-up: backend dispatch, pickle caches
        worker.run_chunk(request)
    start = time.perf_counter()
    for _ in range(rounds):
        worker.run_chunk(request)
    return (time.perf_counter() - start) / rounds


def test_bench_b9_backhaul_overhead_under_five_percent():
    trace = new_trace_id()
    on = TrialWorker(registry=MetricsRegistry())
    off = TrialWorker(registry=MetricsRegistry(), span_backhaul=False)

    # interleave three measurement rounds and keep the best of each, so
    # a background hiccup in either column cannot manufacture a diff
    on_seconds = min(timed_chunks(on, trace) for _ in range(3))
    off_seconds = min(timed_chunks(off, trace) for _ in range(3))

    overhead = on_seconds / off_seconds - 1.0
    report("B9 span backhaul: traced chunk path", [
        f"{'backhaul off':<16} {off_seconds * 1e6:>9.1f} us/chunk",
        f"{'backhaul on':<16} {on_seconds * 1e6:>9.1f} us/chunk",
        f"{'overhead':<16} {overhead * 100:>8.2f} %",
    ])
    assert overhead < 0.05, (
        f"span backhaul costs {overhead * 100:.2f}% on the chunk path "
        f"(bar: 5%)"
    )


def test_bench_b9_untraced_chunks_pay_nothing_structurally():
    """No trace id -> the response body is the bare minor-1 result list."""
    worker = TrialWorker(registry=MetricsRegistry())
    body = wire.encode_trial_work(plus, {"base": 10})
    response = worker.run_chunk(
        wire.encode_request(body, 0, CHUNK_TRIALS, None)
    )
    decoded_body, *_ = wire.unframe(response)
    assert isinstance(pickle.loads(decoded_body), list)
    assert worker.stats()["backhauled_spans"] == 0
