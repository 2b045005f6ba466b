"""Tests for repro.telemetry.profiling: the sampling wall-clock profiler.

The contract under test: start/stop is idempotent and the sampler
thread only exists while someone is listening; the folded-stack table
stays bounded no matter how hot the loop; samples land under the
active span (innermost wins) so ``trace show`` can name the code a
slow span was running; and turning the profiler on never changes a
label's bytes.
"""

import sys
import threading
import time

import pytest

from repro.telemetry import span
from repro.telemetry.profiling import (
    _OVERFLOW_KEY,
    _ProfileSink,
    ProfileReport,
    SamplingProfiler,
    active_span_name,
    env_profile_enabled,
    note_span_enter,
    note_span_exit,
)


def spin(stop: threading.Event) -> None:
    """A recognizable busy loop for the sampler to catch."""
    while not stop.is_set():
        sum(i * i for i in range(2_000))


@pytest.fixture()
def busy_thread():
    stop = threading.Event()
    thread = threading.Thread(target=spin, args=(stop,), daemon=True)
    thread.start()
    yield thread
    stop.set()
    thread.join(timeout=5)


def wait_until(predicate, timeout=5.0):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(0.02)
    return predicate()


class TestWindow:
    def test_window_captures_a_busy_thread(self, busy_thread):
        profiler = SamplingProfiler()
        report = profiler.window(0.3, hz=200)
        assert report.samples > 0
        assert any("spin" in stack for stack in report.stacks)

    def test_window_excludes_its_own_calling_thread(self, busy_thread):
        # the caller blocks inside window(); its wait must not pollute
        # the capture it asked for
        report = SamplingProfiler().window(0.2, hz=200)
        assert not any(":window" in stack for stack in report.stacks)

    def test_window_clamps_pathological_parameters(self, busy_thread):
        report = SamplingProfiler().window(-1.0, hz=1e9)
        assert 0.0 < report.duration <= 1.0
        assert report.hz <= 500.0

    def test_sampler_thread_exits_when_idle(self, busy_thread):
        profiler = SamplingProfiler()
        profiler.window(0.1, hz=100)
        # no sinks left: the daemon thread must wind itself down
        assert wait_until(lambda: not profiler.running)
        assert profiler.stats()["sinks"] == 0


class TestContinuous:
    def test_start_stop_idempotency(self):
        profiler = SamplingProfiler()
        assert profiler.start_continuous(hz=50) is True
        assert profiler.start_continuous(hz=50) is False  # already on
        assert profiler.continuous
        report = profiler.stop_continuous()
        assert report is not None
        assert profiler.stop_continuous() is None  # already off
        assert wait_until(lambda: not profiler.running)

    def test_rotate_drains_without_stopping(self, busy_thread):
        profiler = SamplingProfiler()
        profiler.start_continuous(hz=100)
        try:
            assert wait_until(
                lambda: (profiler.continuous_report() or ProfileReport()).samples > 0
            )
            first = profiler.rotate_continuous()
            assert first is not None and first.samples > 0
            # still continuous: a fresh sink keeps accumulating
            assert profiler.continuous
            assert wait_until(
                lambda: (profiler.continuous_report() or ProfileReport()).samples > 0
            )
        finally:
            profiler.stop_continuous()

    def test_rotate_without_continuous_returns_none(self):
        assert SamplingProfiler().rotate_continuous() is None

    def test_stop_joins_the_sampler_thread(self):
        """No ``repro-profiler`` thread outlives a stop, twenty times over."""
        before = set(sampler_threads())
        profiler = SamplingProfiler()
        for _ in range(20):
            assert profiler.start_continuous(hz=50)
            assert profiler.stop_continuous() is not None
            assert not profiler.running
            assert set(sampler_threads()) - before == set()

    def test_window_during_continuous_keeps_the_thread(self):
        profiler = SamplingProfiler()
        profiler.start_continuous(hz=50)
        try:
            profiler.window(0.05, hz=100)
            assert profiler.running  # the continuous sink still needs it
        finally:
            profiler.stop_continuous()
        assert not profiler.running

    def test_concurrent_attach_and_detach_leave_no_thread(self):
        """Callers racing windows against start/stop: whoever detaches the
        last sink joins the sampler, and a late attach gets a new one."""
        before = set(sampler_threads())
        profiler = SamplingProfiler()
        errors = []

        def churn(index):
            try:
                for _ in range(8):
                    if index % 2:
                        profiler.window(0.05, hz=200)
                    else:
                        profiler.start_continuous(hz=200)
                        profiler.stop_continuous()
            except Exception as exc:  # reported below, not swallowed
                errors.append(exc)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            workers = [
                threading.Thread(target=churn, args=(i,), daemon=True)
                for i in range(6)
            ]
            for worker in workers:
                worker.start()
            for worker in workers:
                worker.join(timeout=30)
        finally:
            sys.setswitchinterval(interval)
        assert not any(worker.is_alive() for worker in workers)
        assert errors == []
        assert profiler.stats()["sinks"] == 0
        assert not profiler.running
        assert set(sampler_threads()) - before == set()


def sampler_threads():
    return [t for t in threading.enumerate() if t.name == "repro-profiler"]


class TestBoundedTable:
    def test_sink_folds_excess_stacks_into_overflow(self):
        sink = _ProfileSink(hz=10.0, max_stacks=4)
        for index in range(100):
            sink.add(f"mod.py:f{index}", f"mod.py:f{index}", None)
        # 4 distinct stacks + the overflow bucket; nothing unbounded
        assert len(sink.stacks) == 5
        assert sink.stacks[_OVERFLOW_KEY] == 96
        assert sink.stack_overflow == 96
        assert sink.samples == 100

    def test_hot_loop_report_stays_bounded(self, busy_thread):
        profiler = SamplingProfiler(max_stacks=8)
        report = profiler.window(0.3, hz=300)
        assert report.samples > 0
        assert len(report.stacks) <= 9  # 8 + overflow


class TestSpanAttribution:
    def test_nested_spans_attribute_to_the_innermost(self):
        stop = threading.Event()
        ready = threading.Event()

        def traced():
            with span("outer.zone"):
                with span("inner.zone"):
                    ready.set()
                    spin(stop)

        thread = threading.Thread(target=traced, daemon=True)
        thread.start()
        try:
            assert ready.wait(timeout=5)
            report = SamplingProfiler().window(0.3, hz=200)
        finally:
            stop.set()
            thread.join(timeout=5)
        assert report.span_samples.get("inner.zone", 0) > 0
        assert report.span_frames["inner.zone"]
        # the outer span was never the *active* one while sampling
        assert report.span_samples.get("outer.zone", 0) == 0
        # and the per-span view surfaces the hot frame
        top = report.span_top_frames(3)["inner.zone"]
        assert any("spin" in frame or "genexpr" in frame for frame, _ in top)

    def test_note_enter_exit_balance(self):
        tid = threading.get_ident()
        assert active_span_name(tid) is None
        note_span_enter("a")
        note_span_enter("b")
        assert active_span_name(tid) == "b"
        note_span_exit()
        assert active_span_name(tid) == "a"
        note_span_exit()
        assert active_span_name(tid) is None
        note_span_exit()  # over-exit must not raise
        assert active_span_name(tid) is None

    def test_tracing_span_drives_the_hooks(self):
        tid = threading.get_ident()
        with span("zone.one"):
            assert active_span_name(tid) == "zone.one"
        assert active_span_name(tid) is None


class TestReport:
    def test_round_trip_through_dict(self, busy_thread):
        report = SamplingProfiler().window(0.2, hz=200)
        revived = ProfileReport.from_dict(report.as_dict())
        assert revived.stacks == report.stacks
        assert revived.samples == report.samples
        assert revived.span_samples == report.span_samples
        assert revived.span_frames == report.span_frames
        assert revived.hz == report.hz

    def test_from_dict_survives_garbage(self):
        assert ProfileReport.from_dict(None).is_empty
        assert ProfileReport.from_dict({"stacks": "nope", "spans": 7}).is_empty

    def test_collapsed_format(self):
        report = ProfileReport(
            samples=3, stacks={"a.py:f;a.py:g": 2, "a.py:f": 1}
        )
        lines = report.to_collapsed().strip().splitlines()
        assert lines[0] == "a.py:f;a.py:g 2"
        assert lines[1] == "a.py:f 1"

    def test_render_empty_and_busy(self, busy_thread):
        assert "no samples" in ProfileReport().render()
        report = SamplingProfiler().window(0.2, hz=200)
        text = report.render()
        assert "top frames" in text
        assert str(report.samples) in text


class TestEnvFlag:
    def test_env_profile_enabled(self, monkeypatch):
        monkeypatch.delenv("REPRO_PROFILE", raising=False)
        assert env_profile_enabled() is False
        assert env_profile_enabled(default=True) is True
        for value in ("1", "true", "YES", "On"):
            monkeypatch.setenv("REPRO_PROFILE", value)
            assert env_profile_enabled() is True
        monkeypatch.setenv("REPRO_PROFILE", "0")
        assert env_profile_enabled() is False


class TestLabelNeutrality:
    def test_labels_are_byte_identical_with_profiling_on(self):
        from repro.app.session import DemoSession
        from repro.label.render_json import render_json

        def build() -> str:
            session = DemoSession()
            session.load_builtin("cs-departments")
            session.set_monte_carlo(20)
            session.design_scoring(
                weights={"PubCount": 0.4, "Faculty": 0.4, "GRE": 0.2},
                sensitive_attribute="DeptSizeBin",
                id_column="DeptName",
            )
            return render_json(session.generate_label().label)

        baseline = build()
        profiler = SamplingProfiler()
        profiler.start_continuous(hz=200)
        try:
            profiled = build()
        finally:
            profiler.stop_continuous()
        assert profiled == baseline
