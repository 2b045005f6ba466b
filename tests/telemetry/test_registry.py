"""Tests for repro.telemetry.registry: metric families and merged_stats."""

import threading

import pytest

from repro.errors import TelemetryError
from repro.telemetry import (
    MetricsRegistry,
    get_default_registry,
    merged_stats,
    set_default_registry,
)


class TestCounter:
    def test_increment_and_read(self):
        registry = MetricsRegistry()
        counter = registry.counter("requests_total", "requests")
        counter.inc()
        counter.inc(2)
        assert counter.value() == 3

    def test_series_are_keyed_by_tags(self):
        registry = MetricsRegistry()
        counter = registry.counter("hits_total", "hits", tag_names=("tier",))
        counter.inc(tier="l1")
        counter.inc(tier="l1")
        counter.inc(tier="l2")
        assert counter.value(tier="l1") == 2
        assert counter.value(tier="l2") == 1

    def test_undeclared_tag_is_rejected(self):
        registry = MetricsRegistry()
        counter = registry.counter("hits_total", "hits", tag_names=("tier",))
        with pytest.raises(TelemetryError):
            counter.inc(level="l1")

    def test_missing_tag_is_rejected(self):
        registry = MetricsRegistry()
        counter = registry.counter("hits_total", "hits", tag_names=("tier",))
        with pytest.raises(TelemetryError):
            counter.inc()

    def test_negative_increment_is_rejected(self):
        registry = MetricsRegistry()
        counter = registry.counter("hits_total", "hits")
        with pytest.raises(TelemetryError):
            counter.inc(-1)

    def test_concurrent_increments_do_not_lose_counts(self):
        registry = MetricsRegistry()
        counter = registry.counter("spins_total", "spins", tag_names=("who",))
        rounds, workers = 2000, 8

        def spin(who: str) -> None:
            for _ in range(rounds):
                counter.inc(who=who)

        threads = [
            threading.Thread(target=spin, args=(f"t{i % 2}",))
            for i in range(workers)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert counter.value(who="t0") == rounds * workers / 2
        assert counter.value(who="t1") == rounds * workers / 2


class TestGauge:
    def test_set_inc_dec(self):
        registry = MetricsRegistry()
        gauge = registry.gauge("inflight", "inflight")
        gauge.set(5)
        gauge.inc()
        gauge.dec(2)
        assert gauge.value() == 4


class TestHistogram:
    def test_value_on_bucket_edge_lands_in_that_bucket(self):
        # Prometheus `le` is <=: an observation exactly on a bound
        # belongs to that bound's bucket
        registry = MetricsRegistry()
        histogram = registry.histogram("lat", "lat", buckets=(0.1, 1.0, 10.0))
        histogram.observe(0.1)
        snapshot = histogram.snapshot_series()
        assert snapshot["counts"] == [1, 0, 0, 0]

    def test_observation_past_every_bound_is_overflow(self):
        registry = MetricsRegistry()
        histogram = registry.histogram("lat", "lat", buckets=(0.1, 1.0))
        histogram.observe(5.0)
        snapshot = histogram.snapshot_series()
        assert snapshot["counts"] == [0, 0, 1]
        assert snapshot["sum"] == 5.0
        assert snapshot["count"] == 1

    def test_interior_values_bucket_correctly(self):
        registry = MetricsRegistry()
        histogram = registry.histogram("lat", "lat", buckets=(0.1, 1.0, 10.0))
        for value in (0.05, 0.5, 0.5, 2.0):
            histogram.observe(value)
        snapshot = histogram.snapshot_series()
        assert snapshot["counts"] == [1, 2, 1, 0]
        assert snapshot["count"] == 4

    def test_unsorted_buckets_are_rejected(self):
        registry = MetricsRegistry()
        with pytest.raises(TelemetryError):
            registry.histogram("lat", "lat", buckets=(1.0, 0.1))


class TestCount:
    """``count()``: the events a family holds, summed over matching series."""

    def test_counter_sums_the_series_a_tag_subset_selects(self):
        counter = MetricsRegistry().counter(
            "events_total", tag_names=("kind", "where")
        )
        counter.inc(kind="a", where="x")
        counter.inc(2, kind="a", where="y")
        counter.inc(kind="b", where="x")
        assert counter.count() == 4
        assert counter.count(kind="a") == 3
        assert counter.count(kind="a", where="y") == 2
        assert counter.count(kind="never") == 0
        assert type(counter.count()) is int

    def test_histogram_counts_observations_not_their_sum(self):
        histogram = MetricsRegistry().histogram(
            "work_seconds", tag_names=("outcome",)
        )
        for value in (0.5, 2.0, 7.0):
            histogram.observe(value, outcome="ok")
        histogram.observe(0.1, outcome="failed")
        assert histogram.count(outcome="ok") == 3
        assert histogram.count() == 4
        assert histogram.count(outcome="timeout") == 0

    def test_an_undeclared_tag_is_rejected(self):
        counter = MetricsRegistry().counter("events_total", tag_names=("kind",))
        with pytest.raises(TelemetryError, match="no tags"):
            counter.count(knid="a")


class TestRegistry:
    def test_get_or_register_is_idempotent(self):
        registry = MetricsRegistry()
        first = registry.counter("a_total", "a")
        second = registry.counter("a_total", "a")
        assert first is second

    def test_kind_mismatch_is_rejected(self):
        registry = MetricsRegistry()
        registry.counter("a_total", "a")
        with pytest.raises(TelemetryError):
            registry.gauge("a_total", "a")

    def test_tag_mismatch_is_rejected(self):
        registry = MetricsRegistry()
        registry.counter("a_total", "a", tag_names=("x",))
        with pytest.raises(TelemetryError):
            registry.counter("a_total", "a", tag_names=("y",))

    def test_snapshot_is_json_safe(self):
        import json

        registry = MetricsRegistry()
        registry.counter("c_total", "c", tag_names=("t",)).inc(t="x")
        registry.histogram("h", "h", buckets=(1.0,)).observe(0.5)
        snapshot = registry.snapshot()
        json.dumps(snapshot)  # must not raise
        assert snapshot["c_total"] == {
            "kind": "counter",
            "series": [{"tags": {"t": "x"}, "value": 1.0}],
        }
        assert snapshot["h"] == {
            "kind": "histogram",
            "series": [{"tags": {}, "count": 1, "sum": 0.5}],
        }

    def test_default_registry_is_swappable(self):
        original = get_default_registry()
        replacement = MetricsRegistry()
        try:
            set_default_registry(replacement)
            assert get_default_registry() is replacement
        finally:
            set_default_registry(original)


class TestMergedStats:
    def test_merges_base_and_sections(self):
        merged = merged_stats(
            {"a": 1},
            section={"b": 2},
            callable_section=lambda: {"c": 3},
        )
        assert merged == {
            "a": 1, "section": {"b": 2}, "callable_section": {"c": 3}
        }

    def test_callable_base(self):
        assert merged_stats(lambda: {"a": 1}) == {"a": 1}

    def test_none_sections_are_skipped(self):
        assert merged_stats({"a": 1}, gone=None, also_gone=lambda: None) == {
            "a": 1
        }

    def test_non_mapping_sections_pass_through(self):
        merged = merged_stats({}, workers=[{"address": "x"}])
        assert merged == {"workers": [{"address": "x"}]}
