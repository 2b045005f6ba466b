"""Tests for repro.store.store: round trips, GC, provenance, prefixes."""

import pickle

import pytest

from repro.errors import StoreError
from repro.store.provenance import LabelProvenance
from repro.store.store import PICKLE_PROTOCOL, LabelStore


def fp(seed: str) -> str:
    """A distinct, plausible 64-hex fingerprint."""
    return (seed * 64)[:64]


def provenance_for(fingerprint: str, dataset: str = "unit-test") -> LabelProvenance:
    return LabelProvenance(
        fingerprint=fingerprint,
        table_fingerprint=fp("a"),
        design_fingerprint=fp("b"),
        dataset_name=dataset,
        design={"weights": [["x", 1.0]], "k": 10},
        trial_backend_requested="vectorized",
        trial_backend_effective="vectorized",
        monte_carlo_trials=25,
        epsilon_count=3,
        build_seconds=0.125,
        engine_version="1.2.0",
        created_at=1_700_000_000.0,
    )


class FakeClock:
    def __init__(self, now: float = 1_000.0):
        self.now = now

    def __call__(self) -> float:
        return self.now

    def advance(self, seconds: float) -> None:
        self.now += seconds


@pytest.fixture()
def store(tmp_path):
    with LabelStore(tmp_path / "labels.db") as open_store:
        yield open_store


class TestRoundTrip:
    def test_put_get(self, store):
        value = {"label": ["complex", ("nested", 1.5)], "n": 42}
        store.put(fp("1"), value)
        assert store.get(fp("1")) == value

    def test_miss_is_none_not_an_error(self, store):
        assert store.get(fp("9")) is None
        assert store.get_bytes(fp("9")) is None
        assert fp("9") not in store

    def test_payload_bytes_are_the_exact_pickle(self, store):
        value = {"widgets": [1, 2, 3], "verdict": "fair"}
        store.put(fp("2"), value)
        stored = store.get_bytes(fp("2"))
        assert stored == pickle.dumps(value, protocol=PICKLE_PROTOCOL)
        # round trip is the identity on bytes
        assert pickle.dumps(pickle.loads(stored), protocol=PICKLE_PROTOCOL) == stored

    def test_overwrite_same_fingerprint(self, store):
        store.put(fp("3"), "old")
        store.put(fp("3"), "new")
        assert store.get(fp("3")) == "new"
        assert len(store) == 1

    def test_contains_and_len(self, store):
        store.put(fp("4"), 1)
        store.put(fp("5"), 2)
        assert fp("4") in store
        assert len(store) == 2

    def test_invalidate(self, store):
        store.put(fp("6"), 1)
        assert store.invalidate(fp("6")) is True
        assert store.invalidate(fp("6")) is False
        assert store.get(fp("6")) is None

    def test_unpicklable_value_raises(self, store):
        with pytest.raises(StoreError, match="not picklable"):
            store.put(fp("7"), lambda: None)


class TestAccounting:
    def test_reads_bump_hits_and_last_access(self, tmp_path):
        clock = FakeClock()
        with LabelStore(tmp_path / "s.db", clock=clock) as store:
            store.put(fp("1"), "v")
            clock.advance(10)
            record = store.get_record(fp("1"))
            assert record.hits == 1
            assert record.last_access == clock.now
            assert record.created_at == clock.now - 10

    def test_stats_counters(self, store):
        store.put(fp("1"), "v")
        store.get(fp("1"))
        store.get(fp("2"))
        stats = store.stats()
        assert stats["labels"] == 1
        assert stats["puts"] == 1
        assert (stats["hits"], stats["misses"]) == (1, 1)
        assert stats["bytes"] > 0

    def test_records_listing_newest_first(self, tmp_path):
        clock = FakeClock()
        with LabelStore(tmp_path / "s.db", clock=clock) as store:
            store.put(fp("1"), "old", provenance_for(fp("1"), dataset="first"))
            clock.advance(5)
            store.put(fp("2"), "new", provenance_for(fp("2"), dataset="second"))
            records = store.records()
            assert [r["dataset_name"] for r in records] == ["second", "first"]
            assert records[0]["fingerprint"] == fp("2")


class TestTTLAndGC:
    def test_expired_label_reads_as_miss(self, tmp_path):
        clock = FakeClock()
        with LabelStore(tmp_path / "s.db", ttl=60, clock=clock) as store:
            store.put(fp("1"), "v")
            clock.advance(61)
            assert store.get(fp("1")) is None
            assert store.stats()["expirations"] == 1
            assert len(store) == 0  # dropped, not just hidden

    def test_gc_ttl_drops_only_old_labels(self, tmp_path):
        clock = FakeClock()
        with LabelStore(tmp_path / "s.db", clock=clock) as store:
            store.put(fp("1"), "old")
            clock.advance(100)
            store.put(fp("2"), "fresh")
            removed = store.gc(ttl=50)
            assert removed == {
                "expired": 1, "evicted": 0,
                "trace_expired": 0, "trace_evicted": 0,
                "profile_expired": 0, "profile_evicted": 0,
            }
            assert store.get(fp("2")) == "fresh"
            assert fp("1") not in store

    def test_gc_max_bytes_evicts_least_recently_accessed(self, tmp_path):
        clock = FakeClock()
        with LabelStore(tmp_path / "s.db", clock=clock) as store:
            store.put(fp("1"), "a" * 100)
            clock.advance(1)
            store.put(fp("2"), "b" * 100)
            clock.advance(1)
            store.get(fp("1"))  # 1 is now more recently accessed than 2
            clock.advance(1)
            store.put(fp("3"), "c" * 100)
            one_size = len(pickle.dumps("a" * 100, protocol=PICKLE_PROTOCOL))
            removed = store.gc(max_bytes=2 * one_size)
            assert removed["evicted"] == 1
            assert fp("2") not in store  # the LRU victim
            assert fp("1") in store and fp("3") in store

    def test_insert_time_gc_with_configured_budget(self, tmp_path):
        clock = FakeClock()
        one_size = len(pickle.dumps("x" * 100, protocol=PICKLE_PROTOCOL))
        with LabelStore(
            tmp_path / "s.db", max_bytes=2 * one_size, clock=clock
        ) as store:
            for index, seed in enumerate("123"):
                clock.advance(1)
                store.put(fp(seed), "x" * 100)
            assert len(store) == 2
            assert fp("1") not in store
            assert store.stats()["evictions"] == 1

    def test_oversized_label_still_persists_once(self, tmp_path):
        with LabelStore(tmp_path / "s.db", max_bytes=10) as store:
            store.put(fp("1"), "way more than ten bytes of label")
            assert fp("1") in store  # never evict the newest label

    def test_bad_bounds_rejected(self, tmp_path):
        with pytest.raises(StoreError, match="max_bytes"):
            LabelStore(tmp_path / "a.db", max_bytes=0)
        with pytest.raises(StoreError, match="ttl"):
            LabelStore(tmp_path / "b.db", ttl=0)


class TestProvenance:
    def test_round_trip(self, store):
        record = provenance_for(fp("1"))
        store.put(fp("1"), "label", record)
        assert store.provenance(fp("1")) == record

    def test_missing_provenance_is_none(self, store):
        store.put(fp("1"), "label")  # no provenance attached
        assert store.provenance(fp("1")) is None

    def test_provenance_deleted_with_label(self, store):
        store.put(fp("1"), "label", provenance_for(fp("1")))
        store.invalidate(fp("1"))
        assert store.provenance(fp("1")) is None

    def test_as_dict_from_mapping_round_trip(self):
        record = provenance_for(fp("1"))
        assert LabelProvenance.from_mapping(record.as_dict()) == record


class TestPrefixes:
    def test_unique_prefix_resolves(self, store):
        store.put(fp("a"), 1)
        store.put(fp("b"), 2)
        assert store.resolve_prefix(fp("a")[:8]) == fp("a")

    def test_ambiguous_prefix_rejected(self, store):
        store.put("aa" + fp("1")[2:], 1)
        store.put("ab" + fp("2")[2:], 2)
        with pytest.raises(StoreError, match="ambiguous") as excinfo:
            store.resolve_prefix("a")
        assert sorted(excinfo.value.matches) == [
            "aa" + fp("1")[2:], "ab" + fp("2")[2:],
        ]

    def test_unknown_prefix_rejected(self, store):
        with pytest.raises(StoreError, match="no stored label"):
            store.resolve_prefix("feed")

    def test_empty_prefix_rejected(self, store):
        with pytest.raises(StoreError, match="empty"):
            store.resolve_prefix("")

    def test_wildcard_prefix_rejected_not_sanitized(self, store):
        # '%' must never silently resolve to an arbitrary label
        store.put(fp("a"), 1)
        for bad in ("%", "a%", "_", "ab_cd", "zz"):
            with pytest.raises(StoreError, match="not hex"):
                store.resolve_prefix(bad)


class TestCorruptPayloads:
    def test_undecodable_payload_is_a_miss_not_an_error(self, store):
        store.put(fp("1"), {"good": "label"})
        # simulate disk corruption / an unpicklable-for-us payload
        store._connection.execute(
            "UPDATE labels SET payload = ? WHERE fingerprint = ?",
            (b"\x80\x05 this is not a pickle", fp("1")),
        )
        store._connection.commit()
        assert store.get(fp("1")) is None  # degrades, never raises
        assert store.stats()["decode_failures"] == 1
        # the corrupt row was dropped, so a rebuild can overwrite it
        assert fp("1") not in store
        store.put(fp("1"), {"rebuilt": True})
        assert store.get(fp("1")) == {"rebuilt": True}
