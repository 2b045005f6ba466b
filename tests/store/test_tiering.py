"""Tests for repro.store.tiering: the L1-over-L2 routing.

The tier each call returns is what the label service counts; the
store's own ``puts``/``gets`` show what reached disk.
"""

import threading

from repro.engine.cache import LabelCache
from repro.store.store import LabelStore
from repro.store.tiering import TieredLabelCache


def make_tiers(tmp_path, **store_kwargs):
    store = LabelStore(tmp_path / "tier.db", **store_kwargs)
    return TieredLabelCache(LabelCache(max_size=8), store)


class TestTierRouting:
    def test_build_then_l1_hit(self, tmp_path):
        tiers = make_tiers(tmp_path)
        value, tier = tiers.get_or_build("k", lambda: ("built", None))
        assert (value, tier) == ("built", "build")
        value, tier = tiers.get_or_build("k", lambda: ("never", None))
        assert (value, tier) == ("built", "l1")
        assert tiers.l2.stats()["puts"] == 1  # the build was written through
        tiers.l2.close()

    def test_l2_hit_promotes_into_l1(self, tmp_path):
        first = make_tiers(tmp_path)
        first.get_or_build("k", lambda: ("durable", None))
        first.l2.close()

        # a fresh process: empty L1, same store file
        fresh = make_tiers(tmp_path)
        value, tier = fresh.get_or_build("k", lambda: ("never built", None))
        assert (value, tier) == ("durable", "l2")
        # promotion happened: the next lookup is pure memory
        value, tier = fresh.get_or_build("k", lambda: ("never built", None))
        assert (value, tier) == ("durable", "l1")
        assert "k" in fresh.l1
        assert fresh.l2.stats()["puts"] == 0  # nothing was rebuilt
        fresh.l2.close()

    def test_build_writes_through_to_both_tiers(self, tmp_path):
        tiers = make_tiers(tmp_path)
        tiers.get_or_build("k", lambda: ({"big": "label"}, None))
        assert tiers.l1.get("k") == {"big": "label"}
        assert tiers.l2.get("k") == {"big": "label"}
        tiers.l2.close()

    def test_distinct_keys_are_distinct_entries(self, tmp_path):
        tiers = make_tiers(tmp_path)
        assert tiers.get_or_build("a", lambda: (1, None)) == (1, "build")
        assert tiers.get_or_build("b", lambda: (2, None)) == (2, "build")
        assert len(tiers.l2) == 2
        tiers.l2.close()


class TestSingleFlight:
    def test_thundering_herd_builds_once_and_writes_once(self, tmp_path):
        tiers = make_tiers(tmp_path)
        builds = []
        barrier = threading.Barrier(8)
        results = []

        def build():
            builds.append(1)
            return "value", None

        def worker():
            barrier.wait()
            results.append(tiers.get_or_build("hot", build))

        threads = [threading.Thread(target=worker) for _ in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()

        assert len(builds) == 1
        assert {value for value, _ in results} == {"value"}
        # exactly one thread saw the build; the waiters were L1 hits
        assert sorted(tier for _, tier in results) == ["build"] + ["l1"] * 7
        # only the building thread touched the store at all
        assert tiers.l2.stats()["puts"] == 1
        assert tiers.l2.stats()["gets"] == 1
        tiers.l2.close()
