"""Tests for repro.engine.cache: LRU semantics and thread safety."""

import threading
import time

import pytest

from repro.engine.cache import LabelCache
from repro.errors import EngineError


class TestBasics:
    def test_get_miss_then_hit(self):
        cache = LabelCache(max_size=2)
        assert cache.get("k") is None
        cache.put("k", "v")
        assert cache.get("k") == "v"

    def test_contains_and_len(self):
        cache = LabelCache(max_size=2)
        cache.put("a", 1)
        assert "a" in cache and "b" not in cache
        assert len(cache) == 1

    def test_invalidate_and_clear(self):
        cache = LabelCache(max_size=4)
        cache.put("a", 1)
        assert cache.invalidate("a") is True
        assert cache.invalidate("a") is False
        cache.put("b", 2)
        cache.clear()
        assert len(cache) == 0

    def test_max_size_validated(self):
        with pytest.raises(EngineError):
            LabelCache(max_size=0)


class TestLRU:
    def test_least_recently_used_evicted(self):
        cache = LabelCache(max_size=2)
        cache.put("a", 1)
        cache.put("b", 2)
        cache.get("a")  # refresh a; b is now LRU
        cache.put("c", 3)
        assert "a" in cache and "c" in cache and "b" not in cache
        assert cache.stats().evictions == 1

    def test_put_refreshes_existing(self):
        cache = LabelCache(max_size=2)
        cache.put("a", 1)
        cache.put("b", 2)
        cache.put("a", 10)  # refresh via put
        cache.put("c", 3)
        assert cache.get("a") == 10
        assert "b" not in cache


class TestGetOrBuild:
    def test_one_build_one_hit(self):
        cache = LabelCache(max_size=4)
        calls = []
        value, cached = cache.get_or_build("k", lambda: calls.append(1) or "v")
        assert (value, cached) == ("v", False)
        value, cached = cache.get_or_build("k", lambda: calls.append(1) or "v")
        assert (value, cached) == ("v", True)
        assert len(calls) == 1

    def test_failed_build_leaves_key_absent_and_retries(self):
        cache = LabelCache(max_size=4)
        attempts = []

        def flaky():
            attempts.append(1)
            if len(attempts) == 1:
                raise ValueError("boom")
            return "ok"

        with pytest.raises(ValueError):
            cache.get_or_build("k", flaky)
        assert "k" not in cache
        assert cache._build_locks == {}  # no per-key lock leaked on failure
        value, cached = cache.get_or_build("k", flaky)
        assert (value, cached) == ("ok", False)
        assert cache._build_locks == {}

    def test_single_flight_under_concurrency(self):
        """Ten threads, same key, slow build: exactly one build runs."""
        cache = LabelCache(max_size=4)
        build_count = []
        build_lock = threading.Lock()

        def slow_build():
            with build_lock:
                build_count.append(1)
            time.sleep(0.05)
            return "value"

        results = []
        threads = [
            threading.Thread(
                target=lambda: results.append(cache.get_or_build("k", slow_build))
            )
            for _ in range(10)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert len(build_count) == 1
        assert all(value == "value" for value, _ in results)
        assert sum(1 for _, cached in results if not cached) == 1

    def test_distinct_keys_build_independently(self):
        cache = LabelCache(max_size=4)
        a, a_cached = cache.get_or_build("a", lambda: "va")
        b, b_cached = cache.get_or_build("b", lambda: "vb")
        assert (a, b) == ("va", "vb")
        assert not a_cached and not b_cached

    def test_failing_build_keeps_single_flight_for_late_arrivals(self):
        """A thread arriving during a waiter's retry joins the same lock.

        Regression: the per-key lock used to be popped as soon as the
        first build failed, while queued waiters still held it — so a
        thread arriving *after* the pop minted a fresh lock and ran
        ``build()`` concurrently with the retrying waiter, violating
        the "one Monte-Carlo loop, not N" guarantee.
        """
        cache = LabelCache(max_size=4)
        state = threading.Lock()
        calls = [0]
        active = [0]
        max_active = [0]

        def flaky_build():
            with state:
                calls[0] += 1
                call = calls[0]
                active[0] += 1
                max_active[0] = max(max_active[0], active[0])
            try:
                time.sleep(0.15)  # long enough for the late thread to arrive
                if call == 1:
                    raise ValueError("first build fails")
                return "value"
            finally:
                with state:
                    active[0] -= 1

        results, errors = [], []

        def request():
            try:
                results.append(cache.get_or_build("k", flaky_build))
            except ValueError as exc:
                errors.append(exc)

        first = threading.Thread(target=request)   # build #1: fails
        waiter = threading.Thread(target=request)  # queued; retries as build #2
        late = threading.Thread(target=request)    # arrives mid-retry
        first.start()
        time.sleep(0.05)   # first is inside build #1
        waiter.start()
        time.sleep(0.15)   # build #1 has failed; waiter is inside build #2
        late.start()
        for thread in (first, waiter, late):
            thread.join()

        assert max_active[0] == 1  # never two builders for one key
        assert calls[0] == 2       # the failure plus exactly one retry
        assert len(errors) == 1    # only the first caller saw the failure
        assert sorted(results) == [("value", False), ("value", True)]
        assert cache._build_locks == {}  # the slot was released at the end


class TestStats:
    def test_as_dict_keys(self):
        # hits, misses and hit_rate are the service's: it counts each
        # request once, by tier (tests/engine/test_service.py)
        d = LabelCache(max_size=2).stats().as_dict()
        assert set(d) == {
            "evictions", "size", "max_size", "bytes", "max_bytes",
            "expirations", "ttl",
        }


class TestByteAccounting:
    """The max_bytes budget: estimated sizes, LRU eviction past it."""

    def test_bytes_track_inserts_and_drops(self):
        cache = LabelCache(max_size=8)
        assert cache.stats().bytes == 0
        cache.put("a", "x" * 100)
        after_one = cache.stats().bytes
        assert after_one > 100  # pickled size includes overhead
        cache.put("b", "y" * 100)
        assert cache.stats().bytes > after_one
        cache.invalidate("a")
        cache.invalidate("b")
        assert cache.stats().bytes == 0

    def test_refreshing_a_key_does_not_double_count(self):
        cache = LabelCache(max_size=8)
        cache.put("a", "x" * 100)
        once = cache.stats().bytes
        cache.put("a", "x" * 100)
        assert cache.stats().bytes == once

    def test_budget_evicts_lru_until_it_fits(self):
        cache = LabelCache(max_size=8, max_bytes=400)
        for key in ("a", "b", "c", "d"):
            cache.put(key, "x" * 120)  # ~135 pickled bytes each
        stats = cache.stats()
        assert stats.bytes <= 400
        assert stats.evictions >= 1
        assert "d" in cache  # the newest entry always survives
        assert "a" not in cache  # the oldest was the victim

    def test_oversized_value_still_caches_alone(self):
        cache = LabelCache(max_size=8, max_bytes=64)
        cache.put("big", "x" * 10_000)
        assert "big" in cache  # kept despite exceeding the whole budget
        cache.put("next", "y")
        assert "next" in cache
        assert "big" not in cache  # and is the next eviction victim

    def test_clear_resets_bytes(self):
        cache = LabelCache(max_size=8)
        cache.put("a", "x" * 100)
        cache.clear()
        assert cache.stats().bytes == 0

    def test_max_bytes_validated(self):
        with pytest.raises(EngineError, match="max_bytes"):
            LabelCache(max_size=2, max_bytes=0)


class TestTimeToLive:
    """The ttl: lazy expiry at lookup time, counted separately."""

    @staticmethod
    def ticking(cache_ttl, start=0.0):
        clock = {"now": start}
        return clock, LabelCache(max_size=8, ttl=cache_ttl,
                                 clock=lambda: clock["now"])

    def test_fresh_entries_hit(self):
        clock, cache = self.ticking(10.0)
        cache.put("a", 1)
        clock["now"] += 9.9
        assert cache.get("a") == 1
        assert cache.stats().expirations == 0

    def test_stale_entries_expire_as_misses(self):
        clock, cache = self.ticking(10.0)
        cache.put("a", 1)
        clock["now"] += 10.1
        assert cache.get("a") is None
        stats = cache.stats()
        assert stats.expirations == 1
        assert stats.evictions == 0  # expiry is not an LRU eviction
        assert len(cache) == 0

    def test_get_or_build_rebuilds_expired_entries(self):
        clock, cache = self.ticking(5.0)
        calls = []
        build = lambda: calls.append(1) or "v"  # noqa: E731
        assert cache.get_or_build("k", build) == ("v", False)
        assert cache.get_or_build("k", build) == ("v", True)
        clock["now"] += 6.0
        assert cache.get_or_build("k", build) == ("v", False)
        assert len(calls) == 2
        assert cache.stats().expirations == 1

    def test_a_hit_refreshes_lru_order_not_the_ttl(self):
        clock, cache = self.ticking(10.0)
        cache.put("a", 1)
        clock["now"] += 6.0
        assert cache.get("a") == 1  # touched, but the stamp stays
        clock["now"] += 6.0  # 12s after insert
        assert cache.get("a") is None
        assert cache.stats().expirations == 1

    def test_ttl_validated(self):
        with pytest.raises(EngineError, match="ttl"):
            LabelCache(max_size=2, ttl=0)

    def test_no_ttl_means_entries_never_expire(self):
        clock, cache = self.ticking(None)
        cache.put("a", 1)
        clock["now"] += 1e9
        assert cache.get("a") == 1


class TestByteBudgetTTLInterplay:
    """max_bytes + ttl together: expired entries die before live ones."""

    @staticmethod
    def bounded(max_bytes, cache_ttl):
        clock = {"now": 100.0}
        return clock, LabelCache(
            max_size=32, max_bytes=max_bytes, ttl=cache_ttl,
            clock=lambda: clock["now"],
        )

    def test_expired_but_largest_entry_evicted_before_live_entries(self):
        import pickle

        big = "x" * 4096
        small = "y" * 64
        # one byte short of fitting everything: the fourth insert is
        # guaranteed to apply pressure
        budget = len(pickle.dumps(big)) + 3 * len(pickle.dumps(small)) - 1
        clock, cache = self.bounded(budget, 10.0)
        cache.put("big", big)
        clock["now"] += 5.0
        cache.put("live-1", small)
        cache.put("live-2", small)
        # keep the expired entry *most* recently used, so plain LRU
        # eviction would wrongly pick the live entries first
        clock["now"] += 4.0
        assert cache.get("big") == big
        clock["now"] += 2.0  # big is now 11s old: expired; live-* are not
        cache.put("live-3", small)  # pushes the total past the budget
        assert "big" not in cache
        assert "live-1" in cache and "live-2" in cache and "live-3" in cache
        stats = cache.stats()
        # the big entry's removal was an expiration, not an eviction
        assert stats.expirations == 1
        assert stats.evictions == 0

    def test_counters_stay_consistent_when_both_mechanisms_fire(self):
        import pickle

        payload = "z" * 512
        entry_size = len(pickle.dumps(payload))
        clock, cache = self.bounded(3 * entry_size, 10.0)
        cache.put("old-1", payload)
        cache.put("old-2", payload)
        clock["now"] += 11.0  # both old entries expire
        cache.put("new-1", payload)
        cache.put("new-2", payload)
        cache.put("new-3", payload)
        cache.put("new-4", payload)  # over budget among live entries only
        stats = cache.stats()
        assert stats.expirations == 2  # the two stale entries
        assert stats.evictions == 1  # one live LRU entry (new-1)
        assert "new-1" not in cache
        assert "new-2" in cache and "new-3" in cache and "new-4" in cache
        # byte accounting survived both paths
        assert stats.bytes == 3 * entry_size
        assert len(cache) == 3

    def test_expired_sweep_only_runs_under_pressure(self):
        clock, cache = self.bounded(None, 10.0)
        cache.put("a", 1)
        clock["now"] += 11.0
        cache.put("b", 2)  # no byte budget, under max_size: no sweep
        # the expired entry is still lazily dropped at lookup time
        assert cache.get("a") is None
        assert cache.stats().expirations == 1
