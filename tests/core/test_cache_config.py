"""The shared cache knob: registration, stats, bounds, reconfiguration."""

import pytest

from repro.core import cache_config
from repro.core.cache_config import BoundedDictCache, managed_cache


class TestManagedFunction:
    def test_registered_caches_cover_the_hot_closed_forms(self):
        names = set(cache_config.cache_stats())
        assert {
            "solvability.classify_parameters",
            "solvability.binomial_gcd",
            "kernel.count_bounded_partitions",
            "kernel.kernel_sets",
        } <= names

    def test_stats_track_hits_and_misses(self):
        from repro.core.solvability import binomial_gcd

        binomial_gcd.cache_clear()
        binomial_gcd(30)
        binomial_gcd(30)
        stats = cache_config.cache_stats()["solvability.binomial_gcd"]
        assert stats["misses"] >= 1 and stats["hits"] >= 1
        assert stats["maxsize"] == cache_config.current_maxsize()

    def test_duplicate_registration_rejected(self):
        with pytest.raises(ValueError):
            managed_cache("solvability.binomial_gcd")(lambda n: n)

    def test_cache_info_compatible_with_lru_cache(self):
        from repro.core.solvability import classification_cache_info

        info = classification_cache_info()
        assert hasattr(info, "hits") and hasattr(info, "misses")


class TestBoundedDictCache:
    def test_lru_eviction_at_the_bound(self):
        cache = BoundedDictCache("test.bounded")
        try:
            cache.rebuild(maxsize=2)
            cache.put("a", 1)
            cache.put("b", 2)
            assert cache.get("a") == 1  # refresh a
            cache.put("c", 3)  # evicts b, the least recent
            assert cache.get("b") is None
            assert cache.get("a") == 1 and cache.get("c") == 3
        finally:
            cache_config._registry.pop("test.bounded", None)

    def test_peek_does_not_count(self):
        cache = BoundedDictCache("test.peek")
        try:
            cache.put("k", "v")
            baseline = cache.stats()
            assert cache.peek("k") == "v" and cache.peek("nope") is None
            assert cache.stats() == baseline
        finally:
            cache_config._registry.pop("test.peek", None)

    def test_a_new_scope_empties_the_cache_and_an_old_one_is_dropped(self):
        cache = BoundedDictCache("test.scope")
        try:
            cache.get("k", scope="a")
            cache.put("k", "v", scope="a")
            assert cache.peek("k", scope="a") == "v"
            assert cache.peek("k", scope="b") is None  # no move, no count
            assert cache.get("k", scope="a") == "v"
            assert cache.get("k", scope="b") is None  # moves to b, empty
            assert len(cache) == 0
            cache.put("k", "stale", scope="a")  # computed under a: dropped
            assert len(cache) == 0 and cache.peek("k", scope="b") is None
            assert cache.stats()["hits"] == 1 and cache.stats()["misses"] == 2
        finally:
            cache_config._registry.pop("test.scope", None)

    def test_byte_bound_evicts_the_least_recent(self):
        cache = BoundedDictCache("test.bytes", max_bytes=10)
        try:
            cache.put("a", b"1234")  # 5
            cache.put("b", b"1234")  # 10
            assert cache.get("a") == b"1234"  # refresh a
            cache.put("c", b"12")  # 13 > 10: evicts b
            assert cache.peek("b") is None and len(cache) == 2
            cache.put("c", b"1")  # replacing an entry re-weighs it
            assert cache.stats()["bytes"] == 7
            cache.pop("a")
            assert cache.stats()["bytes"] == 2
            cache.put("d", b"x" * 20)  # larger than the bound: not kept
            assert len(cache) == 0 and cache.stats()["bytes"] == 0
            assert cache.stats()["max_bytes"] == 10
        finally:
            cache_config._registry.pop("test.bytes", None)

    def test_unbounded_bytes_reports_no_byte_counters(self):
        cache = BoundedDictCache("test.nobytes")
        try:
            cache.put(("tuple", "key"), object())
            assert set(cache.stats()) == {"hits", "misses", "size", "maxsize"}
        finally:
            cache_config._registry.pop("test.nobytes", None)


class TestConfigure:
    def test_configure_rebuilds_every_cache(self):
        from repro.core.solvability import binomial_gcd

        original = cache_config.current_maxsize()
        try:
            cache_config.configure(128)
            assert cache_config.current_maxsize() == 128
            binomial_gcd(12)
            stats = cache_config.cache_stats()["solvability.binomial_gcd"]
            assert stats["maxsize"] == 128
        finally:
            cache_config.configure(original)

    def test_eviction_does_not_change_results(self):
        from repro.core.kernel import kernel_vectors

        original = cache_config.current_maxsize()
        reference = kernel_vectors(9, 4, 1, 5)
        try:
            cache_config.configure(4)  # absurdly tight: constant eviction
            for low in range(0, 4):
                for high in range(low, 10):
                    kernel_vectors(9, 4, low, high)
            assert kernel_vectors(9, 4, 1, 5) == reference
        finally:
            cache_config.configure(original)

    def test_clear_all_caches_resets_counters(self):
        from repro.core.solvability import binomial_gcd

        binomial_gcd(20)
        cache_config.clear_all_caches()
        stats = cache_config.cache_stats()["solvability.binomial_gcd"]
        assert stats["hits"] == 0 and stats["misses"] == 0 and stats["size"] == 0
