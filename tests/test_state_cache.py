"""Unit tests for the prefix-state (KV) cache.

The cache is the substrate of incremental decoding: a trie over token
tuples with byte-budgeted LRU eviction.  These tests pin the contract the
transformer's incremental path relies on — proper-prefix lookup, LRU
recency on hits, byte accounting through replacement and eviction, and
counter semantics.
"""

from __future__ import annotations

import pytest

from repro.lm.state_cache import DEFAULT_KV_CACHE_BYTES, PrefixStateCache


def put(cache, key, nbytes=10, state=None):
    cache.put(key, state if state is not None else f"state{key}", nbytes)


class TestLookup:
    def test_exact_get_hit_and_miss(self):
        cache = PrefixStateCache(1000)
        put(cache, (1, 2, 3))
        assert cache.get((1, 2, 3)) == "state(1, 2, 3)"
        assert cache.get((1, 2)) is None
        assert (cache.hits, cache.misses) == (1, 1)

    def test_longest_prefix_finds_deepest_ancestor(self):
        cache = PrefixStateCache(1000)
        put(cache, (1,))
        put(cache, (1, 2, 3))
        m, state = cache.longest_prefix((1, 2, 3, 4, 5))
        assert (m, state) == (3, "state(1, 2, 3)")
        # The shallower ancestor is found once the deeper is out of range.
        m, state = cache.longest_prefix((1, 2, 9))
        assert (m, state) == (1, "state(1,)")

    def test_max_len_excludes_exact_key(self):
        """Incremental scoring must process at least the final token, so an
        exact-key entry is not a usable ancestor."""
        cache = PrefixStateCache(1000)
        put(cache, (1, 2, 3))
        m, state = cache.longest_prefix((1, 2, 3), max_len=2)
        assert (m, state) == (0, None)
        put(cache, (1, 2))
        m, state = cache.longest_prefix((1, 2, 3), max_len=2)
        assert (m, state) == (2, "state(1, 2)")

    def test_partial_prefix_counts_as_hit(self):
        cache = PrefixStateCache(1000)
        put(cache, (7,))
        m, _ = cache.longest_prefix((7, 8, 9, 10))
        assert m == 1
        assert cache.hits == 1 and cache.misses == 0

    def test_no_prefix_is_a_miss(self):
        cache = PrefixStateCache(1000)
        put(cache, (1, 2))
        m, state = cache.longest_prefix((3, 4))
        assert (m, state) == (0, None)
        assert cache.misses == 1


class TestEviction:
    def test_byte_budget_evicts_lru_first(self):
        cache = PrefixStateCache(30)
        put(cache, (1,), nbytes=10)
        put(cache, (2,), nbytes=10)
        put(cache, (3,), nbytes=10)
        assert cache.bytes == 30 and len(cache) == 3
        put(cache, (4,), nbytes=10)  # evicts (1,)
        assert cache.bytes == 30 and len(cache) == 3
        assert cache.evictions == 1
        assert cache.get((1,)) is None
        assert cache.get((4,)) is not None

    def test_lookup_refreshes_recency(self):
        cache = PrefixStateCache(30)
        put(cache, (1,), nbytes=10)
        put(cache, (2,), nbytes=10)
        put(cache, (3,), nbytes=10)
        cache.longest_prefix((1, 9))  # touch (1,) — now (2,) is LRU
        put(cache, (4,), nbytes=10)
        assert cache.get((1,)) is not None
        assert cache.get((2,)) is None

    def test_peek_neither_charges_nor_refreshes(self):
        cache = PrefixStateCache(30)
        put(cache, (1,), nbytes=10)
        put(cache, (2,), nbytes=10)
        put(cache, (3,), nbytes=10)
        assert cache.peek((1, 9)) == 1
        assert cache.peek((1,), max_len=0) == 0
        assert cache.peek((8, 9)) == 0
        assert (cache.hits, cache.misses) == (0, 0)
        put(cache, (4,), nbytes=10)  # (1,) was only peeked: still the LRU
        assert cache.peek((1, 9)) == 0

    def test_replace_in_place_accounts_bytes_once(self):
        cache = PrefixStateCache(100)
        put(cache, (1, 2), nbytes=40)
        put(cache, (1, 2), nbytes=60, state="fresh")
        assert cache.bytes == 60 and len(cache) == 1
        assert cache.get((1, 2)) == "fresh"
        assert cache.evictions == 0

    def test_oversized_entry_is_dropped_immediately(self):
        cache = PrefixStateCache(50)
        put(cache, (1,), nbytes=10)
        put(cache, (2,), nbytes=999)  # cannot fit: everything drains
        assert cache.bytes == 0 and len(cache) == 0
        assert cache.get((2,)) is None

    def test_eviction_prunes_dead_trie_chains(self):
        cache = PrefixStateCache(10)
        put(cache, (1, 2, 3, 4, 5), nbytes=10)
        put(cache, (9,), nbytes=10)  # evicts the deep chain
        assert 1 not in cache._root.children  # chain fully pruned
        assert 9 in cache._root.children

    def test_eviction_keeps_ancestors_with_payloads(self):
        cache = PrefixStateCache(20)
        put(cache, (1,), nbytes=10)
        put(cache, (1, 2, 3), nbytes=10)
        cache.longest_prefix((1, 2, 3, 4))  # deep node most recent
        put(cache, (5,), nbytes=10)  # evicts (1,) only
        m, state = cache.longest_prefix((1, 2, 3, 4))
        assert (m, state) == (3, "state(1, 2, 3)")


class TestCountersAndStats:
    def test_clear_drops_contents_keeps_counters(self):
        cache = PrefixStateCache(1000)
        put(cache, (1,))
        cache.get((1,))
        cache.get((2,))
        cache.clear()
        assert len(cache) == 0 and cache.bytes == 0
        assert cache.hits == 1 and cache.misses == 1
        assert cache.get((1,)) is None  # contents really gone

    def test_hit_rate_and_stats_dict(self):
        cache = PrefixStateCache(1000)
        assert cache.hit_rate == 0.0
        put(cache, (1,), nbytes=10)
        cache.get((1,))
        cache.get((2,))
        stats = cache.stats()
        assert stats["entries"] == 1
        assert stats["bytes"] == 10
        assert stats["hits"] == 1 and stats["misses"] == 1
        assert stats["hit_rate"] == 0.5

    def test_invalid_budget_rejected(self):
        with pytest.raises(ValueError, match="max_bytes"):
            PrefixStateCache(0)

    def test_default_budget_is_64_mib(self):
        assert DEFAULT_KV_CACHE_BYTES == 64 << 20
        assert PrefixStateCache().max_bytes == DEFAULT_KV_CACHE_BYTES
