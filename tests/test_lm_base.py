"""Tests for the LM interface and logits cache (repro.lm.base)."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.lm.base import LanguageModel, LogitsCache
from repro.lm.decoding import DecodingPolicy


class CountingModel(LanguageModel):
    """Deterministic toy model that counts its forward passes."""

    def __init__(self, vocab_size=8):
        self.vocab_size = vocab_size
        self.eos_id = vocab_size - 1
        self.max_sequence_length = 32
        self.calls = 0

    def logprobs(self, context):
        self.calls += 1
        # Distribution depends on context length so caching is observable.
        base = np.arange(1.0, self.vocab_size + 1.0) + (len(context) % 3)
        return np.log(base / base.sum())


class TestLogitsCache:
    def test_repeat_lookup_hits_cache(self):
        model = CountingModel()
        cache = LogitsCache(model, capacity=16)
        cache.logprobs((1, 2))
        cache.logprobs((1, 2))
        assert model.calls == 1
        assert cache.hits == 1 and cache.misses == 1

    def test_different_contexts_miss(self):
        model = CountingModel()
        cache = LogitsCache(model, capacity=16)
        cache.logprobs((1,))
        cache.logprobs((2,))
        assert model.calls == 2

    def test_lru_eviction(self):
        model = CountingModel()
        cache = LogitsCache(model, capacity=2)
        cache.logprobs((1,))
        cache.logprobs((2,))
        cache.logprobs((3,))  # evicts (1,)
        cache.logprobs((1,))
        assert model.calls == 4

    def test_hit_rate(self):
        model = CountingModel()
        cache = LogitsCache(model, capacity=4)
        assert cache.hit_rate == 0.0
        cache.logprobs(())
        cache.logprobs(())
        assert cache.hit_rate == 0.5

    def test_zero_capacity_rejected(self):
        with pytest.raises(ValueError):
            LogitsCache(CountingModel(), capacity=0)


def _cache_state(cache):
    """Everything a lookup may change: counters and the LRU order."""
    return cache.hits, cache.misses, list(cache._store)


class TestAllHitProbe:
    """``LogitsCache.cached_rows`` — the fully cached path both drivers
    try before they build a round."""

    def test_all_cached_returns_rows_counts_hits_and_touches(self):
        cache = LogitsCache(CountingModel(), capacity=8)
        rows = cache.logprobs_batch([(1,), (2,), (3,)])
        before = cache.hits
        got = cache.cached_rows([(2,), (1,), (2,)])
        assert [id(row) for row in got] == [id(rows[1]), id(rows[0]), id(rows[1])]
        assert cache.hits == before + 3 and cache.misses == 3
        assert list(cache._store) == [(3,), (1,), (2,)]  # (3,) is now the LRU victim

    def test_any_miss_changes_nothing_and_calls_no_model(self):
        model = CountingModel()
        cache = LogitsCache(model, capacity=8)
        cache.logprobs_batch([(1,), (2,)])
        state, calls = _cache_state(cache), model.calls
        assert cache.cached_rows([(2,), (9,), (1,)]) is None
        assert _cache_state(cache) == state and model.calls == calls

    def test_empty_request_is_an_empty_hit(self):
        cache = LogitsCache(CountingModel(), capacity=2)
        assert cache.cached_rows([]) == []
        assert _cache_state(cache) == (0, 0, [])

    @settings(max_examples=60, deadline=None)
    @given(
        st.lists(
            st.lists(
                st.lists(st.integers(0, 2), max_size=2).map(tuple), min_size=1, max_size=4
            ),
            min_size=1,
            max_size=30,
        ),
        st.integers(2, 6),
    )
    def test_probe_then_round_equals_round_alone(self, requests, capacity):
        """On a small-capacity cache (evictions happen), a driver that
        probes first and falls back to ``logprobs_round`` leaves the
        counters, the LRU order and every returned row identical to one
        that always takes the round; a failed probe changes nothing."""
        probing = LogitsCache(CountingModel(), capacity=capacity)
        plain = LogitsCache(CountingModel(), capacity=capacity)
        for contexts in requests:
            before = _cache_state(probing)
            rows = probing.cached_rows(contexts)
            if rows is None:
                assert _cache_state(probing) == before
                (rows,), (hits,), (misses,) = probing.logprobs_round([contexts])
                assert misses > 0
            (want,), _, _ = plain.logprobs_round([contexts])
            assert len(rows) == len(want)
            assert all(np.array_equal(a, b) for a, b in zip(rows, want))
            assert _cache_state(probing) == _cache_state(plain)
        assert probing.model.calls == plain.model.calls


class TestGenerate:
    def test_respects_max_new_tokens(self, rng):
        model = CountingModel()
        out = model.generate([0], rng, max_new_tokens=5)
        assert len(out) <= 5

    def test_policy_restricts_sampling(self, rng):
        model = CountingModel()
        policy = DecodingPolicy(top_k=1)
        out = model.generate([0], rng, max_new_tokens=4, policy=policy, stop_at_eos=False)
        # Greedy on this model always picks the max-index token.
        assert all(t == model.vocab_size - 1 for t in out)

    def test_stop_at_eos(self, rng):
        model = CountingModel()
        out = model.generate([0], rng, max_new_tokens=20, policy=DecodingPolicy(top_k=1))
        # Greedy immediately picks EOS (the most likely token) and stops.
        assert out == []


class TestSequenceLogprob:
    def test_empty_sequence_is_zero(self):
        assert CountingModel().sequence_logprob([]) == 0.0

    def test_additivity(self):
        model = CountingModel()
        a = model.sequence_logprob([1, 2])
        b = model.sequence_logprob([1]) + model.sequence_logprob([2], prefix=[1])
        assert abs(a - b) < 1e-12
