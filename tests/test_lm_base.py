"""Tests for the LM interface and logits cache (repro.lm.base)."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.lm.base import LanguageModel, LogitsCache, ModelSpec
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


def _contexts(n, depth=3, vocab=300):
    return [[(7 * i + 3 * t) % (vocab - 1) + 1 for t in range(depth)] for i in range(n)]


class TestModelSpec:
    def test_ngram_roundtrip_bit_identical(self, model):
        spec = model.spec()
        assert isinstance(spec, ModelSpec)
        rebuilt = spec.build()
        assert rebuilt.vocab_size == model.vocab_size
        assert rebuilt.eos_id == model.eos_id
        for ctx in _contexts(5, vocab=model.vocab_size):
            assert np.array_equal(rebuilt.logprobs(ctx), model.logprobs(ctx))

    def test_ngram_lru_cache_not_shipped(self, model):
        model.logprobs([1, 2])  # warm the model's private LRU
        rebuilt = model.spec().build()
        assert len(rebuilt._cache) == 0

    def test_transformer_strips_optimizer_keeps_kv_budget(self, tokenizer):
        from repro.lm.transformer import TransformerConfig, TransformerModel

        config = TransformerConfig(
            vocab_size=len(tokenizer), block_size=16, n_layer=1, n_head=2, n_embd=16
        )
        m = TransformerModel(config, eos_id=tokenizer.eos_id, seed=0, kv_cache_mb=4.0)
        m.fit([list(range(1, 25))], steps=2, batch_size=1, seed=0)
        assert m._adam_t > 0
        rebuilt = m.spec().build()
        assert rebuilt._adam_t == 0 and rebuilt._adam_m == {}
        assert rebuilt.prefix_cache is not None
        assert rebuilt.prefix_cache.max_bytes == m.prefix_cache.max_bytes
        # A replica scores exactly like its source (same weights, and its
        # own empty prefix cache does not change full-forward results).
        got = rebuilt.logprobs_batch([[1, 2, 3]])
        want = m.logprobs_batch([[1, 2, 3]])
        assert np.allclose(got[0], want[0], atol=1e-12)


class TestBatchDedupe:
    class _Counting(LanguageModel):
        def __init__(self, vocab_size=32):
            self.vocab_size = vocab_size
            self.eos_id = 0
            self.calls = 0

        def logprobs(self, context):
            self.calls += 1
            row = np.full(self.vocab_size, -np.log(self.vocab_size))
            return row

    def test_default_batch_scores_each_unique_context_once(self):
        m = self._Counting()
        rows = m.logprobs_batch([[1, 2], [3], [1, 2], [3], [1, 2]])
        assert m.calls == 2  # two unique contexts, five rows
        assert len(rows) == 5
        assert rows[0] is rows[2] is rows[4]  # duplicates share the row

    def test_logits_cache_batch_dedupes_before_the_model(self):
        m = self._Counting()
        cache = LogitsCache(m, capacity=64)
        cache.logprobs_batch([[1], [2], [1], [2], [1]])
        assert m.calls == 2
        assert cache.misses == 2 and cache.hits == 3
