"""Tests for batched execution (the §3.3 accelerator-batching analogue)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.api import prepare
from repro.core.query import SearchQuery
from repro.lm.base import LogitsCache
from repro.lm.transformer import TransformerConfig, TransformerModel


class TestModelBatchInterface:
    def test_default_batch_matches_sequential(self, model):
        contexts = [(), (1,), (1, 2), (3,)]
        batched = model.logprobs_batch(contexts)
        for ctx, lp in zip(contexts, batched):
            np.testing.assert_allclose(lp, model.logprobs(ctx))

    def test_transformer_batch_matches_sequential(self, tokenizer):
        config = TransformerConfig(
            vocab_size=len(tokenizer), block_size=16, n_layer=1, n_head=2, n_embd=16
        )
        lm = TransformerModel(config, eos_id=tokenizer.eos_id, seed=4)
        contexts = [
            tokenizer.encode("The cat"),
            tokenizer.encode("The dog ate"),
            tokenizer.encode("The"),
            tokenizer.encode("The cat"),  # duplicate length group member
            [],
        ]
        batched = lm.logprobs_batch(contexts)
        for ctx, lp in zip(contexts, batched):
            np.testing.assert_allclose(lp, lm.logprobs(ctx), atol=1e-10)


class TestCacheBatching:
    def test_batch_dedupes_misses(self, model):
        cache = LogitsCache(model, capacity=64)
        contexts = [(1, 2), (1, 2), (3,)]
        cache.logprobs_batch(contexts)
        assert cache.misses == 2  # duplicate context fetched once

    def test_batch_uses_cache(self, model):
        cache = LogitsCache(model, capacity=64)
        cache.logprobs((5,))
        out = cache.logprobs_batch([(5,), (6,)])
        assert cache.hits == 1
        np.testing.assert_allclose(out[0], model.logprobs((5,)))


class TestBatchedExecutor:
    @pytest.mark.parametrize("batch_size", [2, 4, 16])
    def test_same_matches_and_scores_as_unbatched(self, model, tokenizer, batch_size):
        """``batch_size`` widens model rounds by lookahead, never by
        reordering: every width yields the width-1 stream, match for match."""
        pattern = "The ((cat)|(dog)|(man)|(woman)) ((sat)|(ate))?"
        base = list(
            prepare(model, tokenizer, SearchQuery(pattern), max_expansions=3000, batch_size=1)
        )
        session = prepare(
            model, tokenizer, SearchQuery(pattern),
            max_expansions=3000, batch_size=batch_size,
        )
        assert list(session) == base
        assert len(base) > 4
        assert session.stats.lookahead_contexts > 0

    def test_batch_stats_recorded(self, model, tokenizer):
        session = prepare(model, tokenizer, SearchQuery("The ((cat)|(dog))"), batch_size=4)
        list(session)
        stats = session.stats
        assert stats.lm_batches > 0
        assert stats.mean_batch_size > 1.0
        unbatched = prepare(model, tokenizer, SearchQuery("The ((cat)|(dog))"))
        list(unbatched)
        assert unbatched.stats.mean_batch_size == 1.0  # the n-gram's own width

    def test_invalid_batch_size_rejected(self, model, tokenizer):
        with pytest.raises(ValueError):
            prepare(model, tokenizer, SearchQuery("a"), batch_size=0)

    def test_batched_transformer_end_to_end(self, tokenizer):
        config = TransformerConfig(
            vocab_size=len(tokenizer), block_size=24, n_layer=1, n_head=2, n_embd=16
        )
        lm = TransformerModel(config, eos_id=tokenizer.eos_id, seed=2)
        lm.fit([tokenizer.encode("The cat sat.")] * 30, steps=60, batch_size=8, lr=1e-2)
        session = prepare(
            lm, tokenizer, SearchQuery("The ((cat)|(dog))"),
            max_expansions=4000, batch_size=8,
        )
        texts = {r.text for r in session}
        assert texts == {"The cat", "The dog"}
        assert session.stats.mean_batch_size > 1.0
