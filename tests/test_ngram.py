"""Tests for the n-gram language model (repro.lm.ngram)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.lm.ngram import NGramModel
from repro.tokenizers.bpe import train_bpe

_CORPUS = ["the cat sat on the mat", "the cat ate the fish", "a dog sat on the rug"] * 20


@pytest.fixture(scope="module")
def tok():
    return train_bpe(_CORPUS, vocab_size=180)


@pytest.fixture(scope="module")
def lm(tok):
    return NGramModel.train_on_text(_CORPUS, tok, order=4, alpha=0.1)


class TestDistribution:
    def test_proper_distribution_everywhere(self, lm, tok):
        for ctx in [[], tok.encode("the cat"), tok.encode("zz qq"), tok.encode("a dog sat")]:
            lp = lm.logprobs(ctx)
            assert lp.shape == (lm.vocab_size,)
            assert abs(np.exp(lp).sum() - 1.0) < 1e-9

    def test_full_support(self, lm, tok):
        lp = lm.logprobs(tok.encode("the"))
        assert np.all(np.isfinite(lp))  # smoothing: every token has p > 0

    def test_memorises_continuations(self, lm, tok):
        ctx = tok.encode("the cat sat on the")
        best = int(np.argmax(lm.logprobs(ctx)))
        assert tok.vocab.token_of(best) == " mat"

    def test_seen_beats_unseen(self, lm, tok):
        ctx = tok.encode("the cat")
        lp = lm.logprobs(ctx)
        seen = tok.encode(" sat")[0]
        unseen = tok.vocab.id_of("Z")
        assert lp[seen] > lp[unseen]

    def test_bos_padding_shapes_sentence_starts(self, lm, tok):
        # Sentence-initial tokens dominate the empty-context distribution.
        lp = lm.logprobs([])
        best = tok.vocab.token_of(int(np.argmax(lp)))
        assert best in ("the", "a")

    def test_eos_predicted_at_line_end(self, lm, tok):
        ctx = tok.encode("the cat sat on the mat")
        lp = lm.logprobs(ctx)
        assert int(np.argmax(lp)) == lm.eos_id


class TestTraining:
    def test_fit_accumulates(self, tok):
        m = NGramModel(vocab_size=len(tok), eos_id=tok.eos_id, order=3)
        m.fit([tok.encode("the cat")])
        before = m.num_parameters()
        m.fit([tok.encode("a dog")])
        assert m.num_parameters() > before

    def test_unfitted_raises(self, tok):
        m = NGramModel(vocab_size=len(tok), eos_id=tok.eos_id, order=2)
        with pytest.raises(RuntimeError):
            m.logprobs([])

    def test_invalid_order_rejected(self):
        with pytest.raises(ValueError):
            NGramModel(vocab_size=10, eos_id=0, order=0)

    def test_zero_alpha_rejected(self):
        with pytest.raises(ValueError):
            NGramModel(vocab_size=10, eos_id=0, alpha=0.0)

    def test_context_count(self, lm, tok):
        assert lm.context_count(tok.encode("the cat sat")) > 0
        assert lm.context_count(tok.encode("zz qq zz")) == 0

    def test_encoding_noise_plants_noncanonical(self, tok):
        noisy = NGramModel.train_on_text(
            _CORPUS, tok, order=3, encoding_noise=1.0, noise_seed=1
        )
        clean = NGramModel.train_on_text(_CORPUS, tok, order=3)
        # The noisy model has different statistics (split tokens counted).
        assert noisy.num_parameters() != clean.num_parameters()


class TestOrderBehaviour:
    def test_higher_order_sharper_on_long_context(self, tok):
        low = NGramModel.train_on_text(_CORPUS, tok, order=2, alpha=0.1)
        high = NGramModel.train_on_text(_CORPUS, tok, order=5, alpha=0.1)
        ctx = tok.encode("the cat sat on the")
        target = tok.encode(" mat")[0]
        assert high.logprobs(ctx)[target] >= low.logprobs(ctx)[target]

    def test_unigram_model_ignores_context(self, tok):
        uni = NGramModel.train_on_text(_CORPUS, tok, order=1, alpha=0.1)
        a = uni.logprobs(tok.encode("the cat"))
        b = uni.logprobs(tok.encode("a dog"))
        assert np.allclose(a, b)


class TestSequenceScoring:
    def test_chain_rule(self, lm, tok):
        tokens = tok.encode("the cat sat")
        total = lm.sequence_logprob(tokens)
        manual = 0.0
        ctx: list[int] = []
        for t in tokens:
            manual += float(lm.logprobs(ctx)[t])
            ctx.append(t)
        assert abs(total - manual) < 1e-9

    def test_prefix_not_scored(self, lm, tok):
        prefix = tok.encode("the cat")
        suffix = tok.encode(" sat")
        conditional = lm.sequence_logprob(suffix, prefix=prefix)
        joint = lm.sequence_logprob(prefix + suffix)
        assert conditional > joint  # prefix mass excluded

    def test_generate_stops_at_eos(self, lm, tok, rng):
        out = lm.generate(tok.encode("the cat sat on the mat"), rng, max_new_tokens=50)
        assert lm.eos_id not in out
        assert len(out) <= 50


class TestLogprobsLruCache:
    """Regression suite for the row cache's eviction order.

    The old path inserted the new row *then* popped the LRU entry, so the
    cache transiently held ``cache_size + 1`` rows; eviction must instead
    happen before the insert, and a cache at capacity must never serve a
    stale or evicted row (the same bug class as the PR 2 ``logprobs_round``
    mid-round eviction).
    """

    def _sized(self, tok, cache_size):
        m = NGramModel(
            vocab_size=len(tok), eos_id=tok.eos_id, order=3, alpha=0.1,
            cache_size=cache_size,
        )
        m.fit([tok.encode(line) for line in _CORPUS])
        return m

    def test_capacity_never_exceeded(self, tok):
        m = self._sized(tok, cache_size=4)
        for start in range(12):
            m.logprobs([start, start + 1])
            assert len(m._cache) <= 4

    def test_rows_correct_at_capacity(self, tok):
        """Every row returned while the cache churns equals a fresh
        computation — no stale/evicted row is ever served."""
        m = self._sized(tok, cache_size=3)
        contexts = [[i, i + 1] for i in range(8)]
        served = [m.logprobs(c).copy() for c in contexts]
        for ctx, row in zip(contexts, served):
            fresh = np.log(m._distribution(m._context_key(ctx)))
            assert np.array_equal(row, fresh), ctx

    def test_evicted_key_recomputed_identically(self, tok):
        m = self._sized(tok, cache_size=2)
        first = m.logprobs([1, 2]).copy()
        m.logprobs([3, 4])
        m.logprobs([5, 6])  # evicts [1, 2]
        assert m._context_key([1, 2]) not in m._cache
        again = m.logprobs([1, 2])
        assert np.array_equal(first, again)

    def test_batch_survives_mid_batch_eviction(self, tok):
        """A batch larger than the whole cache still returns correct rows
        for every occurrence, including repeats of evicted keys."""
        m = self._sized(tok, cache_size=2)
        contexts = [[i, i + 1] for i in range(6)]
        contexts.append([0, 1])  # repeat of a row evicted mid-batch
        rows = m.logprobs_batch(contexts)
        assert np.array_equal(rows[0], rows[-1])
        for ctx, row in zip(contexts, rows):
            fresh = np.log(m._distribution(m._context_key(ctx)))
            assert np.array_equal(row, fresh)

    def test_hit_moves_to_end(self, tok):
        m = self._sized(tok, cache_size=2)
        m.logprobs([1, 2])
        m.logprobs([3, 4])
        m.logprobs([1, 2])  # refresh recency
        m.logprobs([5, 6])  # should evict [3, 4], not [1, 2]
        assert m._context_key([1, 2]) in m._cache
        assert m._context_key([3, 4]) not in m._cache


class TestCountTablesStayOutOfTheCollector:
    def test_count_tables_are_untracked_in_the_model_and_its_replicas(self, lm):
        """The per-context count tables are plain int→int dicts, which
        CPython keeps out of the cyclic collector; as ``Counter`` instances
        every full collection walked all of them (tens of thousands per
        replica at full scale), a pause that landed in whatever allocated
        next — usually a compile."""
        import gc

        for model in (lm, lm.spec().build()):
            tables = [table for level in model._counts for table in level.values()]
            assert tables
            assert not any(gc.is_tracked(table) for table in tables)
