"""Differential + count suite for the transformer's fused cached rounds.

With the prefix cache attached, ``TransformerModel.logprobs_batch`` scores
a round in *waves*: rows sharing the smallest uncached chunk run as one
``_forward_infer`` over a depth-padded K/V slab.  Three things must hold:

* **Differential** — whatever the cache holds (mixed depths, in-call
  chains, evictions mid-call, cleared or invalidated between calls), every
  row equals the from-scratch ``_forward`` row at 1e-9, a row scored alone
  equals the same row scored beside deeper and shallower mates at 1e-12
  (padding never leaks), and the stored state is the one a ``B = 1`` call
  stores.
* **Counts** — one forward per steady-state round, ``L`` for a cold chain
  of ``L`` prefixes, one cache charge per scored context.  Exact counts, not
  millisecond gates.
* **Duplicates** inside one call are scored once and fanned out.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.scheduler import QueryBudget, QueryScheduler
from repro.experiments.knowledge import FACTS, birthdate_query, knowledge_world
from repro.lm.transformer import TransformerConfig, TransformerModel

VOCAB = 13
EOS = 0
CONFIG = TransformerConfig(vocab_size=VOCAB, block_size=8, n_layer=2, n_head=2, n_embd=8)
H, HD = CONFIG.n_head, CONFIG.n_embd // CONFIG.n_head
#: Bytes of the state cached for a one-token prefix.
TOKEN_BYTES = CONFIG.n_layer * 2 * H * HD * 8


def make_model(kv_bytes: int | None = 1 << 20, seed: int = 3) -> TransformerModel:
    model = TransformerModel(CONFIG, eos_id=EOS, seed=seed, kv_cache_mb=None)
    if kv_bytes:
        model.enable_prefix_cache(kv_bytes)
    return model


def full_forward_row(model: TransformerModel, context) -> np.ndarray:
    """``log p(next | context)`` by the training forward, cache untouched."""
    idx = np.asarray([model._clip_context(context)], dtype=np.int64)
    last = model._forward(idx)[0][0, -1]
    last = last - last.max()
    return last - np.log(np.exp(last).sum())


def spy_on_forwards(model: TransformerModel) -> list[tuple[int, int, tuple[int, ...]]]:
    """Record ``(B, S, depths)`` of every ``_forward_infer`` call."""
    calls: list[tuple[int, int, tuple[int, ...]]] = []
    inner = model._forward_infer

    def spy(idx, kv, depths):
        calls.append((*idx.shape, tuple(int(d) for d in depths)))
        return inner(idx, kv, depths)

    model._forward_infer = spy  # type: ignore[method-assign]
    return calls


# A round draws prefixes (and over-long extensions, which clip) of a few
# base sequences, so one call mixes cached depths, parent/child chains,
# the empty context and duplicates.
_BASES = st.lists(
    st.lists(st.integers(0, VOCAB - 1), min_size=1, max_size=12), min_size=1, max_size=3
)


@st.composite
def _rounds(draw):
    bases = draw(_BASES)
    cut = st.tuples(st.integers(0, len(bases) - 1), st.integers(0, 12))
    rounds = draw(
        st.lists(st.lists(cut, min_size=1, max_size=8), min_size=1, max_size=4)
    )
    return [[bases[b][:n] for b, n in picks] for picks in rounds]


#: Smaller than one three-token state, a handful of states, roomy.
_BUDGETS = st.sampled_from([2 * TOKEN_BYTES, 12 * TOKEN_BYTES, 1 << 20])
_BETWEEN = st.sampled_from(["keep", "clear", "train"])


class TestRoundsMatchFullForward:
    @settings(max_examples=60, deadline=None)
    @given(rounds=_rounds(), budget=_BUDGETS, between=st.lists(_BETWEEN, min_size=4, max_size=4))
    def test_every_row_equals_from_scratch_forward(self, rounds, budget, between):
        model = make_model(budget)
        cache = model.prefix_cache
        for contexts, after in zip(rounds, between):
            charged = cache.hits + cache.misses
            rows = model.logprobs_batch(contexts)
            assert len(rows) == len(contexts)
            for ctx, row in zip(contexts, rows):
                assert np.allclose(row, full_forward_row(model, ctx), atol=1e-9), ctx
            distinct = {tuple(model._clip_context(ctx)) for ctx in contexts}
            assert cache.hits + cache.misses - charged == len(distinct)
            assert cache.bytes <= budget
            if after == "clear":
                cache.clear()
            elif after == "train":
                idx = np.array([[1, 2, 3, 4]], dtype=np.int64)
                _, grads = model.loss_and_grads(idx, idx[:, ::-1].copy())
                model.adam_step(grads)
                assert len(cache) == 0  # stale K/V must not survive new weights

    @settings(max_examples=40, deadline=None)
    @given(
        target=st.lists(st.integers(1, VOCAB - 1), min_size=2, max_size=7),
        mates=st.lists(
            st.lists(st.integers(1, VOCAB - 1), min_size=2, max_size=7),
            min_size=1, max_size=5,
        ),
    )
    def test_padding_never_leaks_between_rows(self, target, mates):
        """A context scored alone == the same context in a round with
        deeper and shallower mates, and both store the same state."""
        alone, together = make_model(), make_model()
        alone.logprobs_batch([target[:-1]])
        together.logprobs_batch([ctx[:-1] for ctx in [target, *mates]])
        calls = spy_on_forwards(together)
        row_alone = alone.logprobs_batch([target])[0]
        row_round = together.logprobs_batch([*mates, target])[-1]
        assert len(calls) == 1 and calls[0][1] == 1  # one single-token wave
        assert np.allclose(row_alone, row_round, atol=1e-12)
        state_alone = alone.prefix_cache.get(target)
        state_round = together.prefix_cache.get(target)
        assert state_round.shape == (CONFIG.n_layer, 2, H, len(target), HD)
        assert state_round.flags["C_CONTIGUOUS"] and state_round.base is None
        assert np.allclose(state_alone, state_round, atol=1e-12)


class TestForwardCounts:
    def test_steady_state_round_at_mixed_depths_is_one_forward(self):
        model = make_model()
        chains = [[1, 2, 3], [4, 5, 6, 7, 8], [4, 5, 6, 7, 9], [2, 2, 2, 2, 2, 2, 2], [5]]
        model.logprobs_batch([chain[:-1] for chain in chains])
        calls = spy_on_forwards(model)
        before = dict(model.prefix_cache.stats())
        model.logprobs_batch(chains)
        # [5]'s parent is the empty context: depth 0 beside depths 2, 4, 6.
        assert calls == [(5, 1, (2, 4, 4, 6, 0))]
        after = model.prefix_cache.stats()
        assert after["hits"] - before["hits"] == 4
        assert after["misses"] - before["misses"] == 1

    def test_cold_chain_of_prefixes_is_one_forward_per_prefix(self):
        model = make_model()
        calls = spy_on_forwards(model)
        chain = [3, 1, 4, 1, 5, 9, 2]
        model.logprobs_batch([chain[:n] for n in range(len(chain), 0, -1)])
        # Shortest first whatever the request order; each wave feeds the next.
        assert calls == [(1, 1, (n,)) for n in range(len(chain))]
        assert model.prefix_cache.stats()["misses"] == 1
        assert model.prefix_cache.stats()["hits"] == len(chain) - 1

    def test_row_with_evicted_parent_lands_in_a_later_wave(self):
        model = make_model()
        model.logprobs_batch([[1, 2, 3], [4, 5]])
        calls = spy_on_forwards(model)
        rows = model.logprobs_batch([[1, 2, 3, 6], [7, 8, 9], [4, 5, 6]])
        assert calls == [(2, 1, (3, 2)), (1, 3, (0,))]
        assert np.allclose(rows[1], full_forward_row(model, [7, 8, 9]), atol=1e-9)

    def test_eviction_mid_call_still_terminates_and_matches(self):
        model = make_model(2 * TOKEN_BYTES)  # holds a two-token state, nothing longer
        chain = [3, 1, 4, 1, 5]
        calls = spy_on_forwards(model)
        rows = model.logprobs_batch([chain[:n] for n in range(1, 6)])
        for n, row in enumerate(rows, start=1):
            assert np.allclose(row, full_forward_row(model, chain[:n]), atol=1e-9)
        assert len(calls) == len(chain)
        assert model.prefix_cache.evictions > 0

    def test_scheduler_run_charges_one_lookup_per_scored_context(self):
        tokenizer = knowledge_world(0).tokenizer
        model = TransformerModel(
            TransformerConfig(
                vocab_size=len(tokenizer), block_size=32, n_layer=2, n_head=2, n_embd=16
            ),
            eos_id=tokenizer.eos_id, seed=0, kv_cache_mb=8.0,
        )
        calls = spy_on_forwards(model)
        scored: list[int] = []
        inner = model.logprobs_batch

        def counting_batch(contexts):
            scored.append(len({tuple(model._clip_context(c)) for c in contexts}))
            return inner(contexts)

        model.logprobs_batch = counting_batch  # type: ignore[method-assign]
        scheduler = QueryScheduler(model, tokenizer, concurrency=4)
        for subject, _ in FACTS:
            scheduler.submit(
                birthdate_query(subject), name=subject, budget=QueryBudget(max_results=8)
            )
        handles = scheduler.run()
        assert all(len(handle.results) == 8 for handle in handles)
        rounds = scheduler.stats.rounds
        assert rounds == len(scored) > 20
        # One wave per steady-state round; only the four prefix
        # fast-forwards (one in-call chain each) need more.
        assert rounds <= len(calls) < 2 * rounds
        stats = model.prefix_cache.stats()
        assert stats["hits"] + stats["misses"] == sum(scored)
        assert sum(batch for batch, _, _ in calls) == sum(scored)


class TestDuplicateContexts:
    def test_duplicates_share_one_row_and_one_state(self):
        model = make_model()
        calls = spy_on_forwards(model)
        rows = model.logprobs_batch([[1, 2], [3], [1, 2], [1, 2]])
        assert rows[0] is rows[2] is rows[3]
        assert calls == [(1, 1, (0,)), (1, 2, (0,))]
        assert len(model.prefix_cache) == 2
        stats = model.prefix_cache.stats()
        assert stats["hits"] + stats["misses"] == 2

    def test_contexts_equal_after_clipping_are_duplicates(self):
        model = make_model()
        long = list(range(1, 12))
        rows = model.logprobs_batch([long, long[-(CONFIG.block_size - 1):], []])
        assert rows[0] is rows[1]
        assert len(model.prefix_cache) == 2
        assert np.allclose(rows[2], full_forward_row(model, [EOS]), atol=1e-9)


@pytest.mark.parametrize("length", [CONFIG.block_size - 1, CONFIG.block_size + 3])
def test_block_boundary_contexts_match(length):
    model = make_model()
    chain = [(3 * t) % (VOCAB - 1) + 1 for t in range(length)]
    for n in (length - 1, length):
        row = model.logprobs_batch([chain[:n]])[0]
        assert np.allclose(row, full_forward_row(model, chain[:n]), atol=1e-9)
