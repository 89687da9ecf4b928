"""Rows keyed by what the model reads (``LanguageModel.row_key``).

An n-gram row depends only on the EOS-padded order-(n-1) suffix of its
context, so the logits cache stores one row per suffix and every context
whose row it already holds is a hit.  What must hold:

* the key is a pure, idempotent function of the context that equals the
  n-gram's original padded-list definition, and scoring the key gives the
  context's row to the bit;
* proxies (``.inner``) report the wrapped model's key; the transformer
  keeps the whole context (``tuple``);
* every execution path (serial executor, scheduler at concurrency 1 and 4)
  yields the stream it yields over a cache keyed by whole
  contexts (:class:`tests.reference.FullContextLogitsCache`), with the same
  counters apart from cache hits / misses and the model rounds they cause;
* a checkpoint whose rows are keyed by whole contexts resumes with every
  row usable.

Run in CI with a pinned seed::

    pytest -q tests/test_row_key.py --hypothesis-seed=0
"""

from __future__ import annotations

import dataclasses
from typing import Any, Sequence

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.checkpoint import RunCheckpoint, save_checkpoint
from repro.core.compiler import GraphCompiler
from repro.core.executor import Executor
from repro.core.query import SearchQuery
from repro.core.scheduler import QueryBudget, QueryScheduler
from repro.experiments.bias import FIGURE7_CONFIGS, bias_query
from repro.experiments.knowledge import birthdate_query, knowledge_world, month_query
from repro.experiments.lambada_eval import build_query
from repro.experiments.memorization import URL_PATTERN, URL_PREFIX_REGEX
from repro.lm.base import CountingModel, LanguageModel, LogitsCache
from repro.lm.ngram import NGramModel
from repro.lm.transformer import TransformerConfig, TransformerModel
from repro.tokenizers.bpe import train_bpe
from tests.reference import FullContextLogitsCache, padded_context_key, reference_drive

_CORPUS = [
    "the cat sat on the mat",
    "a dog ate the food",
    "cats and dogs ran fast",
] * 10
_TOK = train_bpe(_CORPUS, vocab_size=120)
_MODELS = {
    order: NGramModel.train_on_text(_CORPUS, _TOK, order=order, alpha=0.2)
    for order in (1, 2, 4, 6)
}


# -- the key ---------------------------------------------------------------------

@st.composite
def _contexts(draw, order: int) -> list[int]:
    """Ordinary ids, with EOS spliced in at drawn positions or not at all."""
    ids = draw(st.lists(st.integers(0, _TOK.eos_id - 1), max_size=3 * order))
    for at in draw(st.lists(st.integers(0, len(ids)), max_size=2)):
        ids.insert(at, _TOK.eos_id)
    return ids


@settings(max_examples=80, deadline=None)
@given(data=st.data(), order=st.sampled_from(sorted(_MODELS)), as_tuple=st.booleans())
def test_ngram_row_is_the_row_of_its_key(data, order, as_tuple):
    model = _MODELS[order]
    context = data.draw(_contexts(order))
    if as_tuple:
        context = tuple(context)
    key = model.row_key(context)
    assert key == padded_context_key(model, context)
    assert model.row_key(key) == key
    assert len(key) == order - 1
    # Fresh replicas: neither row may come from the model's own LRU.
    by_context = model.spec().build().logprobs(context)
    by_key = model.spec().build().logprobs(key)
    assert by_context.tobytes() == by_key.tobytes()
    (batched,) = model.spec().build().logprobs_batch([context])
    assert batched.tobytes() == by_key.tobytes()


class _Timing(LanguageModel):
    """Shaped like the benchmark's ``TimingModel``: ``.inner``, three copied
    attributes, a delegated ``prefix_cache`` — and nothing else."""

    def __init__(self, inner: LanguageModel) -> None:
        self.inner = inner
        self.vocab_size = inner.vocab_size
        self.eos_id = inner.eos_id
        self.max_sequence_length = inner.max_sequence_length

    @property
    def prefix_cache(self) -> Any | None:
        return getattr(self.inner, "prefix_cache", None)

    def logprobs(self, context: Sequence[int]) -> np.ndarray:
        return self.inner.logprobs(context)

    def logprobs_batch(self, contexts: Sequence[Sequence[int]]) -> list[np.ndarray]:
        return self.inner.logprobs_batch(contexts)


def test_proxies_report_the_inner_key():
    ngram = _MODELS[4]
    context = (5, 6, 7, 8, 9)
    for proxy in (
        CountingModel(ngram),
        _Timing(_Timing(ngram)),
        CountingModel(_Timing(_Timing(ngram))),
    ):
        assert proxy.row_key == ngram.row_key
        assert proxy.row_key(context) == (7, 8, 9)
        assert LogitsCache(proxy)._key(context) == (7, 8, 9)
    config = TransformerConfig(vocab_size=len(_TOK), block_size=8, n_layer=1, n_head=1, n_embd=8)
    transformer = TransformerModel(config, eos_id=_TOK.eos_id, seed=0)
    assert transformer.row_key is tuple
    assert _Timing(_Timing(transformer)).row_key is tuple
    assert CountingModel(transformer).row_key(context) == context


def test_contexts_sharing_a_key_share_one_row():
    """Two contexts with one suffix: one miss, one hit, one model context."""
    counting = CountingModel(_MODELS[4])
    cache = LogitsCache(counting, capacity=16)
    (rows,), hits, misses = cache.logprobs_round([[(1, 5, 6, 7), (2, 5, 6, 7)]])
    assert (hits, misses) == ([1], [1])
    assert rows[0] is rows[1]
    assert counting.contexts_scored == 1
    assert cache.cached_rows([(3, 3, 5, 6, 7)])[0] is rows[0]
    plan = cache.begin_round([[(9, 9, 9)]])
    assert cache.add_lookahead(plan, [(1, 1, 1), (0, 1, 1, 1), (2, 2)]) == 2
    assert plan.missing_contexts() == [(9, 9, 9), (1, 1, 1), (2, 2)]


# -- every execution path: the full-context-keyed stream -------------------------

_LIMIT = 25
_EXPANSIONS = 3000
#: Counters a row key may move: hits / misses by definition, and the model
#: rounds those misses cost (a round is for misses).
_MAY_MOVE = {"logits_hits", "logits_misses", "scheduler_rounds"}


def _environment_portfolio(env) -> list:
    items = env.lambada.items[:2]
    return [
        SearchQuery(URL_PATTERN, prefix=URL_PREFIX_REGEX, top_k=40, sequence_length=24),
        bias_query(FIGURE7_CONFIGS[0], None, num_samples=_LIMIT, seed=0),
        bias_query(FIGURE7_CONFIGS[1], "female", num_samples=_LIMIT, seed=1),
        *(build_query(item, strategy) for item in items for strategy in ("words", "terminated")),
    ]


def _knowledge_portfolio() -> list:
    return [
        query(subject)
        for subject in ("George Washington", "John Adams")
        for query in (birthdate_query, month_query)
    ]


def _serial(model, tokenizer, queries, cache):
    compiler = GraphCompiler(tokenizer)
    out = []
    for query in queries:
        compiled = compiler.compile(query)
        executor = Executor(model, compiled, logits_cache=cache, max_expansions=_EXPANSIONS)
        results = []
        for match in reference_drive(executor):
            results.append(match)
            if len(results) >= _LIMIT:
                break
        out.append((results, executor.stats))
    return out


def _scheduled(model, tokenizer, queries, cache, concurrency, limit=_LIMIT):
    scheduler = QueryScheduler(
        model, tokenizer, logits_cache=cache, concurrency=concurrency,
        max_expansions=_EXPANSIONS,
    )
    handles = [scheduler.submit(q, budget=QueryBudget(max_results=limit)) for q in queries]
    scheduler.run()
    return [(h.results, h.stats) for h in handles]


def _assert_agrees(got, want, reference):
    """*got* streams equal *want*'s; counters equal *reference*'s (the
    same path over the full-context cache) except :data:`_MAY_MOVE`."""
    assert [results for results, _ in got] == [results for results, _ in want]
    for (_, stats), (_, ref_stats) in zip(got, reference):
        for f in dataclasses.fields(stats):
            if f.name not in _MAY_MOVE:
                assert getattr(stats, f.name) == getattr(ref_stats, f.name), f.name
        assert stats.logits_hits + stats.logits_misses == stats.lm_calls
        assert stats.logits_misses <= ref_stats.logits_misses
        assert stats.scheduler_rounds <= ref_stats.scheduler_rounds


def _check_every_path(model, tokenizer, queries):
    def caches():
        return LogitsCache(model, capacity=65536), FullContextLogitsCache(model, capacity=65536)

    keyed, full = caches()
    want = _serial(model, tokenizer, queries, full)
    assert sum(len(results) for results, _ in want) > 0
    _assert_agrees(_serial(model, tokenizer, queries, keyed), want, want)
    assert keyed.misses < full.misses  # the portfolio does share rows
    for concurrency in (1, 4):
        keyed, full = caches()
        reference = _scheduled(model, tokenizer, queries, full, concurrency)
        _assert_agrees(reference, want, reference)
        _assert_agrees(_scheduled(model, tokenizer, queries, keyed, concurrency), want, reference)


def test_environment_queries_agree_on_every_path(env):
    """url (E1/E2), bias (E3/E4) and lambada (E7) queries."""
    _check_every_path(env.model_xl, env.tokenizer, _environment_portfolio(env))


def test_knowledge_queries_agree_on_every_path():
    world = knowledge_world(0)
    _check_every_path(world.model_xl, world.tokenizer, _knowledge_portfolio())


# -- checkpoints written under whole-context keys --------------------------------

def test_full_context_checkpoint_rows_all_resume(env, tmp_path):
    """Rows a pre-``row_key`` cache dumped (keyed by whole contexts)
    preload under their row keys: the resumed query scores nothing."""
    model = env.model_xl
    query = SearchQuery(URL_PATTERN, prefix=URL_PREFIX_REGEX, top_k=40, sequence_length=24)
    full = FullContextLogitsCache(model, capacity=65536)
    # Long enough that whole contexts repeat row keys (351 rows, 318 keys).
    ((want, _),) = _scheduled(model, env.tokenizer, [query], full, 1, limit=200)
    rows = full.dump_rows()
    assert len({model.row_key(context) for context, _ in rows}) < len(rows)
    path = str(tmp_path / "sweep.ckpt")
    save_checkpoint(path, RunCheckpoint(cache_rows=rows))

    counting = CountingModel(model)
    cache = LogitsCache(counting, capacity=65536)
    scheduler = QueryScheduler(
        counting, env.tokenizer, logits_cache=cache, concurrency=1,
        checkpoint_path=path, resume=True, max_expansions=_EXPANSIONS,
    )
    handle = scheduler.submit(query, budget=QueryBudget(max_results=200))
    scheduler.run()
    assert handle.results == want
    assert counting.contexts_scored == 0
    assert cache.misses == 0 and cache.hits == handle.stats.lm_calls
    assert set(cache._store) == {model.row_key(context) for context, _ in rows}


@pytest.mark.parametrize("order", sorted(_MODELS))
def test_preload_is_idempotent_on_keys(order):
    model = _MODELS[order]
    source = LogitsCache(model, capacity=64)
    source.logprobs_batch([(1, 2, 3, 4, 5), (2, 3), ()])
    restored = LogitsCache(model, capacity=64)
    restored.preload(source.dump_rows())
    assert list(restored._store) == list(source._store)
