"""Exact-order lookahead: a shortest-path request that misses the logits
cache brings the heap's next pops along in the same model round.

What must hold at every width ``W`` (``batch_size``): the match stream and
the traversal counters are the ``W = 1`` stream and counters — lookahead
moves *when* a context is scored, never what is popped, counted or
yielded — and a query pays nothing for it before its first match, on a
cache hit, or beyond ``W - 1`` contexts per round it missed in.

Run in CI with a pinned seed::

    pytest -q tests/test_lookahead.py --hypothesis-seed=0
"""

from __future__ import annotations

import heapq
import itertools
from typing import Any, Sequence

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.api import prepare
from repro.core.executor import Executor, _LazyGroup, _peek_pops
from repro.core.query import QueryTokenizationStrategy, SearchQuery
from repro.core.scheduler import QueryBudget, QueryScheduler
from repro.lm.base import CountingModel, LanguageModel, LogitsCache, RoundPlan
from repro.lm.ngram import NGramModel
from repro.lm.transformer import TransformerConfig, TransformerModel
from repro.tokenizers.bpe import train_bpe

_CORPUS = [
    "the cat sat on the mat",
    "a dog ate the food",
    "cats and dogs ran fast",
    "the dog sat on a cat",
] * 15

_TOK = train_bpe(_CORPUS, vocab_size=200)
_NGRAM = NGramModel.train_on_text(_CORPUS, _TOK, order=4, alpha=0.2)

WIDTHS = (1, 2, 4, 8, 16)
_LIMIT = 40


def _transformer() -> TransformerModel:
    """A small fitted NumPy GPT (deterministic: same weights every call)."""
    config = TransformerConfig(
        vocab_size=len(_TOK), block_size=24, n_layer=1, n_head=2, n_embd=16
    )
    lm = TransformerModel(config, eos_id=_TOK.eos_id, seed=3)
    lm.fit([_TOK.encode(line) for line in _CORPUS], steps=40, batch_size=8, lr=1e-2, seed=0)
    return lm


_SPEC = _transformer().spec()


def _fresh_transformer() -> LanguageModel:
    """A replica with empty row / KV caches, so runs do not warm each other."""
    return _SPEC.build()


def _stream(model, query, width, limit=_LIMIT, **kwargs):
    session = prepare(
        model, _TOK, query, max_expansions=600, batch_size=width, **kwargs
    )
    return list(itertools.islice(session, limit)), session.stats


# -- (i) every width yields the width-1 stream -----------------------------------

_WORDS = ["cat", "dog", "mat", "the", "a", "sat", "ran"]
_atom = st.sampled_from(_WORDS)
_tail = st.one_of(
    st.lists(_atom, min_size=3, max_size=5, unique=True).map(
        lambda ws: "(" + "|".join(f"({w})" for w in ws) + ")( ((sat)|(ran)|(a)))?"
    ),
    st.tuples(_atom, _atom).map(lambda t: f"{t[0]}s?( {t[1]})?"),
    st.just("[a-d]{1,3}"),
    st.just("(cat|dog)s? [a-z]{1,2}"),
    st.just("[a-z]{1,2}( [a-z])?"),
    st.just("(cat )+"),  # cyclic: CANONICAL builds product rows on first touch
)
_lead = st.sampled_from(["the ", "a ", "(the|a) "])


@st.composite
def _queries(draw):
    lead, tail = draw(_lead), draw(_tail)
    return SearchQuery(
        lead + tail,
        prefix=lead if draw(st.booleans()) else None,
        top_k=draw(st.sampled_from([None, 8, 40])),
        require_eos=draw(st.booleans()),
        tokenization=draw(st.sampled_from(list(QueryTokenizationStrategy))),
    )


@settings(max_examples=40, deadline=None)
@given(query=_queries(), dedupe=st.booleans())
def test_ngram_stream_and_counters_equal_width_one(query, dedupe):
    want, want_stats = _stream(_NGRAM, query, 1, dedupe=dedupe)
    for width in WIDTHS[1:]:
        got, stats = _stream(_NGRAM, query, width, dedupe=dedupe)
        assert got == want  # MatchResult equality: every field, in order
        for counter in ("nodes_expanded", "pruned_edges", "lm_calls", "lm_batches",
                        "matches_yielded", "duplicates_suppressed"):
            assert getattr(stats, counter) == getattr(want_stats, counter), counter
        assert stats.logits_hits + stats.logits_misses == stats.lm_calls
    assert want_stats.lookahead_contexts == 0


@settings(max_examples=12, deadline=None, derandomize=True)
@given(query=_queries())
def test_transformer_stream_equals_width_one(query):
    want, want_stats = _stream(_fresh_transformer(), query, 1, limit=15)
    for width in WIDTHS[1:]:
        got, stats = _stream(_fresh_transformer(), query, width, limit=15)
        assert [(m.tokens, m.text, m.canonical, m.prefix_text) for m in got] == [
            (m.tokens, m.text, m.canonical, m.prefix_text) for m in want
        ]
        # Another round composition may move a BLAS sum's last bits.
        np.testing.assert_allclose(
            [(m.logprob, m.total_logprob) for m in got],
            [(m.logprob, m.total_logprob) for m in want],
            rtol=0, atol=1e-9,
        )
        assert stats.nodes_expanded == want_stats.nodes_expanded
        assert stats.lm_calls == want_stats.lm_calls


def test_default_width_is_the_models():
    query = SearchQuery("the [a-d]{1,3}")
    assert Executor(_NGRAM, prepare(_NGRAM, _TOK, query).compiled).batch_size == 1
    lm = _fresh_transformer()
    assert Executor(lm, prepare(lm, _TOK, query).compiled).batch_size == lm.round_width == 8
    _, stats = _stream(lm, query, None)
    assert stats.lookahead_contexts > 0 and stats.mean_batch_size > 1.0
    with pytest.raises(ValueError):
        prepare(lm, _TOK, query, batch_size=0)


# -- (ii) the heap walk is a non-mutating preview of the pops --------------------

def _pop_reference(heap: list[tuple], n: int) -> list[tuple]:
    """Pop a *copy* of the heap n times, the way ``_shortest_path`` does."""
    heap = list(heap)
    out = []
    while heap and len(out) < n:
        _, _, state, tokens, _, _ = heapq.heappop(heap)
        if type(state) is _LazyGroup:
            group, i = state, tokens
            if i + 1 < group.tok.size:
                heapq.heappush(
                    heap, (float(group.tot[i + 1]), group.base + i + 1, group, i + 1, 0.0, 0.0)
                )
            state, tokens = int(group.dst[i]), group.tokens + (int(group.tok[i]),)
        out.append((state, tokens))
    return out


_cost = st.sampled_from([0.0, 0.5, 0.5, 1.0, 1.25, 2.0, 3.5])  # ties on purpose


@settings(max_examples=60, deadline=None)
@given(
    entries=st.lists(
        st.one_of(_cost, st.lists(_cost, min_size=1, max_size=5)), min_size=0, max_size=12
    ),
    popped=st.integers(0, 4),
    n=st.integers(0, 20),
)
def test_peek_pops_equals_popping_a_copy(entries, popped, n):
    heap: list[tuple] = []
    counter = 0
    for entry in entries:
        if isinstance(entry, float):  # a plain node (state None: an EOS leaf)
            state = None if counter % 3 == 0 else counter
            heapq.heappush(heap, (entry, counter, state, (counter,), entry, 0.0))
            counter += 1
        else:  # one expansion's lazy group, members sorted by priority
            tot = np.sort(np.array(entry))
            size = tot.size
            group = _LazyGroup(
                np.arange(size) + 100, np.arange(size) + counter, tot, tot, counter, (7,)
            )
            heapq.heappush(heap, (float(tot[0]), counter, group, 0, 0.0, 0.0))
            counter += size
    for _ in range(min(popped, len(heap))):  # any heap shape, not only fresh pushes
        heapq.heappop(heap)
    snapshot = list(heap)
    assert list(itertools.islice(_peek_pops(heap), n)) == _pop_reference(heap, n)
    assert heap == snapshot


def test_peek_pops_on_a_live_heap_with_lazy_groups(monkeypatch):
    """On a real traversal (fan-out above the scalar cutoff, so the heap
    holds lazy groups) every lookahead is the preview of the full heap."""
    seen = []
    real = Executor._lookahead

    def checked(self, heap):
        assert list(_peek_pops(heap)) == _pop_reference(heap, len(heap) + 10_000)
        seen.append(any(type(entry[2]) is _LazyGroup for entry in heap))
        return real(self, heap)

    monkeypatch.setattr(Executor, "_lookahead", checked)
    _stream(_NGRAM, SearchQuery("the [a-z]{1,2}"), 4, limit=60)
    assert any(seen)


# -- (iii) nothing is paid before the first match --------------------------------

class _Recording(LanguageModel):
    """Records every model call's contexts.  Written like the benchmark's
    ``TimingModel``: ``.inner``, three copied attributes, a delegated
    ``prefix_cache`` — and nothing else."""

    def __init__(self, inner: LanguageModel) -> None:
        self.inner = inner
        self.vocab_size = inner.vocab_size
        self.eos_id = inner.eos_id
        self.max_sequence_length = inner.max_sequence_length
        self.calls: list[list[tuple[int, ...]]] = []

    @property
    def prefix_cache(self) -> Any | None:
        return getattr(self.inner, "prefix_cache", None)

    def logprobs(self, context: Sequence[int]) -> np.ndarray:
        self.calls.append([tuple(context)])
        return self.inner.logprobs(context)

    def logprobs_batch(self, contexts: Sequence[Sequence[int]]) -> list[np.ndarray]:
        self.calls.append([tuple(c) for c in contexts])
        return self.inner.logprobs_batch(contexts)


_RANK = SearchQuery("(the|a) (cat|dog|mat)( (sat|ran))?", prefix="(the|a) ")


@pytest.mark.parametrize("width", WIDTHS)
def test_calls_up_to_the_first_match_are_width_one(width):
    def first_match_calls(w):
        recording = _Recording(_fresh_transformer())
        session = prepare(recording, _TOK, _RANK, batch_size=w)
        first = next(iter(session))
        return first, recording.calls

    want_match, want_calls = first_match_calls(1)
    match, calls = first_match_calls(width)
    assert calls == want_calls
    assert match == want_match


@pytest.mark.parametrize("width", WIDTHS)
def test_a_first_match_only_query_scores_exactly_the_width_one_contexts(width):
    def run(w):
        counting = CountingModel(_fresh_transformer())
        scheduler = QueryScheduler(counting, _TOK, batch_size=w)
        handle = scheduler.submit(_RANK, budget=QueryBudget(max_results=1))
        scheduler.run()
        return counting.contexts_scored, counting.total_rounds, handle

    want_contexts, want_rounds, _ = run(1)
    contexts, rounds, handle = run(width)
    assert (contexts, rounds) == (want_contexts, want_rounds)
    assert handle.stats.lookahead_contexts == 0


@pytest.mark.parametrize("require_eos", [False, True])
def test_a_query_run_to_exhaustion_scores_exactly_the_width_one_contexts(require_eos):
    """Lookahead only offers nodes the pop loop will score: not EOS
    leaves, not dead ends, not nodes at ``max_tokens``.  So with no
    truncation to strand a prefetched row, nothing extra is ever scored."""
    query = SearchQuery(
        "(the|a) (cat|dog)s?( (sat|ran))?", sequence_length=4, require_eos=require_eos
    )

    def exhaust(width):
        recording = _Recording(_fresh_transformer())
        matches = list(prepare(recording, _TOK, query, batch_size=width))
        return matches, sorted(c for call in recording.calls for c in call)

    want_matches, want_contexts = exhaust(1)
    assert len(want_matches) > 4
    for width in WIDTHS[1:]:
        matches, contexts = exhaust(width)
        assert [m.tokens for m in matches] == [m.tokens for m in want_matches]
        assert contexts == want_contexts


# -- (iv) a hit never evaluates its lookahead ------------------------------------

def test_a_hit_never_evaluates_its_lookahead(monkeypatch):
    evaluations = []
    real = Executor._lookahead

    def spy(self, heap):
        evaluations.append(1)
        return real(self, heap)

    monkeypatch.setattr(Executor, "_lookahead", spy)
    counting = CountingModel(_fresh_transformer())
    cache = LogitsCache(counting, capacity=4096)
    cold = prepare(counting, _TOK, _RANK, logits_cache=cache)
    want = list(cold)
    # Evaluated once per round that missed after the first match, no more:
    # every other request (before the match, or a hit) left it alone.
    assert 0 < len(evaluations) <= counting.total_rounds
    assert len(evaluations) < cold.stats.lm_batches
    evaluations.clear()
    counting.reset()

    warm = prepare(counting, _TOK, _RANK, logits_cache=cache)
    assert list(warm) == want
    assert evaluations == [] and counting.contexts_scored == 0
    assert warm.stats.logits_misses == 0 and warm.stats.lookahead_contexts == 0

    scheduler = QueryScheduler(counting, _TOK, logits_cache=cache)
    handle = scheduler.submit(_RANK)
    scheduler.run()
    assert handle.results == want
    assert scheduler.stats.rounds == 0 and counting.contexts_scored == 0
    assert evaluations == []


# -- (v) budgets and cancellation cut where width 1 cuts -------------------------

def _budgeted(width, budget, clock_on_lm_calls=False):
    holder: list = []
    clock = (lambda: float(holder[0].stats.lm_calls) if holder else 0.0)
    scheduler = QueryScheduler(
        _fresh_transformer(), _TOK, batch_size=width,
        **({"clock": clock} if clock_on_lm_calls else {}),
    )
    holder.append(scheduler.submit(_RANK, budget=budget))
    scheduler.run()
    return holder[0]


@pytest.mark.parametrize("width", WIDTHS[1:])
def test_budgets_truncate_at_the_width_one_match_index(width):
    cases = [
        dict(budget=QueryBudget(max_lm_calls=25)),
        # A clock that reads the query's own lm_calls: the "deadline" is
        # the 30th scored context, a point every width reaches identically.
        dict(budget=QueryBudget(deadline=30.0), clock_on_lm_calls=True),
    ]
    for case in cases:
        want = _budgeted(1, **case)
        got = _budgeted(width, **case)
        assert got.truncated and got.truncated_reason == want.truncated_reason
        assert len(got.results) == len(want.results) > 0
        assert [m.tokens for m in got.results] == [m.tokens for m in want.results]
        assert got.stats.lm_calls == want.stats.lm_calls
        assert got.stats.lookahead_contexts > 0
    assert got.stats.lm_calls <= 30  # lookahead contexts are not calls


@pytest.mark.parametrize("width", WIDTHS)
def test_cancel_keeps_a_prefix_and_scores_nothing_more(width):
    """``cancel()`` lands at the next turn boundary, and where a turn ends
    depends on what was cached — so the cut is a prefix of the width-1
    stream, not a fixed index.  What lookahead must not do is score
    anything on a cancelled query's behalf."""
    full, _ = _stream(_fresh_transformer(), _RANK, 1)
    counting = CountingModel(_fresh_transformer())
    scheduler = QueryScheduler(counting, _TOK, batch_size=width)
    handle = scheduler.submit(_RANK)
    scored_at_cancel = None
    while scheduler.step():
        if scored_at_cancel is None and len(handle.results) >= 3:
            handle.cancel()
            scored_at_cancel = counting.contexts_scored
    assert handle.truncated_reason == "cancelled"
    assert 3 <= len(handle.results) < len(full)
    assert [m.tokens for m in handle.results] == [m.tokens for m in full[: len(handle.results)]]
    assert counting.contexts_scored == scored_at_cancel


# -- (vi) caches too small to hold a prefetch ------------------------------------

@pytest.mark.parametrize("width", [4, 16])
def test_one_row_cache_and_two_token_kv_budget_keep_the_stream(width):
    want, _ = _stream(_fresh_transformer(), _RANK, 1)
    model = _fresh_transformer()
    got, stats = _stream(model, _RANK, width, logits_cache=LogitsCache(model, capacity=1))
    assert [m.tokens for m in got] == [m.tokens for m in want]
    np.testing.assert_allclose(
        [m.total_logprob for m in got], [m.total_logprob for m in want], rtol=0, atol=1e-9
    )
    assert stats.lookahead_contexts > 0  # offered, then evicted: only wasteful

    tight = _fresh_transformer()
    per_token = 1 * 2 * 2 * 8 * 8  # n_layer x (K, V) x heads x head_dim x float64
    tight.enable_prefix_cache(2 * per_token)
    got, _ = _stream(tight, _RANK, width)
    assert [m.tokens for m in got] == [m.tokens for m in want]
    np.testing.assert_allclose(
        [m.total_logprob for m in got], [m.total_logprob for m in want], rtol=0, atol=1e-9
    )


# -- (vii) every driver agrees, within the waste bound ---------------------------

_PORTFOLIO = [
    SearchQuery("(the|a) (cat|dog|mat)( (sat|ran))?", prefix="(the|a) "),
    SearchQuery("the [a-d]{1,3}"),
    SearchQuery("(cat|dog)s? (sat|ran|ate)", top_k=40),
    SearchQuery("a (cat|dog) [a-c]{1,2}", prefix="a "),
]
_TOP = 25


def _scheduled(model, width, concurrency=4, cache=None):
    counting = CountingModel(model)
    scheduler = QueryScheduler(
        counting, _TOK, concurrency=concurrency,
        logits_cache=cache(counting) if cache is not None else None,
        batch_size=width, max_expansions=600,
    )
    handles = [
        scheduler.submit(q, budget=QueryBudget(max_results=_TOP)) for q in _PORTFOLIO
    ]
    scheduler.run()
    return handles, scheduler.stats, counting


def _assert_same_streams(got, want):
    for a, b in zip(got, want, strict=True):
        assert [(m.tokens, m.text, m.prefix_text) for m in a] == [
            (m.tokens, m.text, m.prefix_text) for m in b
        ]
        np.testing.assert_allclose(
            [(m.logprob, m.total_logprob) for m in a],
            [(m.logprob, m.total_logprob) for m in b],
            rtol=0, atol=1e-9,
        )


@pytest.fixture(scope="module")
def serial_streams():
    """The portfolio one query at a time at width 1: the reference."""
    return [_stream(_fresh_transformer(), query, 1, limit=_TOP)[0] for query in _PORTFOLIO]


@pytest.mark.parametrize("width", [None, 2, 16])
def test_serial_sessions_agree_within_the_waste_bound(serial_streams, width):
    want = serial_streams
    for query, stream in zip(_PORTFOLIO, want):
        base = CountingModel(_fresh_transformer())
        _stream(base, query, 1, limit=_TOP)
        counting = CountingModel(_fresh_transformer())
        got, stats = _stream(counting, query, width, limit=_TOP)
        _assert_same_streams([got], [stream])
        w = width or 8
        # The named waste bound: nothing is scored but what width 1 scores
        # plus the lookahead, and a round that missed adds at most W - 1.
        assert counting.contexts_scored <= base.contexts_scored + stats.lookahead_contexts
        assert stats.lookahead_contexts <= (w - 1) * counting.total_rounds
        assert counting.total_rounds < base.total_rounds


@pytest.mark.parametrize("concurrency", [1, 4])
def test_scheduler_agrees_with_serial(serial_streams, concurrency):
    want = serial_streams
    _, base_stats, base = _scheduled(_fresh_transformer(), 1, concurrency)
    handles, stats, counting = _scheduled(_fresh_transformer(), None, concurrency)
    _assert_same_streams([h.results for h in handles], want)
    ahead = sum(h.stats.lookahead_contexts for h in handles)
    assert 0 < ahead <= 7 * sum(h.stats.scheduler_rounds for h in handles)
    assert counting.contexts_scored <= base.contexts_scored + ahead
    assert stats.rounds < base_stats.rounds
    # Round sizes count what the forward amortised, lookahead included.
    needed = sum(h.stats.logits_misses + h.stats.logits_hits for h in handles)
    assert stats.contexts_serviced <= needed + ahead
    assert stats.contexts_serviced >= counting.contexts_scored
    for h in handles:
        assert h.stats.logits_hits + h.stats.logits_misses == h.stats.lm_calls


# -- harness-shaped proxies ------------------------------------------------------

class _SpanCache(LogitsCache):
    """Overrides the split-phase round with exactly the benchmark's
    ``TimingLogitsCache`` signatures (positional, no extra parameter)."""

    def __init__(self, model: LanguageModel, capacity: int = 65536) -> None:
        super().__init__(model, capacity=capacity)
        self.spans = 0

    def begin_round(self, groups: Sequence[Sequence[Sequence[int]]]) -> RoundPlan:
        self.spans += 1
        return super().begin_round(groups)

    def finish_round(
        self, plan: RoundPlan, fresh: Sequence[np.ndarray]
    ) -> tuple[list[list[np.ndarray]], list[int], list[int]]:
        self.spans += 1
        return super().finish_round(plan, fresh)


def test_inner_proxies_report_the_inner_width():
    lm = _fresh_transformer()
    assert _Recording(lm).round_width == 8
    assert _Recording(_Recording(lm)).round_width == 8
    assert CountingModel(_Recording(lm)).round_width == 8
    assert _Recording(_NGRAM).round_width == 1
    assert _NGRAM.round_width == 1


def test_proxied_model_and_overriding_cache_regroup_nothing():
    """A traced repetition (proxy model, overriding cache) must run the
    rounds an untraced one runs: same streams to the bit, same lookahead."""
    plain, plain_stats, plain_model = _scheduled(_fresh_transformer(), None)
    caches = []

    def span_cache(model):
        caches.append(_SpanCache(model))
        return caches[-1]

    proxied, stats, model = _scheduled(
        _Recording(_fresh_transformer()), None, cache=span_cache
    )
    assert [h.results for h in proxied] == [h.results for h in plain]  # bit-identical
    assert [h.stats.lookahead_contexts for h in proxied] == [
        h.stats.lookahead_contexts for h in plain
    ]
    assert sum(h.stats.lookahead_contexts for h in plain) > 0
    assert (stats.rounds, stats.contexts_serviced) == (
        plain_stats.rounds, plain_stats.contexts_serviced
    )
    assert model.contexts_scored == plain_model.contexts_scored
    assert caches[0].spans == 2 * stats.rounds
    assert caches[0].stats()["lookahead_rows"] == sum(
        h.stats.lookahead_contexts for h in proxied
    )


def test_cache_counts_lookahead_rows_apart_from_misses():
    cache = LogitsCache(_NGRAM, capacity=64)
    plan = cache.begin_round([[(1,), (2,)]])
    assert cache.add_lookahead(plan, [(3,), (2,), (3,), (4,)]) == 2  # (2,) is needed anyway
    assert plan.missing_contexts() == [(1,), (2,), (3,), (4,)]
    assert plan.total_contexts == 4
    rows, hits, misses = cache.finish_round(plan, _NGRAM.logprobs_batch(plan.missing_contexts()))
    assert (hits, misses) == ([0], [2]) and len(rows[0]) == 2
    assert cache.stats()["misses"] == 2 and cache.stats()["lookahead_rows"] == 2
    assert cache.hits + cache.misses == 2  # lookahead rows are neither
    np.testing.assert_array_equal(cache.cached_rows([(4,)])[0], _NGRAM.logprobs((4,)))
    again = cache.begin_round([[(5,)]])
    assert cache.add_lookahead(again, [(3,), (4,)]) == 0  # cached: nothing to bring

