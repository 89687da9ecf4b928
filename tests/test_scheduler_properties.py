"""Property-based tests of the multi-query scheduler's serial equivalence.

For random mixes of regex patterns, traversal strategies, seeds,
concurrency caps, and result budgets, interleaving queries through the
scheduler must never change what any query produces: under round-robin
rotation each query's match stream (texts, tokens, log-probabilities,
order) is identical to a standalone serial run, and the scheduler's merged
stream is exactly a permutation of the serial per-query streams that
preserves each query's internal order.

Run in CI with a pinned seed::

    pytest -q tests/test_scheduler_properties.py --hypothesis-seed=0
"""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.api import prepare
from repro.core.query import QuerySearchStrategy, SearchQuery
from repro.core.scheduler import QueryBudget, QueryScheduler
from repro.lm.ngram import NGramModel
from repro.tokenizers.bpe import train_bpe

_CORPUS = [
    "the cat sat on the mat",
    "a dog ate the food",
    "cats and dogs ran fast",
] * 15

_TOK = train_bpe(_CORPUS, vocab_size=200)
_MODEL = NGramModel.train_on_text(_CORPUS, _TOK, order=4, alpha=0.2)

_WORDS = ["cat", "dog", "mat", "the", "a", "sat", "ran"]
_atom = st.sampled_from(_WORDS)
_pattern = st.one_of(
    st.lists(_atom, min_size=2, max_size=4, unique=True).map(
        lambda ws: "(" + "|".join(f"({w})" for w in ws) + ")"
    ),
    st.tuples(_atom, _atom).map(lambda t: f"{t[0]} {t[1]}"),
    st.tuples(_atom, _atom, _atom).map(lambda t: f"{t[0]} (({t[1]})|({t[2]}))"),
)

_query = st.one_of(
    st.tuples(_pattern, st.integers(0, 1000)).map(
        lambda t: SearchQuery(t[0], seed=t[1])
    ),
    st.tuples(_pattern, st.integers(0, 1000)).map(
        lambda t: SearchQuery(
            t[0],
            strategy=QuerySearchStrategy.RANDOM_SAMPLING,
            num_samples=6,
            seed=t[1],
        )
    ),
)

_LIMIT = 12


def _serial(query):
    matches = []
    session = prepare(
        _MODEL, _TOK, query, max_expansions=2000, max_attempts=200
    )
    for match in session:
        matches.append(match)
        if len(matches) >= _LIMIT:
            break
    return matches


def _row(match):
    return (match.text, match.tokens, match.logprob, match.total_logprob)


@settings(max_examples=20, deadline=None)
@given(
    queries=st.lists(_query, min_size=2, max_size=4),
    concurrency=st.integers(1, 4),
)
def test_scheduled_streams_equal_serial_streams(queries, concurrency):
    """Every query's scheduled output is bit-identical to its serial run,
    for any mix of traversals and any concurrency cap."""
    serial = [_serial(q) for q in queries]
    scheduler = QueryScheduler(
        _MODEL, _TOK, concurrency=concurrency,
        max_expansions=2000, max_attempts=200,
    )
    handles = [
        scheduler.submit(q, budget=QueryBudget(max_results=_LIMIT), name=f"q{i}")
        for i, q in enumerate(queries)
    ]
    scheduler.run()
    for handle, want in zip(handles, serial):
        assert [_row(m) for m in handle.results] == [_row(m) for m in want]


@settings(max_examples=15, deadline=None)
@given(
    queries=st.lists(_query, min_size=2, max_size=3),
    concurrency=st.integers(1, 3),
)
def test_merged_stream_is_order_preserving_permutation(queries, concurrency):
    """The merged stream holds exactly the union of the serial streams, and
    restricting it to one query recovers that query's serial order."""
    serial = [_serial(q) for q in queries]
    scheduler = QueryScheduler(
        _MODEL, _TOK, concurrency=concurrency, record_history=True,
        max_expansions=2000, max_attempts=200,
    )
    names = [f"q{i}" for i in range(len(queries))]
    for name, query in zip(names, queries):
        scheduler.submit(query, budget=QueryBudget(max_results=_LIMIT), name=name)
    scheduler.run()
    merged = scheduler.merged
    assert len(merged) == sum(len(s) for s in serial)
    for name, want in zip(names, serial):
        projected = [_row(m) for n, m in merged if n == name]
        assert projected == [_row(m) for m in want]


@settings(max_examples=15, deadline=None)
@given(
    queries=st.lists(_query, min_size=2, max_size=3),
    limit=st.integers(1, 4),
)
def test_result_budget_yields_serial_prefix(queries, limit):
    """A ``max_results`` budget truncates each query to exactly the first
    *limit* matches of its serial stream."""
    serial = [_serial(q) for q in queries]
    scheduler = QueryScheduler(
        _MODEL, _TOK, concurrency=len(queries),
        max_expansions=2000, max_attempts=200,
    )
    handles = [
        scheduler.submit(q, budget=QueryBudget(max_results=limit))
        for q in queries
    ]
    scheduler.run()
    for handle, want in zip(handles, serial):
        assert [_row(m) for m in handle.results] == [_row(m) for m in want[:limit]]
        if len(want) > limit:
            assert handle.truncated and handle.truncated_reason == "max_results"
