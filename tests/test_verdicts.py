"""Verdicts computed once: canonicity checked chunk by chunk, ``decode``
by table, and a top-k rule's threshold memoised per row.

Each fast form is compared with the form it replaced, kept in
:mod:`tests.reference` or still in ``src/`` as the slow path:

* ``BPETokenizer.is_canonical`` and the pair rule
  (``BPETokenizer.may_follow``, token by token) equal the re-encode form
  (``ids == encode(decode(ids))``) on canonical encodings,
  ``encode_noncanonical`` outputs, their prefixes and random id sequences
  with specials spliced in;
* ``Vocabulary.decode`` equals the per-id loop;
* :class:`~repro.lm.decoding.RowVerdicts` equals
  ``(scaled_logprobs, allowed_mask)`` on rows with threshold ties,
  ``top_k >= V``, ``-inf`` entries, ``temperature != 1`` and ``top_p``,
  judges a row once, and never keeps alive a row the logits cache
  evicted — nor do random sampling's step tables, kept in the same
  :class:`~repro.lm.decoding.RowMemo`.

Run in CI with a pinned seed::

    pytest -q tests/test_verdicts.py --hypothesis-seed=0
"""

from __future__ import annotations

import gc
import itertools
import random
import weakref
from typing import Sequence

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.api import prepare
from repro.core.query import QuerySearchStrategy, SearchQuery
from repro.lm.base import LanguageModel, LogitsCache
from repro.lm.decoding import DecodingPolicy, RowVerdicts
from repro.lm.ngram import NGramModel
from tests.conftest import TINY_CORPUS, build_tokenizer
from tests.reference import (
    canonical_by_pair_rule,
    reference_decode,
    reference_is_canonical,
)

_TOK = build_tokenizer()
_V = len(_TOK)
_TEXT = st.text(alphabet="The cat sat on mat.,:/ w0123456789ABCxyz\n", max_size=40)


# -- canonicity ------------------------------------------------------------------

def _assert_checks_agree(ids: Sequence[int]) -> None:
    for j in range(len(ids) + 1):
        head = list(ids[:j])
        want = reference_is_canonical(_TOK, head)
        assert _TOK.is_canonical(head) is want, head
        assert _TOK.is_canonical(tuple(head), _TOK.decode(head)) is want, head
        assert canonical_by_pair_rule(_TOK, head) is want, head


@settings(max_examples=150, deadline=None)
@given(text=_TEXT, seed=st.integers(0, 2**16))
def test_canonicity_on_encodings(text, seed):
    canonical = _TOK.encode(text)
    assert _TOK.is_canonical(canonical)
    _assert_checks_agree(canonical)
    _assert_checks_agree(_TOK.encode_noncanonical(text, random.Random(seed)))


@settings(max_examples=150, deadline=None)
@given(
    ids=st.lists(st.integers(0, _V - 1), max_size=12),
    specials=st.lists(st.integers(0, 12), max_size=3),
)
def test_canonicity_on_random_ids_with_specials(ids, specials):
    for at in specials:
        ids.insert(min(at, len(ids)), _TOK.eos_id)
    _assert_checks_agree(ids)
    assert _TOK.decode(ids) == reference_decode(_TOK.vocab, ids)


def test_decode_table_equals_the_loop_on_every_id():
    for i in range(_V):
        assert _TOK.vocab.decode([i]) == reference_decode(_TOK.vocab, [i])
    assert _TOK.vocab.decode([_TOK.eos_id]) == ""
    every = list(range(_V)) * 2
    assert _TOK.vocab.decode(every) == reference_decode(_TOK.vocab, every)
    assert _TOK.vocab.decode(np.arange(_V)) == reference_decode(_TOK.vocab, range(_V))


# -- top-k thresholds -----------------------------------------------------------

_ENTRY = st.one_of(
    st.sampled_from([-np.inf, -4.0, -2.0, -1.0, -0.5]),  # ties and -inf
    st.floats(-30.0, 0.0),
)


@st.composite
def _rows(draw) -> np.ndarray:
    entries = draw(st.lists(_ENTRY, min_size=1, max_size=24))
    entries[draw(st.integers(0, len(entries) - 1))] = draw(st.floats(-3.0, 0.0))
    return np.array(entries, dtype=float)


@settings(max_examples=300, deadline=None)
@given(
    row=_rows(),
    top_k=st.one_of(st.none(), st.integers(1, 30)),
    top_p=st.sampled_from([None, 0.3, 0.9, 1.0]),
    temperature=st.sampled_from([1.0, 0.5, 2.0]),
)
def test_memoised_mask_equals_allowed_mask(row, top_k, top_p, temperature):
    policy = DecodingPolicy(top_k=top_k, top_p=top_p, temperature=temperature)
    verdicts = RowVerdicts(policy)
    want_scaled, want_mask = policy.scaled_logprobs(row), policy.allowed_mask(row)
    for _ in range(2):  # first sight, then from the memo
        scaled, mask = verdicts(row)
        assert scaled.tobytes() == want_scaled.tobytes()
        assert mask.dtype == bool and np.array_equal(mask, want_mask)


def test_threshold_cases_by_hand():
    tied = np.array([-1.0, -2.0, -2.0, -2.0, -3.0])
    assert RowVerdicts(DecodingPolicy(top_k=2))._threshold(tied) is None  # 4 reach -2
    assert RowVerdicts(DecodingPolicy(top_k=4))._threshold(tied) == -2.0
    assert RowVerdicts(DecodingPolicy(top_k=5))._threshold(tied) == -np.inf  # k covers V
    sparse = np.array([-np.inf, -1.0, -np.inf])
    assert RowVerdicts(DecodingPolicy(top_k=2))._threshold(sparse) == -np.inf
    for k in (1, 2, 3, 4, 5, 9):
        policy = DecodingPolicy(top_k=k)
        for row in (tied, sparse):
            assert np.array_equal(RowVerdicts(policy)(row)[1], policy.allowed_mask(row))


def test_a_row_is_judged_once(monkeypatch):
    calls = []
    original = RowVerdicts._threshold

    def counted(self, scaled):
        calls.append(1)
        return original(self, scaled)

    monkeypatch.setattr(RowVerdicts, "_threshold", counted)
    verdicts = RowVerdicts(DecodingPolicy(top_k=3))
    rows = [np.log(np.full(6, 1 / 6)) - i for i in range(3)]
    for row in rows * 4:
        verdicts(row)
    assert len(calls) == 3 and len(verdicts) == 3
    # An equal row that is another object is judged on its own.
    verdicts(rows[0].copy())
    assert len(calls) == 4


class _Unretained(LanguageModel):
    """Scores with an n-gram but hands out a fresh copy of every row, so a
    logits cache row has no owner besides the cache."""

    def __init__(self, inner: LanguageModel) -> None:
        self.inner = inner
        self.vocab_size = inner.vocab_size
        self.eos_id = inner.eos_id
        self.max_sequence_length = inner.max_sequence_length

    def logprobs(self, context: Sequence[int]) -> np.ndarray:
        return self.inner.logprobs(context).copy()

    def logprobs_batch(self, contexts: Sequence[Sequence[int]]) -> list[np.ndarray]:
        return [row.copy() for row in self.inner.logprobs_batch(contexts)]


def test_memo_never_keeps_an_evicted_row_alive():
    model = _Unretained(NGramModel.train_on_text(TINY_CORPUS, _TOK, order=4, alpha=0.1))
    session = prepare(
        model, _TOK, SearchQuery("The [a-z]{1,5}( [a-z]{1,5})?", top_k=30),
        logits_cache=LogitsCache(model, capacity=8),
    )
    matches = iter(session)
    next(matches)
    executor = session.executor
    store, verdicts = executor._cache._store, executor._verdicts
    key = next(k for k, row in store.items() if id(row) in verdicts._memo)
    probe = weakref.ref(store[key])
    for _ in itertools.islice(matches, 200):
        if key not in store:
            break
    assert key not in store  # evicted from the 8-row cache
    for _ in itertools.islice(matches, 5):  # let the traversal drop its last rows
        pass
    gc.collect()
    assert probe() is None
    # Live judged rows only: the cache's 8 and the one the traversal holds.
    assert len(verdicts) <= executor._cache.capacity + 1
    assert all(judged() is not None for judged in verdicts._memo.values())


def test_step_tables_never_keep_an_evicted_row_alive():
    """Random sampling's step tables live in the same kind of row memo: a
    row the cache evicts takes its tables with it."""
    model = _Unretained(NGramModel.train_on_text(TINY_CORPUS, _TOK, order=4, alpha=0.1))
    query = SearchQuery(
        "The [a-z]{1,5}( [a-z]{1,5})?",
        strategy=QuerySearchStrategy.RANDOM_SAMPLING, num_samples=400, seed=0,
    )
    session = prepare(model, _TOK, query, logits_cache=LogitsCache(model, capacity=8))
    samples = iter(session)
    next(samples)
    executor = session.executor
    store, tables = executor._cache._store, executor._step_tables
    # A row deep in the sample (no EOS padding in its key): the start rows
    # are read by every sample and never age out.
    key = next(
        k for k, row in store.items() if id(row) in tables and _TOK.eos_id not in k
    )
    probe = weakref.ref(store[key])
    for _ in itertools.islice(samples, 300):
        if key not in store:
            break
    assert key not in store  # evicted from the 8-row cache
    for _ in itertools.islice(samples, 5):  # let the traversal drop its last rows
        pass
    gc.collect()
    assert probe() is None
    # Live rows' tables only: the cache's 8 and the one the traversal holds.
    assert len(tables) <= executor._cache.capacity + 1
    assert all(entry() is not None for entry in tables.values())
