"""Property-based invariants of the graph compiler and DFA pipeline."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.automata.alphabet import ALPHABET
from repro.core.compiler import GraphCompiler, prefixes_of
from repro.core.preprocessors import LevenshteinPreprocessor
from repro.core.query import QueryTokenizationStrategy, SearchQuery
from repro.regex import compile_dfa, escape
from repro.tokenizers.bpe import train_bpe

_TOK = train_bpe(
    ["the cat sat on the mat", "dogs ran past the gate", "a cab at bat"] * 15,
    vocab_size=220,
)

_WORDS = ["cat", "dog", "the", "mat", "at", "a", "bat", "cab"]
_language = st.lists(st.sampled_from(_WORDS), min_size=1, max_size=4, unique=True)


def _all_paths(automaton, max_depth=10):
    """Enumerate accepting token paths (small automata only)."""
    out = []
    stack = [(automaton.start, ())]
    while stack:
        state, path = stack.pop()
        if state in automaton.accepts:
            out.append(path)
        if len(path) < max_depth:
            for tid, dst in automaton.successors(state).items():
                stack.append((dst, path + (tid,)))
    return out


@settings(max_examples=40, deadline=None)
@given(words=_language)
def test_all_encodings_paths_decode_to_language(words):
    """Every accepting path of the all-encodings automaton decodes into
    the language, and every language member has at least one path."""
    pattern = "(" + "|".join(f"({w})" for w in words) + ")"
    compiler = GraphCompiler(_TOK)
    automaton = compiler.compile(SearchQuery(pattern)).token_automaton
    decoded = {_TOK.decode(p) for p in _all_paths(automaton)}
    assert decoded == set(words)


@settings(max_examples=40, deadline=None)
@given(words=_language)
def test_canonical_automaton_is_exactly_canonical(words):
    """The canonical automaton accepts exactly the canonical encoding of
    each language member — no more, no fewer."""
    pattern = "(" + "|".join(f"({w})" for w in words) + ")"
    compiler = GraphCompiler(_TOK)
    automaton = compiler.compile(
        SearchQuery(pattern, tokenization=QueryTokenizationStrategy.CANONICAL)
    ).token_automaton
    paths = set(_all_paths(automaton))
    expected = {tuple(_TOK.encode(w)) for w in words}
    assert paths == expected


@settings(max_examples=40, deadline=None)
@given(words=_language)
def test_canonical_paths_subset_of_all_encodings(words):
    pattern = "(" + "|".join(f"({w})" for w in words) + ")"
    compiler = GraphCompiler(_TOK)
    all_enc = set(_all_paths(compiler.compile(SearchQuery(pattern)).token_automaton))
    canonical = set(
        _all_paths(
            compiler.compile(
                SearchQuery(pattern, tokenization=QueryTokenizationStrategy.CANONICAL)
            ).token_automaton
        )
    )
    assert canonical <= all_enc


@settings(max_examples=40, deadline=None)
@given(words=_language, probe=st.text(alphabet="abcdegmost h", max_size=6))
def test_prefixes_of_membership(words, probe):
    """prefixes_of(L) accepts exactly the prefixes of members of L."""
    from repro.automata.dfa import DFA

    dfa = DFA.from_strings(words)
    closure = prefixes_of(dfa)
    expected = any(w.startswith(probe) for w in words)
    assert closure.accepts_string(probe) == expected


@settings(max_examples=40, deadline=None)
@given(words=_language)
def test_minimization_idempotent(words):
    from repro.automata.dfa import DFA

    dfa = DFA.from_strings(words)
    once = dfa.minimized()
    twice = once.minimized()
    assert len(once.states) == len(twice.states)


@settings(max_examples=30, deadline=None)
@given(words=_language, prefix_len=st.integers(1, 3))
def test_prefix_region_states_are_sound(words, prefix_len):
    """Every state marked prefix-live is reached by a string that is a
    prefix of some prefix-language member."""
    target = sorted(words)[0]
    prefix_str = target[: min(prefix_len, len(target))]
    pattern = "(" + "|".join(f"({w})" for w in words) + ")"
    matching = [w for w in words if w.startswith(prefix_str)]
    if not matching:
        return
    compiler = GraphCompiler(_TOK)
    compiled = compiler.compile(SearchQuery(pattern, prefix=prefix_str))
    automaton = compiled.token_automaton
    # Walk every path; whenever we land on a live state, the consumed text
    # must be a prefix of the prefix language (i.e. of prefix_str).
    stack = [(automaton.start, "")]
    while stack:
        state, text = stack.pop()
        if state in automaton.prefix_live:
            assert prefix_str.startswith(text) or text.startswith(prefix_str[:len(text)])
            assert compiled.prefix_closure.accepts_string(text)
        if len(text) < 12:
            for tid, dst in automaton.successors(state).items():
                stack.append((dst, text + _TOK.vocab.token_of(tid)))


def _lowered_rows(automaton):
    arrays = automaton.arrays()
    out = []
    for state in range(automaton.num_states):
        row = arrays.row(state)
        out.append(
            None
            if row is None
            else (row.token_ids.tolist(), row.dst_states.tolist(), row.is_prefix.tolist())
        )
    return out


@settings(max_examples=40, deadline=None)
@given(words=_language, prefix_len=st.integers(0, 3))
def test_lazy_rows_equal_eager_build(words, prefix_len):
    """A proven-minimal compile builds each token row on first read; row
    for row — edges, lowered arrays, state and edge counts, compile
    metrics, single-edge ``step`` — it equals the eager build
    (``tests/reference.py``) minimized by the token-level pass; ``step``
    builds no row, and a full iteration drops the shared walk."""
    from repro.core.compiler import TokenRows

    from .reference import compile_unminimized

    pattern = "(" + "|".join(f"({w})" for w in words) + ")"
    prefix = sorted(words)[0][:prefix_len] or None
    query = SearchQuery(pattern, prefix=prefix)
    compiler = GraphCompiler(_TOK, cache=False)
    compiled = compiler.compile(query)
    lazy = compiled.token_automaton
    eager = compile_unminimized(compiler, query).token_automaton
    assert not isinstance(eager.edges, TokenRows)
    expected = eager.minimized()
    assert lazy._minimal == isinstance(lazy.edges, TokenRows)
    assert (lazy.start, lazy.accepts, lazy.prefix_live) == (
        expected.start, expected.accepts, expected.prefix_live
    )
    assert (lazy.num_states, lazy.num_edges) == (expected.num_states, expected.num_edges)
    metrics = compiled.metrics
    assert (
        metrics.token_states, metrics.token_edges,
        metrics.minimized_states, metrics.minimized_edges,
    ) == (eager.num_states, eager.num_edges, expected.num_states, expected.num_edges)
    # One edge at a time, before any row is built: every token of every
    # row, tried from every state, plus a few ids no row holds.
    tokens = {tok for row in expected.edges.values() for tok in row}
    tokens |= {0, 1, len(_TOK) - 1, len(_TOK)}
    for state in range(expected.num_states):
        for tok in tokens:
            assert lazy.step(state, tok) == expected.successors(state).get(tok)
    if isinstance(lazy.edges, TokenRows):
        assert lazy.edges._rows == {}  # step builds no row
    for state in range(expected.num_states):
        assert list(lazy.successors(state).items()) == list(
            expected.successors(state).items()
        )
    assert _lowered_rows(lazy) == _lowered_rows(expected)
    assert lazy.edges == expected.edges
    assert [list(row.items()) for row in lazy.edges.values()] == [
        list(row.items()) for row in expected.edges.values()
    ]
    if isinstance(lazy.edges, TokenRows):
        assert lazy._minimal and eager.num_states == expected.num_states
        assert lazy.edges._walk is None  # forced by the iteration above


#: A tokenizer whose merges cover space runs, digits and leading-space
#: words, so the pair rule's space-run case shows in the properties below.
_SPACE_TOK = train_bpe(
    ["the cat  sat on  12 mats.", "a cat 1  12. the  mat", "  the cat", "1 12  1"] * 10,
    vocab_size=len(ALPHABET) + 1 + 40,
)
_PIECES = ["the", "cat", " ", "  ", "   ", "a", "1", "12", ".", " mat"]
_piece_words = st.lists(st.sampled_from(_PIECES), min_size=1, max_size=3).map("".join)


def _labelled_paths(automaton, max_depth):
    """Accepting token paths up to *max_depth* tokens, each with the
    prefix-live flags of the states it passes (a set)."""
    out = set()
    stack = [(automaton.start, (), ())]
    while stack:
        state, path, live = stack.pop()
        if state in automaton.accepts:
            out.add((path, live))
        if len(path) < max_depth:
            for tok, dst in automaton.successors(state).items():
                stack.append((dst, path + (tok,), live + (dst in automaton.prefix_live,)))
    return out


@settings(max_examples=60, deadline=None)
@given(
    words=st.lists(_piece_words, min_size=1, max_size=3, unique=True),
    prefix_len=st.integers(0, 3),
    edits=st.integers(0, 1),
)
def test_canonical_product_equals_enumerate_and_encode(words, prefix_len, edits):
    """On small finite languages — space runs, an optional literal prefix,
    optional edits — the canonical automaton ``compile()`` builds (the
    product, trimmed and minimized) holds exactly the enumerate-and-encode
    oracle's token paths, with the same prefix-live states along each."""
    from .reference import reference_canonical_by_enumeration

    pattern = "(" + "|".join(f"({escape(w)})" for w in words) + ")"
    prefix = words[0][:prefix_len] or None
    preprocessors = (LevenshteinPreprocessor(1),) if edits else ()
    query = SearchQuery(
        pattern,
        prefix=escape(prefix) if prefix else None,
        tokenization=QueryTokenizationStrategy.CANONICAL,
        preprocessors=preprocessors,
    )
    compiled = GraphCompiler(_SPACE_TOK, cache=False).compile(query)
    oracle = reference_canonical_by_enumeration(
        _SPACE_TOK, compiled.char_dfa, compiled.prefix_closure
    )
    depth = max(len(s) for s in compiled.char_dfa.enumerate_strings())
    assert _labelled_paths(compiled.token_automaton, depth) == _labelled_paths(oracle, depth)


_cyclic = st.lists(_piece_words, min_size=1, max_size=3, unique=True)


@settings(max_examples=40, deadline=None)
@given(words=_cyclic, data=st.data())
def test_cyclic_canonical_product_accepts_exactly_canonical_paths(words, data):
    """On cyclic languages the product is built on first touch: every
    accepted path of up to five tokens is a canonical encoding, and the
    canonical encoding of a sampled language string is accepted."""
    pattern = "(" + "|".join(f"({escape(w)})" for w in words) + ")+"
    compiled = GraphCompiler(_SPACE_TOK, cache=False).compile(
        SearchQuery(pattern, tokenization=QueryTokenizationStrategy.CANONICAL)
    )
    automaton = compiled.token_automaton
    for path, _ in _labelled_paths(automaton, 5):
        assert list(path) == _SPACE_TOK.encode(_SPACE_TOK.decode(path))
        assert compiled.char_dfa.accepts_string(_SPACE_TOK.decode(path))
    for _ in range(5):
        text = "".join(data.draw(st.lists(st.sampled_from(words), min_size=1, max_size=6)))
        assert automaton.accepts_tokens(_SPACE_TOK.encode(text)), text
