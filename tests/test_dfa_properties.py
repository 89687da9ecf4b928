"""Property suite for char-level ``DFA.minimized()`` / ``DFA.trimmed()``.

The token-level minimization pass (``TokenAutomaton.minimized``) is the
same partition-refinement algorithm lifted to token alphabets, so these
char-level laws — language preservation, idempotence, minimality — are the
foundation the compile-time fast path builds on.  Each law is checked two
ways: hypothesis-generated random DFAs (arbitrary transition tables, not
just regex-reachable ones) and a seeded grid of ReLM-dialect regexes.
"""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.automata.dfa import DFA
from repro.automata.walks import WalkCounter
from repro.core.compiler import _prefix_product, prefixes_of
from repro.regex import compile_dfa

ALPHABET = "ab"
MAX_LEN = 6

#: Seeded regexes covering the shapes the engine compiles: alternation,
#: closure, classes, bounded repetition, literals, and empty languages.
SEED_PATTERNS = [
    "a",
    "ab",
    "a|b",
    "a*",
    "(ab)*",
    "a+b",
    "(a|b)(a|b)",
    "a(b|c)*",
    "[abc]{2,4}",
    "abc|abd|abe",
    "(cat|car|cart)s?",
    "x[0-9]{1,3}",
    "(aa|ab|ba|bb)*",
    "a{3}",
    "(a|b)*abb",
]


def random_dfa(rng: random.Random, num_states: int, alphabet: str) -> DFA:
    """An arbitrary (possibly disconnected, possibly empty-language) DFA."""
    states = list(range(num_states))
    transitions: dict[int, dict[str, int]] = {}
    for q in states:
        row = {}
        for ch in alphabet:
            # ~25% missing edges so trap/dead shapes appear.
            if rng.random() < 0.75:
                row[ch] = rng.choice(states)
        transitions[q] = row
    accepting = frozenset(q for q in states if rng.random() < 0.3)
    return DFA(start=0, accepts=accepting, transitions=transitions)


def language(dfa: DFA, max_length: int = MAX_LEN) -> set[str]:
    """Brute-force enumeration of the language up to *max_length*."""
    return set(dfa.enumerate_strings(max_length=max_length))


class TestMinimizedLanguage:
    @settings(max_examples=150, deadline=None)
    @given(st.integers(1, 8), st.randoms(use_true_random=False))
    def test_minimized_preserves_language_random_dfas(self, n, rng):
        dfa = random_dfa(rng, n, ALPHABET)
        assert language(dfa.minimized()) == language(dfa)

    @settings(max_examples=150, deadline=None)
    @given(st.integers(1, 8), st.randoms(use_true_random=False))
    def test_trimmed_preserves_language_random_dfas(self, n, rng):
        dfa = random_dfa(rng, n, ALPHABET)
        assert language(dfa.trimmed()) == language(dfa)

    @pytest.mark.parametrize("pattern", SEED_PATTERNS)
    def test_minimized_preserves_language_seeded_regexes(self, pattern):
        # compile_dfa minimizes by default; build the raw machine.
        raw = compile_dfa(pattern, minimize=False)
        assert language(raw.minimized()) == language(raw)
        assert language(raw.trimmed()) == language(raw)


class TestIdempotence:
    @settings(max_examples=100, deadline=None)
    @given(st.integers(1, 8), st.randoms(use_true_random=False))
    def test_minimize_twice_is_minimize_once(self, n, rng):
        dfa = random_dfa(rng, n, ALPHABET)
        once = dfa.minimized()
        twice = once.minimized()
        assert len(twice.states) == len(once.states)
        assert language(twice) == language(once)

    @settings(max_examples=100, deadline=None)
    @given(st.integers(1, 8), st.randoms(use_true_random=False))
    def test_trim_twice_is_trim_once(self, n, rng):
        dfa = random_dfa(rng, n, ALPHABET)
        once = dfa.trimmed()
        twice = once.trimmed()
        assert len(twice.states) == len(once.states)


class TestMinimality:
    """``minimized()`` must reach the canonical state count.

    The Myhill–Nerode minimum is unique, so any two DFAs for the same
    language minimize to the same number of states.  We cross-check the
    minimized machine against an independently-built DFA for the same
    (finite slice of the) language.
    """

    @pytest.mark.parametrize("pattern", SEED_PATTERNS)
    def test_minimized_never_larger_than_raw(self, pattern):
        raw = compile_dfa(pattern, minimize=False)
        assert len(raw.minimized().states) <= len(raw.trimmed().states or [0])

    @settings(max_examples=60, deadline=None)
    @given(st.integers(1, 6), st.randoms(use_true_random=False))
    def test_equal_languages_minimize_to_equal_state_counts(self, n, rng):
        dfa = random_dfa(rng, n, ALPHABET)
        if dfa.has_cycle():
            # from_strings only rebuilds finite languages exactly.
            return
        words = language(dfa, max_length=2 * n)
        if not words:
            return
        rebuilt = DFA.from_strings(words)
        assert len(dfa.minimized().states) == len(rebuilt.minimized().states)

    def test_known_minimal_example(self):
        # (a|b)*abb has the textbook 4-state minimal DFA.
        raw = compile_dfa("(a|b)*abb", minimize=False)
        assert len(raw.minimized().states) == 4

    def test_dead_states_removed(self):
        # A state that can never reach acceptance must be trimmed away.
        dfa = DFA(
            start=0,
            accepts=frozenset({1}),
            transitions={0: {"a": 1, "b": 2}, 1: {}, 2: {"a": 2}},
        )
        trimmed = dfa.trimmed()
        assert 2 not in {dst for row in trimmed.transitions.values() for dst in row.values()}
        assert language(trimmed) == language(dfa)


def random_acyclic_dfa(rng: random.Random, num_states: int, alphabet: str) -> DFA:
    """An acyclic DFA (edges only climb state ids), unreachable and dead
    states included."""
    transitions: dict[int, dict[str, int]] = {}
    for q in range(num_states - 1):
        row = {ch: rng.randrange(q + 1, num_states) for ch in alphabet if rng.random() < 0.75}
        if row:
            transitions[q] = row
    accepting = frozenset(q for q in range(num_states) if rng.random() < 0.3)
    return DFA(start=0, accepts=accepting, transitions=transitions)


class TestAcyclicCount:
    @settings(max_examples=150, deadline=None)
    @given(st.integers(1, 12), st.randoms(use_true_random=False))
    def test_one_pass_count_equals_the_unrolled_walk_count(self, n, rng):
        """``count_strings()`` with no bound (one post-order pass) equals
        the level-by-level walk count unrolled to the number of states."""
        dfa = random_acyclic_dfa(rng, n, "abc")
        assert dfa.count_strings() == WalkCounter(dfa, len(dfa.states)).total()


def unflagged(dfa: DFA) -> DFA:
    """The same tables with no recorded facts: every call recomputes."""
    return DFA(
        start=dfa.start,
        accepts=dfa.accepts,
        transitions={q: dict(row) for q, row in dfa.transitions.items()},
    )


def ordered(dfa: DFA) -> tuple:
    """A DFA with its row order made visible (``==`` on dicts ignores it)."""
    return (dfa.start, sorted(dfa.accepts), sorted(
        (q, list(row.items())) for q, row in dfa.transitions.items()
    ))


def assert_facts_hold(flagged: DFA) -> None:
    """What a DFA's recorded facts promise, checked against recomputation:
    ``trimmed()``, ``minimized()`` and ``is_empty()`` answer as they do on
    an unflagged copy, and the facts themselves are true."""
    assert flagged._trim
    plain = unflagged(flagged)
    assert ordered(flagged.trimmed()) == ordered(plain.trimmed())
    assert ordered(flagged.minimized()) == ordered(plain.minimized())
    assert flagged.is_empty() == plain.is_empty()
    assert flagged.is_trim() or not flagged.accepts  # the empty language's lone start
    assert flagged.states == list(range(len(flagged.states)))
    if flagged._minimal:
        assert len(plain.minimized().states) == len(flagged.states)


class TestRecordedFacts:
    @settings(max_examples=150, deadline=None)
    @given(st.integers(1, 8), st.randoms(use_true_random=False))
    def test_flagged_calls_equal_unflagged_calls(self, n, rng):
        """Every constructor that records a fact: trim, minimize, the three
        products, the prefix closure and the compiler's prefix product."""
        dfa = random_dfa(rng, n, ALPHABET)
        other = random_dfa(rng, rng.randint(1, 4), ALPHABET)
        minimal = dfa.minimized()
        assert minimal._minimal
        for flagged in (
            dfa.trimmed(),
            minimal,
            dfa.intersect(other),
            dfa.union(other),
            dfa.difference(other),
            prefixes_of(dfa),
            _prefix_product(minimal, prefixes_of(other).minimized())[0],
        ):
            assert_facts_hold(flagged)

    @pytest.mark.parametrize("pattern", SEED_PATTERNS)
    def test_subset_construction_records_trim(self, pattern):
        raw = compile_dfa(pattern, minimize=False)  # ``DFA.from_nfa``
        assert_facts_hold(raw)
        assert_facts_hold(compile_dfa(pattern))
