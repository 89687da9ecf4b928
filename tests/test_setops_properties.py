"""Property and differential tests for the DFA set operations.

The cross-query analyzer (:mod:`repro.core.analyze_set`) decides
equivalence, containment, and disjointness from ``intersect`` /
``difference`` / ``canonical_fingerprint`` — a wrong product construction
silently becomes a wrong RLM007/RLM008 verdict, which the scheduler then
acts on by *not running a query*.  This suite pins the set operations to
brute-force string enumeration:

* a **deterministic differential sweep** over 220 seeded random regex
  pairs (the CI acceptance gate): membership in ``A∩B`` / ``A∪B`` /
  ``A∖B`` matches the boolean combination of ``accepts_string`` for every
  string over the alphabet up to a fixed length, and fingerprint equality
  coincides with language equality as decided by an independent
  pair-graph witness search (witnesses obey the Myhill–Nerode bound
  ``|A| + |B|``);
* a **hypothesis** property re-running the same checks over freshly
  generated pairs;
* budget behaviour: ``max_states`` raises :class:`ProductBudgetExceeded`
  (never returns a wrong automaton), and a generous budget changes
  nothing.

Run with a pinned seed in CI::

    pytest -q tests/test_setops_properties.py --hypothesis-seed=0
"""

from __future__ import annotations

import itertools
import random
from collections import deque

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.automata.dfa import DFA, ProductBudgetExceeded
from repro.regex import compile_dfa

from tests.test_analyze_properties import random_pattern

_ALPHABET = "abc"

#: Membership is checked for every string up to this length; 3^0..3^5 is
#: 364 strings per pair, cheap enough for a 220-pair sweep.
_CHECK_LEN = 5

_N_PAIRS = 220


def _all_strings(max_len: int):
    """Every string over the test alphabet with length <= max_len."""
    for length in range(max_len + 1):
        for chars in itertools.product(_ALPHABET, repeat=length):
            yield "".join(chars)


def _distinguishing_witness(a: DFA, b: DFA) -> str | None:
    """Shortest string accepted by exactly one of *a*, *b* (None if equal).

    Independent oracle: a breadth-first walk of the pair graph with an
    explicit dead state, deliberately not using ``DFA._product`` or
    ``minimized`` — the code under test.
    """
    start = (a.start, b.start)
    seen = {start}
    frontier: deque[tuple[tuple[int | None, int | None], str]] = deque([(start, "")])
    while frontier:
        (sa, sb), s = frontier.popleft()
        acc_a = sa is not None and sa in a.accepts
        acc_b = sb is not None and sb in b.accepts
        if acc_a != acc_b:
            return s
        labels: set[str] = set()
        if sa is not None:
            labels |= set(a.transitions.get(sa, {}))
        if sb is not None:
            labels |= set(b.transitions.get(sb, {}))
        for ch in sorted(labels):
            na = a.transitions.get(sa, {}).get(ch) if sa is not None else None
            nb = b.transitions.get(sb, {}).get(ch) if sb is not None else None
            if (na, nb) not in seen:
                seen.add((na, nb))
                frontier.append(((na, nb), s + ch))
    return None


def _check_pair(pattern_a: str, pattern_b: str) -> None:
    """Set operations on (A, B) agree with brute-force membership."""
    a = compile_dfa(pattern_a)
    b = compile_dfa(pattern_b)
    inter = a.intersect(b)
    union = a.union(b)
    diff = a.difference(b)
    for s in _all_strings(_CHECK_LEN):
        in_a = a.accepts_string(s)
        in_b = b.accepts_string(s)
        assert inter.accepts_string(s) == (in_a and in_b), (pattern_a, pattern_b, s)
        assert union.accepts_string(s) == (in_a or in_b), (pattern_a, pattern_b, s)
        assert diff.accepts_string(s) == (in_a and not in_b), (pattern_a, pattern_b, s)

    # Fingerprint equality <=> language equality, decided by an
    # independent pair-graph search.  A returned witness is additionally
    # ground-truthed through plain string acceptance, and must be no
    # longer than the Myhill–Nerode distinguishing bound m + n.
    same_fp = a.canonical_fingerprint() == b.canonical_fingerprint()
    same_form = a.canonical_form() == b.canonical_form()
    assert same_fp == same_form, (pattern_a, pattern_b)
    witness = _distinguishing_witness(a, b)
    if same_fp:
        assert witness is None, (pattern_a, pattern_b, witness)
    else:
        assert witness is not None, (pattern_a, pattern_b)
        assert a.accepts_string(witness) != b.accepts_string(witness)
        assert len(witness) <= len(a.states) + len(b.states)


class TestDifferentialSweep:
    def test_seeded_pairs_match_brute_force(self):
        rng = random.Random(20260808)
        pairs = []
        while len(pairs) < _N_PAIRS:
            pa = random_pattern(rng)
            pb = random_pattern(rng)
            # Bias a fraction of the sweep toward equal/containment pairs so
            # the fingerprint and difference branches are exercised, not
            # just the almost-always-distinct case.
            roll = rng.random()
            if roll < 0.15:
                pb = pa
            elif roll < 0.3:
                pb = f"({pa})|({random_pattern(rng)})"
            pairs.append((pa, pb))
        for pa, pb in pairs:
            _check_pair(pa, pb)

    def test_identity_and_annihilation(self):
        rng = random.Random(7)
        for _ in range(25):
            p = random_pattern(rng)
            d = compile_dfa(p)
            assert d.intersect(d).canonical_form() == d.minimized().canonical_form()
            assert d.union(d).canonical_form() == d.minimized().canonical_form()
            assert d.difference(d).is_empty()

    def test_fingerprint_invariant_under_spelling(self):
        spellings = [
            ("a(b|c)", "ab|ac"),
            ("(ab)*", "(ab)*"),
            ("a?a?", "(aa)?|a?"),
            ("[ab][ab]", "(a|b)(a|b)"),
        ]
        for left, right in spellings:
            assert (
                compile_dfa(left).canonical_fingerprint()
                == compile_dfa(right).canonical_fingerprint()
            ), (left, right)
        assert (
            compile_dfa("a(b|c)").canonical_fingerprint()
            != compile_dfa("a(b|c)c").canonical_fingerprint()
        )


class TestProductBudget:
    def test_budget_raises_never_wrong(self):
        a = compile_dfa("[ab]{1,8}")
        b = compile_dfa("(a|b)*c?")
        with pytest.raises(ProductBudgetExceeded) as excinfo:
            a.intersect(b, max_states=2)
        assert excinfo.value.max_states == 2

    def test_pairs_that_cannot_accept_are_not_explored(self):
        """An intersection stops where either side dies, a difference where
        its left side does: ``abc`` against ``ab[a-z]+`` explores the four
        pairs along ``abc`` and never a pair whose ``abc`` side is dead
        (a fifth state, over a budget of four)."""
        a = compile_dfa("abc")
        b = compile_dfa("ab[a-z]+")
        assert set(a.intersect(b, max_states=4).enumerate_strings()) == {"abc"}
        assert a.difference(b, max_states=4).is_empty()
        with pytest.raises(ProductBudgetExceeded):
            a.union(b, max_states=4)  # a union accepts with one side dead

    def test_generous_budget_is_identical(self):
        rng = random.Random(11)
        for _ in range(20):
            a = compile_dfa(random_pattern(rng))
            b = compile_dfa(random_pattern(rng))
            assert (
                a.intersect(b, max_states=100_000).canonical_form()
                == a.intersect(b).canonical_form()
            )
            assert (
                a.difference(b, max_states=100_000).canonical_form()
                == a.difference(b).canonical_form()
            )


@given(st.integers(min_value=0, max_value=10_000), st.integers(min_value=0, max_value=10_000))
@settings(max_examples=60, deadline=None)
def test_setops_property(seed_a: int, seed_b: int) -> None:
    pa = random_pattern(random.Random(seed_a))
    pb = random_pattern(random.Random(seed_b))
    _check_pair(pa, pb)
