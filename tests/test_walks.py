"""Tests for walk counting and uniform sampling (repro.automata.walks).

The memoised draws (``WalkCounter.sample`` / ``sample_uniform_edges``) are
compared with the per-step linear scans kept in :mod:`tests.reference`
over random DFAs, bounds and seeds.  Run in CI with a pinned seed::

    pytest -q tests/test_walks.py --hypothesis-seed=0
"""

from __future__ import annotations

import random
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.automata.dfa import DFA
from repro.automata.walks import WalkCounter, count_accepting_walks, sample_uniform_string
from repro.regex import compile_dfa
from tests.reference import reference_walk_sample, reference_walk_sample_uniform_edges


class TestCounts:
    def test_matches_enumeration_finite(self):
        dfa = compile_dfa("(a|b)(c|d)?e{1,2}")
        assert count_accepting_walks(dfa) == len(list(dfa.enumerate_strings()))

    def test_bounded_count_of_infinite_language(self):
        dfa = compile_dfa("a*")
        # strings of length <= 5: "", a, aa, ..., aaaaa
        assert count_accepting_walks(dfa, max_length=5) == 6

    def test_infinite_without_bound_raises(self):
        with pytest.raises(ValueError):
            count_accepting_walks(compile_dfa("a+"))

    def test_digit_block(self):
        assert count_accepting_walks(compile_dfa("[0-9]{3}")) == 1000

    def test_paper_date_language(self):
        # <Month> <Day>, <Year> from Figure 1: 12 * (10 + 100) * 10000.
        months = "|".join(
            ["January", "February", "March", "April", "May", "June", "July",
             "August", "September", "October", "November", "December"]
        )
        dfa = compile_dfa(f"({months}) [0-9]{{1,2}}, [0-9]{{4}}")
        assert count_accepting_walks(dfa) == 12 * 110 * 10000

    def test_counts_are_exact_bigints(self):
        # 26^20 overflows float precision; counts must stay exact.
        dfa = compile_dfa("[a-z]{20}")
        assert count_accepting_walks(dfa) == 26**20

    def test_empty_language(self):
        dfa = compile_dfa("a").intersect(compile_dfa("b"))
        assert count_accepting_walks(dfa, max_length=4) == 0


class TestEdgeWeights:
    def test_weights_sum_to_continuations(self):
        dfa = compile_dfa("a(b|c)|ad")
        wc = WalkCounter(dfa, max_length=4)
        stop, weights = wc.edge_weights(dfa.start, 4)
        assert stop == 0
        assert sum(weights.values()) == 3  # ab, ac, ad

    def test_stop_weight_at_accepting_state(self):
        dfa = compile_dfa("a|ab")
        wc = WalkCounter(dfa, max_length=4)
        state_after_a = dfa.transitions[dfa.start]["a"]
        stop, weights = wc.edge_weights(state_after_a, 3)
        assert stop == 1
        assert sum(weights.values()) == 1  # just "ab"

    def test_level_exceeding_max_raises(self):
        wc = WalkCounter(compile_dfa("a"), max_length=2)
        with pytest.raises(ValueError):
            wc.counts_at(3)


class TestUniformSampling:
    def test_sample_is_member(self, rng):
        dfa = compile_dfa("(x|y){1,3}")
        wc = WalkCounter(dfa, max_length=5)
        for _ in range(50):
            assert dfa.accepts_string(wc.sample(rng))

    def test_uniformity_chi_square_ish(self, rng):
        # The paper's motivating example: language {a, b, bb, bbb}.
        # Uniform-over-strings gives each 25%; uniform-over-edges gives
        # 'a' 50%.
        dfa = compile_dfa("a|b{1,3}")
        wc = WalkCounter(dfa, max_length=4)
        n = 4000
        counts = Counter(wc.sample(rng) for _ in range(n))
        for s in ("a", "b", "bb", "bbb"):
            assert abs(counts[s] / n - 0.25) < 0.05, counts

    def test_edge_uniform_is_biased_toward_short(self, rng):
        dfa = compile_dfa("a|b{1,3}")
        wc = WalkCounter(dfa, max_length=4)
        n = 2000
        counts = Counter(wc.sample_uniform_edges(rng) for _ in range(n))
        # Uniform edges: p(a) = 1/2 at the first branch.
        assert counts["a"] / n > 0.4

    def test_empty_language_returns_none(self, rng):
        empty = compile_dfa("a").intersect(compile_dfa("b"))
        assert WalkCounter(empty, max_length=3).sample(rng) is None

    def test_sample_respects_max_length(self, rng):
        dfa = compile_dfa("a+")
        wc = WalkCounter(dfa, max_length=4)
        for _ in range(50):
            assert len(wc.sample(rng)) <= 4

    def test_convenience_wrapper(self, rng):
        s = sample_uniform_string(compile_dfa("ab|cd"), rng)
        assert s in ("ab", "cd")


@settings(max_examples=60, deadline=None)
@given(
    strings=st.lists(
        st.text(alphabet="abz", min_size=0, max_size=5), min_size=1, max_size=8, unique=True
    )
)
def test_count_equals_set_size(strings):
    """For explicit finite languages, the walk count equals the set size."""
    dfa = DFA.from_strings(strings)
    assert count_accepting_walks(dfa, max_length=6) == len(strings)


@settings(max_examples=30, deadline=None)
@given(
    strings=st.lists(
        st.text(alphabet="ab", min_size=1, max_size=4), min_size=2, max_size=6, unique=True
    ),
    seed=st.integers(0, 2**16),
)
def test_every_member_sampleable(strings, seed):
    """Uniform sampling can produce every member of a small language."""
    dfa = DFA.from_strings(strings)
    wc = WalkCounter(dfa, max_length=5)
    rng = random.Random(seed)
    seen = {wc.sample(rng) for _ in range(30 * len(strings))}
    assert seen == set(strings)


@st.composite
def _random_dfas(draw) -> DFA:
    """Partial DFAs over ``abc`` with up to six states: cycles, dead ends
    and unreachable or non-co-reachable states included."""
    num_states = draw(st.integers(1, 6))
    transitions = {}
    for q in range(num_states):
        row = {}
        for ch in "abc":
            dst = draw(st.one_of(st.none(), st.integers(0, num_states - 1)))
            if dst is not None:
                row[ch] = dst
        if row:
            transitions[q] = row
    accepts = draw(st.frozensets(st.integers(0, num_states - 1)))
    return DFA(start=0, accepts=accepts, transitions=transitions)


@settings(max_examples=200, deadline=None)
@given(
    dfa=_random_dfas(),
    max_length=st.integers(0, 40),
    seed=st.integers(0, 2**32 - 1),
    data=st.data(),
)
def test_memoised_draws_equal_the_linear_scan(dfa, max_length, seed, data):
    """A memoised step draws exactly what the per-step scan draws: the same
    strings, and the RNG left in the same state, for both samplers."""
    max_steps = data.draw(st.one_of(st.none(), st.integers(0, max_length)))
    counter = WalkCounter(dfa, max_length=max_length)
    rng, ref_rng = random.Random(seed), random.Random(seed)
    for _ in range(8):
        assert counter.sample(rng) == reference_walk_sample(counter, ref_rng)
        assert rng.getstate() == ref_rng.getstate()
        assert counter.sample_uniform_edges(rng, max_steps) == (
            reference_walk_sample_uniform_edges(counter, ref_rng, max_steps)
        )
        assert rng.getstate() == ref_rng.getstate()
