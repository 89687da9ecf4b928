"""Differential + property suite for ``repro.automata.partition.refine``,
the one kernel behind ``DFA.minimized()`` and ``TokenAutomaton.minimized()``.

The oracle is the set-based Hopcroft both methods used to carry a copy of
(``tests/reference.py``): for random trim partial DFAs and random token
automata the kernel must produce the same partition, the same quotient —
state numbering and row order included — and a result that is a fixed
point of ``minimized()`` and ``trimmed()`` and is Myhill–Nerode minimal by
an independent pair-marking check.  Token automata come both hand-built
(arbitrary token ids, unsorted rows, random ``prefix_live``) and compiled
over vocabularies that *miss* some single-character tokens, the case where
token-level minimization is not a no-op.  The last class pins the
shortcut ``compile_all_tokens`` takes around the token-level pass: an
automaton it marks minimal must be a fixed point of the reference,
numbering and orders included, and it may mark nothing when a transition
character is not a token.
"""

from __future__ import annotations

import itertools
import random
import time
from typing import Hashable, Mapping

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.automata.dfa import DFA
from repro.automata.partition import refine
from repro.core.compiler import GraphCompiler, TokenAutomaton, prefixes_of
from repro.tokenizers.bpe import BPETokenizer
from repro.tokenizers.vocab import Vocabulary
from tests.reference import (
    reference_minimized_dfa,
    reference_minimized_tokens,
    reference_partition,
)

ALPHABET = "abc"


def random_rows(
    rng: random.Random, num_states: int, acyclic: bool, symbols: list
) -> tuple[dict[int, dict], list[int]]:
    """Rows of a random partial automaton with something to merge.

    A small random base automaton is inflated: every base state gets 2–4
    clones whose edges land on a random clone of the base target (rows in
    shuffled, not key-sorted, order; ids shuffled so block minima are
    arbitrary), then up to three edges are redirected so some clones are
    only *nearly* equivalent — the splits a seed partition cannot see.
    Returns ``(rows, origin)``; ``origin[q]`` is the base state ``q``
    clones, state 0 clones base state 0 (the start), and the automaton is
    not necessarily trim.
    """
    clones = [(q, c) for q in range(num_states) for c in range(rng.randint(2, 4))]
    rest = clones[1:]
    rng.shuffle(rest)
    clones[1:] = rest
    ids_of: dict[int, list[int]] = {}
    for i, (q, _) in enumerate(clones):
        ids_of.setdefault(q, []).append(i)
    base: dict[int, dict] = {}
    for q in range(num_states):
        targets = range(q + 1, num_states) if acyclic else range(num_states)
        base[q] = {s: rng.choice(targets) for s in symbols if targets and rng.random() < 0.85}
    rows: dict[int, dict] = {}
    for i, (q, _) in enumerate(clones):
        row = [(s, rng.choice(ids_of[dst])) for s, dst in base[q].items()]
        rng.shuffle(row)
        if row:
            rows[i] = dict(row)
    for _ in range(rng.randint(0, 3)):
        if rows:
            src = rng.choice(sorted(rows))
            symbol = rng.choice(sorted(rows[src]))
            floor = clones[src][0] + 1 if acyclic else 0
            rows[src][symbol] = rng.choice(ids_of[rng.randrange(floor, num_states)])
    return rows, [q for q, _ in clones]


def random_dfa(rng: random.Random, num_states: int, acyclic: bool) -> DFA:
    rows, origin = random_rows(rng, num_states, acyclic, list(ALPHABET))
    accepting = {q for q in range(num_states) if rng.random() < 0.35}
    return DFA(
        start=0,
        accepts=frozenset(i for i, q in enumerate(origin) if q in accepting),
        transitions=rows,
    )


def random_token_automaton(rng: random.Random, num_states: int, acyclic: bool) -> TokenAutomaton:
    """Hand-built: sparse token ids and a random prefix-live region (drawn
    per base state, so clones can still merge)."""
    rows, origin = random_rows(rng, num_states, acyclic, rng.sample(range(50), 4))
    accepting = {q for q in range(num_states) if rng.random() < 0.35}
    live = {q for q in range(num_states) if rng.random() < 0.3}
    return TokenAutomaton(
        start=0,
        accepts=frozenset(i for i, q in enumerate(origin) if q in accepting),
        edges=rows,
        prefix_live=frozenset(i for i, q in enumerate(origin) if q in live),
    )


def compiled_token_automaton(
    rng: random.Random,
    num_states: int,
    acyclic: bool,
    char_dfa: DFA | None = None,
    singles: list[str] | None = None,
) -> TokenAutomaton:
    """The all-encodings automaton of a random char DFA over a vocabulary
    that drops some base characters and adds multi-character tokens, with
    a prefix region taken from prefixes of accepted strings."""
    if char_dfa is None:
        char_dfa = random_dfa(rng, num_states, acyclic).minimized()
    if singles is None:
        singles = [ch for ch in ALPHABET if rng.random() < 0.7]
    multis = {"".join(rng.choices(ALPHABET, k=rng.randint(2, 3))) for _ in range(4)}
    tokenizer = BPETokenizer(vocab=Vocabulary.build(singles + sorted(multis)), merges=[])
    compiler = GraphCompiler(tokenizer, cache=False, analyzer=False)
    prefix_closure = None
    strings = list(char_dfa.enumerate_strings(limit=4, max_length=5))
    if strings and rng.random() < 0.7:
        prefixes = {s[: rng.randint(0, len(s))] for s in strings}
        prefix_closure = (
            prefixes_of(DFA.from_strings(prefixes)).intersect(prefixes_of(char_dfa)).minimized()
        )
    return compiler.compile_all_tokens(char_dfa, prefix_closure)


def as_partition(block_of: Mapping[int, int]) -> set[frozenset[int]]:
    blocks: dict[int, set[int]] = {}
    for q, block in block_of.items():
        blocks.setdefault(block, set()).add(q)
    return {frozenset(members) for members in blocks.values()}


def ordered_rows(rows: Mapping[int, Mapping[Hashable, int]]) -> list:
    """Rows with dict order made visible (``==`` on dicts ignores it)."""
    return [(q, list(row.items())) for q, row in rows.items()]


def indistinguishable_pairs(
    rows: Mapping[int, Mapping[Hashable, int]], labels: Mapping[int, Hashable]
) -> list[tuple[int, int]]:
    """Table-filling Myhill–Nerode check for a trim partial automaton.

    A pair is distinguishable when the labels differ, when a symbol is
    defined on one side only (trim: the defined side reaches acceptance),
    or when some symbol leads to a distinguishable pair.  Returns the pairs
    never marked — empty for a minimal automaton.
    """
    pairs = list(itertools.combinations(sorted(labels), 2))
    marked = {
        (p, q)
        for p, q in pairs
        if labels[p] != labels[q] or set(rows.get(p, ())) != set(rows.get(q, ()))
    }
    changed = True
    while changed:
        changed = False
        for p, q in pairs:
            if (p, q) in marked:
                continue
            for symbol, dst in rows.get(p, {}).items():
                succ = tuple(sorted((dst, rows[q][symbol])))
                if succ[0] != succ[1] and succ in marked:
                    marked.add((p, q))
                    changed = True
                    break
    return [pair for pair in pairs if pair not in marked]


def dfa_labels(dfa: DFA) -> dict[int, bool]:
    return {q: q in dfa.accepts for q in dfa.states}


def token_labels(automaton: TokenAutomaton) -> dict[int, tuple[bool, bool]]:
    return {
        q: (q in automaton.accepts, q in automaton.prefix_live)
        for q in automaton._reachable()
    }


def assert_same_tokens(got: TokenAutomaton, want: TokenAutomaton) -> None:
    assert got.start == want.start
    assert got.accepts == want.accepts
    assert got.prefix_live == want.prefix_live
    assert ordered_rows(got.edges) == ordered_rows(want.edges)


shapes = (st.integers(1, 7), st.booleans(), st.randoms(use_true_random=False))


class TestCharDFA:
    @settings(max_examples=200, deadline=None)
    @given(*shapes)
    def test_partition_matches_oracle(self, n, acyclic, rng):
        dfa = random_dfa(rng, n, acyclic).trimmed()
        if not dfa.accepts:
            return
        labels = dfa_labels(dfa)
        block_of, representatives = refine(dfa.transitions, labels)
        assert as_partition(block_of) == reference_partition(dfa.transitions, labels)
        # Ids are dense and ascend with each block's minimum member.
        assert representatives == sorted(representatives)
        for block, rep in enumerate(representatives):
            assert rep == min(q for q, b in block_of.items() if b == block)

    @settings(max_examples=200, deadline=None)
    @given(*shapes)
    def test_quotient_matches_oracle_numbering_included(self, n, acyclic, rng):
        dfa = random_dfa(rng, n, acyclic)
        got, want = dfa.minimized(), reference_minimized_dfa(dfa)
        assert (got.start, got.accepts) == (want.start, want.accepts)
        assert ordered_rows(got.transitions) == ordered_rows(want.transitions)

    @settings(max_examples=150, deadline=None)
    @given(*shapes)
    def test_fixed_point_of_minimized_and_trimmed(self, n, acyclic, rng):
        once = random_dfa(rng, n, acyclic).minimized()
        for again in (once.minimized(), once.trimmed()):
            assert (again.start, again.accepts) == (once.start, once.accepts)
            assert ordered_rows(again.transitions) == ordered_rows(once.transitions)

    @settings(max_examples=150, deadline=None)
    @given(*shapes)
    def test_myhill_nerode_minimal(self, n, acyclic, rng):
        mini = random_dfa(rng, n, acyclic).minimized()
        if mini.accepts:
            assert indistinguishable_pairs(mini.transitions, dfa_labels(mini)) == []


class TestTokenAutomaton:
    @settings(max_examples=200, deadline=None)
    @given(st.sampled_from([random_token_automaton, compiled_token_automaton]), *shapes)
    def test_partition_and_quotient_match_oracle(self, build, n, acyclic, rng):
        automaton = build(rng, n, acyclic)
        base = automaton.trimmed()
        if base.accepts:
            labels = token_labels(base)
            block_of, _ = refine(base.edges, labels)
            assert as_partition(block_of) == reference_partition(base.edges, labels)
        assert_same_tokens(automaton.minimized(), reference_minimized_tokens(automaton))

    @settings(max_examples=150, deadline=None)
    @given(st.sampled_from([random_token_automaton, compiled_token_automaton]), *shapes)
    def test_fixed_point_and_minimal(self, build, n, acyclic, rng):
        once = build(rng, n, acyclic).minimized()
        assert_same_tokens(once.minimized(), once)
        assert_same_tokens(once.trimmed(), once)
        if once.accepts:
            assert indistinguishable_pairs(once.edges, token_labels(once)) == []

    def test_prefix_region_blocks_a_merge(self):
        """Two states with identical futures stay apart when only one is
        prefix-live: edges into it bypass decoding rules (§3.3)."""
        automaton = TokenAutomaton(
            start=0,
            accepts=frozenset({3}),
            edges={0: {1: 1, 2: 2}, 1: {5: 3}, 2: {5: 3}},
            prefix_live=frozenset({0, 1}),
        )
        assert automaton.minimized().num_states == 4
        automaton.prefix_live = frozenset({0, 1, 2})
        merged = automaton.minimized()
        assert merged.num_states == 3
        assert merged.prefix_live == frozenset({0, 1})


def proof_case(rng: random.Random, num_states: int, acyclic: bool) -> tuple[TokenAutomaton, bool]:
    """A compiled automaton for the minimality proof, and whether every
    transition character of its char DFA is a token.  The char DFA is, in
    equal parts: as generated (not necessarily trim), trim (the product
    has states to merge), minimal, minimal with sparse state ids, or
    minimal plus a dead-end state; half the vocabularies miss a base
    character."""
    char_dfa = random_dfa(rng, num_states, acyclic)
    shape = rng.randrange(5)
    if shape == 1:
        char_dfa = char_dfa.trimmed()
    elif shape >= 2:
        char_dfa = char_dfa.minimized()
    if shape == 3:
        char_dfa = DFA(
            start=2 * char_dfa.start + 1,
            accepts=frozenset(2 * q + 1 for q in char_dfa.accepts),
            transitions={
                2 * q + 1: {ch: 2 * dst + 1 for ch, dst in row.items()}
                for q, row in char_dfa.transitions.items()
            },
        )
    elif shape == 4:
        states = char_dfa.states
        src = rng.choice(states)
        free = sorted(set(ALPHABET) - set(char_dfa.transitions.get(src, ())))
        if free:
            char_dfa.transitions.setdefault(src, {})[free[0]] = len(states)
    singles = list(ALPHABET)
    if rng.random() < 0.5:
        singles.remove(rng.choice(singles))
    # The product keeps every state the start reaches, co-accessible or not.
    used = {
        ch for q in char_dfa._accessible_states() for ch in char_dfa.transitions.get(q, ())
    }
    automaton = compiled_token_automaton(rng, num_states, acyclic, char_dfa, singles)
    return automaton, used <= set(singles)


class TestMinimalityProof:
    """``compile_all_tokens`` marks an automaton minimal only when it is."""

    @settings(max_examples=400, deadline=None)
    @given(*shapes)
    def test_marked_minimal_is_a_fixed_point_of_the_reference(self, n, acyclic, rng):
        automaton, chars_are_tokens = proof_case(rng, n, acyclic)
        if not chars_are_tokens:
            assert not automaton._minimal
        reference = reference_minimized_tokens(automaton)
        if automaton._minimal:
            assert automaton.minimized() is automaton
            assert_same_tokens(automaton, reference)
        else:
            assert_same_tokens(automaton.minimized(), reference)

    def test_both_outcomes_occur(self):
        """The property above is not vacuous: the mark is set on some
        automata, and withheld from some whose characters are all tokens
        (a product with states to merge)."""
        marked = withheld = 0
        for seed in range(200):
            rng = random.Random(seed)
            automaton, chars_are_tokens = proof_case(rng, rng.randint(1, 7), seed % 2 == 0)
            marked += automaton._minimal
            withheld += chars_are_tokens and not automaton._minimal
        assert marked >= 20 and withheld >= 20, (marked, withheld)


def test_long_chain_minimizes_in_near_linear_time():
    """Complexity guard, not a ratio gate: a 3 000-state chain with a loop
    over 40 symbols (already minimal, 120 000 edges) peels one state per
    split.  The set-based reference intersects the preimage with every
    block for every (splitter, symbol) and needs minutes here; the kernel
    pays only for the part of a block a splitter hits."""
    n, symbols = 3000, [chr(ord("0") + i) for i in range(40)]
    transitions = {q: {ch: min(q + 1, n - 1) for ch in symbols} for q in range(n)}
    dfa = DFA(start=0, accepts=frozenset({n - 1}), transitions=transitions)
    started = time.perf_counter()
    mini = dfa.minimized()
    elapsed = time.perf_counter() - started
    assert len(mini.states) == n
    assert elapsed < 20.0, f"minimizing a {n}-state chain took {elapsed:.1f}s"
