"""Deterministic finite automata: the workhorse of ReLM's natural-language
automaton.

A :class:`DFA` here is *partial*: missing transitions mean rejection.  All
states stored are reachable and (after :meth:`DFA.trimmed`) co-reachable, so
every state lies on some accepting path — a property the graph compiler and
walk-counting code rely on.

Provides subset construction from NFAs, Hopcroft minimisation, product
constructions (intersection / union / difference), enumeration, and
acceptance tests.  Construction from a regex string lives in
:func:`repro.regex.compile_dfa`.
"""

from __future__ import annotations

import hashlib
import itertools
from collections import deque
from dataclasses import dataclass, field
from typing import Iterable, Iterator

from repro.automata.nfa import NFA
from repro.automata.partition import refine

__all__ = ["DFA", "ProductBudgetExceeded"]


class ProductBudgetExceeded(Exception):
    """A budgeted product construction grew past its ``max_states`` cap.

    Raised *before* the oversized automaton is materialised, so callers
    (the query-set analyzer) can degrade to an "unknown" verdict instead
    of stalling on a pathological pair.  The partial product is discarded;
    nothing about either operand is mutated.
    """

    def __init__(self, max_states: int) -> None:
        super().__init__(
            f"product construction exceeded the {max_states}-state budget"
        )
        self.max_states = max_states


@dataclass
class DFA:
    """A trim, partial DFA over single-character edge labels.

    ``transitions[q]`` maps a character to the unique successor state.  The
    empty language is represented by a DFA whose start state is non-accepting
    and has no outgoing edges.

    Two facts a constructor proves are recorded rather than re-derived:
    ``_trim`` (every state lies on a start→accept path — bar the empty
    language's lone start — and states are numbered ``0 … n-1``), set by :meth:`trimmed`, :meth:`minimized`,
    :meth:`from_nfa`, the product constructions and the compiler's prefix
    closure / prefix product; and ``_minimal``, set by :meth:`minimized`.
    On a DFA carrying them :meth:`trimmed` / :meth:`minimized` return
    ``self`` and :meth:`is_empty` reads ``accepts``.  The facts describe
    the tables as built, so a DFA is never mutated in place: build a new
    one.  :meth:`is_trim` still computes, because it is what a proof (the
    compiler's minimality check) asks, and a proof must not trust a flag.
    """

    start: int
    accepts: frozenset[int]
    transitions: dict[int, dict[str, int]] = field(default_factory=dict)
    #: Recorded facts (see above); not part of identity.  Pickles made
    #: before they existed read the class default ``False``.
    _trim: bool = field(default=False, repr=False, compare=False)
    _minimal: bool = field(default=False, repr=False, compare=False)

    # -- basic queries -------------------------------------------------------
    @property
    def states(self) -> list[int]:
        """All states, sorted (start state is always present)."""
        seen = {self.start} | set(self.accepts) | set(self.transitions)
        for edges in self.transitions.values():
            seen.update(edges.values())
        return sorted(seen)

    def accepts_string(self, text: str) -> bool:
        """Return True iff *text* is in the DFA's language."""
        state = self.start
        for ch in text:
            nxt = self.transitions.get(state, {}).get(ch)
            if nxt is None:
                return False
            state = nxt
        return state in self.accepts

    def is_empty(self) -> bool:
        """Return True iff the language is empty."""
        if self._trim:
            return not self.accepts
        return not self._coaccessible_states()

    def is_trim(self) -> bool:
        """Return True iff every state lies on a path from the start state
        to an accepting state (computed, whatever ``_trim`` records)."""
        return len(self._coaccessible_states()) == len(self.states)

    def has_cycle(self) -> bool:
        """Return True iff any cycle is reachable (i.e. the language may be
        infinite)."""
        # Iterative DFS with colouring.
        WHITE, GREY, BLACK = 0, 1, 2
        colour: dict[int, int] = {}
        stack: list[tuple[int, Iterator[int]]] = [
            (self.start, iter(self.transitions.get(self.start, {}).values()))
        ]
        colour[self.start] = GREY
        while stack:
            state, it = stack[-1]
            advanced = False
            for nxt in it:
                c = colour.get(nxt, WHITE)
                if c == GREY:
                    return True
                if c == WHITE:
                    colour[nxt] = GREY
                    stack.append((nxt, iter(self.transitions.get(nxt, {}).values())))
                    advanced = True
                    break
            if not advanced:
                colour[state] = BLACK
                stack.pop()
        return False

    def enumerate_strings(
        self, limit: int | None = None, max_length: int | None = None
    ) -> Iterator[str]:
        """Yield strings of the language in shortlex (length, then codepoint)
        order.

        ``limit`` bounds the number of strings yielded; ``max_length`` bounds
        their length.  For infinite languages at least one bound must be
        supplied.
        """
        if limit is None and max_length is None and self.has_cycle():
            raise ValueError("unbounded enumeration of an infinite language")
        count = 0
        queue: deque[tuple[int, str]] = deque([(self.start, "")])
        while queue:
            state, prefix = queue.popleft()
            if state in self.accepts:
                yield prefix
                count += 1
                if limit is not None and count >= limit:
                    return
            if max_length is not None and len(prefix) >= max_length:
                continue
            for ch in sorted(self.transitions.get(state, {})):
                queue.append((self.transitions[state][ch], prefix + ch))

    def count_strings(self, max_length: int | None = None) -> int:
        """Exact number of accepted strings (optionally up to *max_length*).

        Delegates to :mod:`repro.automata.walks`; provided here for
        convenience on small automata.
        """
        from repro.automata.walks import count_accepting_walks

        return count_accepting_walks(self, max_length=max_length)

    # -- construction --------------------------------------------------------
    @classmethod
    def from_nfa(cls, nfa: NFA) -> "DFA":
        """Determinise *nfa* with the subset construction and trim the
        result."""
        start_set = nfa.epsilon_closure({nfa.start})
        ids: dict[frozenset[int], int] = {start_set: 0}
        transitions: dict[int, dict[str, int]] = {}
        accepts: set[int] = set()
        if start_set & nfa.accepts:
            accepts.add(0)
        queue: deque[frozenset[int]] = deque([start_set])
        while queue:
            current = queue.popleft()
            cid = ids[current]
            moves: dict[str, set[int]] = {}
            for q in current:
                for ch, dsts in nfa.transitions.get(q, {}).items():
                    moves.setdefault(ch, set()).update(dsts)
            row: dict[str, int] = {}
            for ch, dsts in moves.items():
                closed = nfa.epsilon_closure(dsts)
                nid = ids.get(closed)
                if nid is None:
                    nid = len(ids)
                    ids[closed] = nid
                    queue.append(closed)
                    if closed & nfa.accepts:
                        accepts.add(nid)
                row[ch] = nid
            if row:
                transitions[cid] = row
        return cls(start=0, accepts=frozenset(accepts), transitions=transitions).trimmed()

    @classmethod
    def from_string(cls, text: str) -> "DFA":
        """A linear DFA accepting exactly *text*."""
        transitions = {i: {ch: i + 1} for i, ch in enumerate(text)}
        return cls(start=0, accepts=frozenset({len(text)}), transitions=transitions)

    @classmethod
    def from_strings(cls, texts: Iterable[str]) -> "DFA":
        """A trie-shaped DFA accepting exactly the given set of strings,
        minimised."""
        next_id = itertools.count(1)
        transitions: dict[int, dict[str, int]] = {}
        accepts: set[int] = set()
        root = 0
        found_any = False
        for text in texts:
            found_any = True
            state = root
            for ch in text:
                row = transitions.setdefault(state, {})
                nxt = row.get(ch)
                if nxt is None:
                    nxt = next(next_id)
                    row[ch] = nxt
                state = nxt
            accepts.add(state)
        if not found_any:
            return cls(start=0, accepts=frozenset())
        return cls(start=root, accepts=frozenset(accepts), transitions=transitions).minimized()

    # -- transformations -----------------------------------------------------
    def _accessible_states(self) -> set[int]:
        seen = {self.start}
        queue = deque([self.start])
        while queue:
            q = queue.popleft()
            for nxt in self.transitions.get(q, {}).values():
                if nxt not in seen:
                    seen.add(nxt)
                    queue.append(nxt)
        return seen

    def _coaccessible_states(self, accessible: set[int] | None = None) -> set[int]:
        """Accessible states from which an accepting state is reachable
        (*accessible*, when the caller has it, saves the forward walk)."""
        reverse: dict[int, set[int]] = {}
        if accessible is None:
            accessible = self._accessible_states()
        for src, row in self.transitions.items():
            if src not in accessible:
                continue
            for dst in row.values():
                reverse.setdefault(dst, set()).add(src)
        seen = set(self.accepts) & accessible
        queue = deque(seen)
        while queue:
            q = queue.popleft()
            for prev in reverse.get(q, ()):
                if prev not in seen:
                    seen.add(prev)
                    queue.append(prev)
        return seen

    def trimmed(self) -> "DFA":
        """Remove states not on any path from start to an accepting state.

        The start state is always kept (a trim DFA for the empty language is
        a lone, non-accepting start state).  A DFA recorded as trim is
        returned unchanged.
        """
        if self._trim:
            return self
        useful = self._coaccessible_states(self._accessible_states())
        keep = useful | {self.start}
        remap = {old: new for new, old in enumerate(sorted(keep))}
        transitions: dict[int, dict[str, int]] = {}
        for src in keep:
            if src not in useful and src != self.start:
                continue
            row = {
                ch: remap[dst]
                for ch, dst in self.transitions.get(src, {}).items()
                if dst in useful
            }
            if row:
                transitions[remap[src]] = row
        accepts = frozenset(remap[q] for q in self.accepts if q in keep)
        return DFA(
            start=remap[self.start], accepts=accepts, transitions=transitions, _trim=True
        )

    def minimized(self) -> "DFA":
        """Return the minimal equivalent DFA (trim, partial).

        The state partition comes from :func:`repro.automata.partition.refine`;
        each block is named by its id (ids ascend with the block's minimum
        member) and takes that member's transitions.  A quotient of a trim
        automaton is trim, so the result needs no further trimming.  A DFA
        recorded as minimal is returned unchanged.
        """
        if self._minimal:
            return self
        dfa = self.trimmed()
        if not dfa.accepts:  # the empty language: a lone start state
            return DFA(start=dfa.start, accepts=dfa.accepts, _trim=True, _minimal=True)
        block_of, representatives = refine(
            dfa.transitions, {q: q in dfa.accepts for q in dfa.states}
        )
        transitions: dict[int, dict[str, int]] = {}
        for block, rep in enumerate(representatives):
            row = dfa.transitions.get(rep)
            if row:
                transitions[block] = {ch: block_of[dst] for ch, dst in row.items()}
        return DFA(
            start=block_of[dfa.start],
            accepts=frozenset(block_of[q] for q in dfa.accepts),
            transitions=transitions,
            _trim=True,
            _minimal=True,
        )

    # -- canonical form ------------------------------------------------------
    def canonical_form(self) -> tuple:
        """A canonical, hashable serialisation of the minimal equivalent DFA.

        Two DFAs have equal canonical forms **iff** they accept the same
        language: Hopcroft minimisation makes the trim minimal automaton
        unique up to state renaming, and a BFS renumbering that explores
        edges in sorted-label order fixes the renaming deterministically.
        The form is ``(accepts, transitions)`` with the start state always
        numbered 0.  Used by the query-set analyzer for exact duplicate
        detection (the fingerprint hash buckets in O(N), the form confirms).
        """
        m = self.minimized()
        order: dict[int, int] = {m.start: 0}
        queue: deque[int] = deque([m.start])
        while queue:
            q = queue.popleft()
            row = m.transitions.get(q, {})
            for ch in sorted(row):
                dst = row[ch]
                if dst not in order:
                    order[dst] = len(order)
                    queue.append(dst)
        # Trim + minimal => every state is reachable, so ``order`` is total.
        by_rank = sorted(order, key=lambda q: order[q])
        transitions = tuple(
            tuple(
                (ch, order[dst])
                for ch, dst in sorted(m.transitions.get(q, {}).items())
            )
            for q in by_rank
        )
        accepts = tuple(sorted(order[q] for q in m.accepts))
        return (accepts, transitions)

    def canonical_fingerprint(self) -> str:
        """Stable hex digest of :meth:`canonical_form`.

        Equal fingerprints are a *bucketing* signal (hash-equal ⇒ almost
        certainly equivalent); callers that must never report a wrong
        equivalence verdict compare the canonical forms inside a bucket.
        """
        payload = repr(self.canonical_form()).encode("utf-8")
        return hashlib.sha256(payload).hexdigest()

    # -- boolean operations ----------------------------------------------------
    def _product(
        self, other: "DFA", accept_rule, max_states: int | None = None
    ) -> "DFA":
        """Generic product construction.

        ``accept_rule(in_a, in_b)`` decides acceptance of a product state.
        Missing transitions are modelled with a dead state (``None``) so
        union/difference behave correctly on partial DFAs; a pair that can
        never accept because a side the rule needs is dead is not explored.
        ``max_states`` bounds the number of *explored* pair states;
        exceeding it raises :class:`ProductBudgetExceeded` (the analyzer's
        degrade-to-unknown hook) instead of materialising a blowup.
        """
        start = (self.start, other.start)
        ids: dict[tuple[int | None, int | None], int] = {start: 0}
        queue: deque[tuple[int | None, int | None]] = deque([start])
        transitions: dict[int, dict[str, int]] = {}
        accepts: set[int] = set()

        def is_accepting(pair: tuple[int | None, int | None]) -> bool:
            a, b = pair
            return accept_rule(a in self.accepts if a is not None else False,
                               b in other.accepts if b is not None else False)

        if is_accepting(start):
            accepts.add(0)
        # A side that has died stays dead, so where the rule cannot accept
        # without it (intersection: either side; difference: the left)
        # such a pair is never explored: trimming would only drop it.
        live_without_a = accept_rule(False, False) or accept_rule(False, True)
        live_without_b = accept_rule(False, False) or accept_rule(True, False)
        while queue:
            pair = queue.popleft()
            pid = ids[pair]
            a, b = pair
            chars: set[str] = set()
            if a is not None:
                chars.update(self.transitions.get(a, {}))
            if b is not None:
                chars.update(other.transitions.get(b, {}))
            row: dict[str, int] = {}
            for ch in chars:
                na = self.transitions.get(a, {}).get(ch) if a is not None else None
                nb = other.transitions.get(b, {}).get(ch) if b is not None else None
                if na is None and nb is None:
                    continue
                if (na is None and not live_without_a) or (nb is None and not live_without_b):
                    continue
                nxt = (na, nb)
                nid = ids.get(nxt)
                if nid is None:
                    if max_states is not None and len(ids) >= max_states:
                        raise ProductBudgetExceeded(max_states)
                    nid = len(ids)
                    ids[nxt] = nid
                    queue.append(nxt)
                    if is_accepting(nxt):
                        accepts.add(nid)
                row[ch] = nid
            if row:
                transitions[pid] = row
        return DFA(start=0, accepts=frozenset(accepts), transitions=transitions).trimmed()

    def intersect(self, other: "DFA", max_states: int | None = None) -> "DFA":
        """Language intersection (optionally state-budgeted)."""
        return self._product(other, lambda a, b: a and b, max_states=max_states)

    def union(self, other: "DFA", max_states: int | None = None) -> "DFA":
        """Language union (optionally state-budgeted)."""
        return self._product(other, lambda a, b: a or b, max_states=max_states)

    def difference(self, other: "DFA", max_states: int | None = None) -> "DFA":
        """Language difference (strings in self but not in other;
        optionally state-budgeted)."""
        return self._product(other, lambda a, b: a and not b, max_states=max_states)

    def concat_string(self, suffix: str) -> "DFA":
        """Language ``{w + suffix : w in L(self)}`` — appends a literal."""
        if not suffix:
            return self
        dfa = self.trimmed()
        base = max(dfa.states, default=0) + 1
        transitions = {q: dict(row) for q, row in dfa.transitions.items()}
        chain = [base + i for i in range(len(suffix))]
        for q in dfa.accepts:
            transitions.setdefault(q, {})[suffix[0]] = chain[0]
        for i, ch in enumerate(suffix[1:], start=1):
            transitions.setdefault(chain[i - 1], {})[ch] = chain[i]
        # Note: if an accepting state already had an outgoing edge on
        # suffix[0] this naive overwrite would be wrong; route via NFA then.
        for q in dfa.accepts:
            if suffix[0] in dfa.transitions.get(q, {}):
                return _concat_via_nfa(dfa, suffix)
        return DFA(
            start=dfa.start, accepts=frozenset({chain[-1]}), transitions=transitions
        ).trimmed()

    # -- convenience ---------------------------------------------------------
    def shortest_string(self) -> str | None:
        """Shortlex-smallest accepted string, or None if the language is
        empty."""
        return next(self.enumerate_strings(limit=1), None)

    def random_string(self, rng, max_length: int = 256) -> str | None:
        """Sample a uniformly random accepted string (uses walk counts).

        Delegates to :func:`repro.automata.walks.sample_uniform_string`.
        """
        from repro.automata.walks import sample_uniform_string

        return sample_uniform_string(self, rng, max_length=max_length)


def _concat_via_nfa(dfa: DFA, suffix: str) -> DFA:
    """Slow-path concatenation through an NFA (handles edge conflicts)."""
    nfa = NFA(start=0, accepts=set())
    nfa.num_states = max(dfa.states) + 1
    for src, row in dfa.transitions.items():
        for ch, dst in row.items():
            nfa.add_transition(src, ch, dst)
    chain_start = nfa.new_state()
    current = chain_start
    for ch in suffix:
        nxt = nfa.new_state()
        nfa.add_transition(current, ch, nxt)
        current = nxt
    for q in dfa.accepts:
        nfa.add_epsilon(q, chain_start)
    nfa.start = dfa.start
    nfa.accepts = {current}
    return DFA.from_nfa(nfa)
