"""Counting walks in automata, and sampling strings uniformly.

Implements the combinatorics of §3.3 of the paper: to sample uniformly over
the strings of a regular language, each edge must be weighed proportionally
to the number of accepting walks through it,

    p(e) = walks(e) / sum(walks(e') for e' leaving e.from)

Counts are exact Python integers (they grow as big-ints).  Cyclic automata
are handled the way the paper suggests — by "unrolling" up to the model's
maximum sequence length, i.e. counting walks of bounded length.
"""

from __future__ import annotations

import bisect
import itertools
from typing import NamedTuple

from repro.automata.dfa import DFA

__all__ = [
    "WalkCounter",
    "count_accepting_walks",
    "sample_uniform_string",
]


class WalkCounter:
    """Per-(state, remaining-length) accepting-walk counts for a DFA.

    ``counts_at(level)[q]`` is the number of accepted strings of length at
    most ``level`` readable starting from state ``q``.  Levels are computed
    lazily and cached; level ``L`` is what the paper calls unrolling cycles
    to the LLM's max sequence length.
    """

    def __init__(self, dfa: DFA, max_length: int) -> None:
        if max_length < 0:
            raise ValueError("max_length must be non-negative")
        self.dfa = dfa
        self.max_length = max_length
        base = {q: (1 if q in dfa.accepts else 0) for q in dfa.states}
        self._levels: list[dict[int, int]] = [base]
        #: Memoised draws, by (state, remaining); see :meth:`_step`.
        self._steps: dict[tuple[int, int], _WalkStep] = {}

    def counts_at(self, level: int) -> dict[int, int]:
        """Walk counts with remaining budget *level* (0 ≤ level ≤
        max_length)."""
        if level > self.max_length:
            raise ValueError(f"level {level} exceeds max_length {self.max_length}")
        while len(self._levels) <= level:
            prev = self._levels[-1]
            nxt: dict[int, int] = {}
            for q in self.dfa.states:
                total = 1 if q in self.dfa.accepts else 0
                for dst in self.dfa.transitions.get(q, {}).values():
                    total += prev[dst]
                nxt[q] = total
            self._levels.append(nxt)
        return self._levels[level]

    def total(self) -> int:
        """Number of accepted strings of length at most ``max_length``."""
        return self.counts_at(self.max_length).get(self.dfa.start, 0)

    def edge_weights(self, state: int, remaining: int) -> tuple[int, dict[str, int]]:
        """Return ``(stop_weight, {char: weight})`` at *state* with budget
        *remaining*.

        ``stop_weight`` is 1 if stopping at *state* yields an accepted string
        (i.e. the state is accepting), else 0.  Each edge weight is the
        number of accepted strings through that edge within the remaining
        budget — exactly the paper's ``walks(e)`` numerator.
        """
        stop = 1 if state in self.dfa.accepts else 0
        if remaining <= 0:
            return stop, {}
        lower = self.counts_at(remaining - 1)
        weights = {
            ch: lower[dst]
            for ch, dst in self.dfa.transitions.get(state, {}).items()
            if lower[dst] > 0
        }
        return stop, weights

    def _step(self, state: int, remaining: int) -> _WalkStep:
        """The draw out of *state* with budget *remaining*, memoised: its
        stop weight, total weight, the cumulative weight ends of its edges
        in character order, and those edges' characters and targets."""
        key = (state, remaining)
        step = self._steps.get(key)
        if step is None:
            stop, weights = self.edge_weights(state, remaining)
            chars = sorted(weights)
            ends = list(itertools.accumulate((weights[ch] for ch in chars), initial=stop))
            transitions = self.dfa.transitions.get(state, {})
            step = self._steps[key] = _WalkStep(
                stop, ends[-1], ends[1:], chars, [transitions[ch] for ch in chars]
            )
        return step

    def sample(self, rng) -> str | None:
        """Sample one string uniformly from the (bounded) language.

        Returns ``None`` when the language is empty within ``max_length``.
        ``rng`` is a :class:`random.Random`-like object (needs ``randrange``).
        Each step is one ``randrange`` over the step's total weight, and
        the pick is the first edge, in character order, whose cumulative
        weight end exceeds it.
        """
        if self.total() == 0:
            return None
        state = self.dfa.start
        remaining = self.max_length
        out: list[str] = []
        while True:
            step = self._step(state, remaining)
            pick = rng.randrange(step.total)
            if pick < step.stop:
                return "".join(out)
            i = bisect.bisect_right(step.ends, pick)
            out.append(step.chars[i])
            state = step.dsts[i]
            remaining -= 1

    def sample_uniform_edges(self, rng, max_steps: int | None = None) -> str | None:
        """Sample by weighing *edges* uniformly (the biased strategy of
        Appendix C).

        Provided for the Figure 9 reproduction: compared to :meth:`sample`,
        this concentrates probability mass on early branches.  Dead ends are
        avoided (only edges with at least one accepting continuation are
        candidates) so every draw terminates with an accepted string.
        """
        steps = self.max_length if max_steps is None else max_steps
        state = self.dfa.start
        remaining = steps
        out: list[str] = []
        while True:
            step = self._step(state, remaining)
            options = step.stop + len(step.chars)
            if not options:
                return None
            pick = rng.randrange(options) - step.stop
            if pick < 0:
                return "".join(out)
            out.append(step.chars[pick])
            state = step.dsts[pick]
            remaining -= 1


class _WalkStep(NamedTuple):
    """One memoised :class:`WalkCounter` step (see ``WalkCounter._step``)."""

    stop: int
    total: int
    ends: list[int]
    chars: list[str]
    dsts: list[int]


def count_accepting_walks(dfa: DFA, max_length: int | None = None) -> int:
    """Count accepted strings exactly.

    With ``max_length=None`` the automaton must be acyclic (finite
    language); the count is then over all lengths, in one post-order pass
    over the states the start reaches (O(edges)).  Cyclic automata require
    an explicit bound.
    """
    if max_length is not None:
        return WalkCounter(dfa, max_length).total()
    # Iterative DFS: a state is counted once every successor is; meeting a
    # state still on the path is a cycle.
    counts: dict[int, int] = {}
    on_path = {dfa.start}
    stack = [(dfa.start, iter(dfa.transitions.get(dfa.start, {}).values()))]
    while stack:
        state, successors = stack[-1]
        for nxt in successors:
            if nxt in on_path:
                raise ValueError("language is infinite; supply max_length to unroll")
            if nxt not in counts:
                on_path.add(nxt)
                stack.append((nxt, iter(dfa.transitions.get(nxt, {}).values())))
                break
        else:
            stack.pop()
            on_path.discard(state)
            counts[state] = int(state in dfa.accepts) + sum(
                map(counts.__getitem__, dfa.transitions.get(state, {}).values())
            )
    return counts[dfa.start]


def sample_uniform_string(dfa: DFA, rng, max_length: int = 256) -> str | None:
    """Sample one string uniformly at random from ``L(dfa)`` bounded by
    *max_length*.

    Convenience wrapper over :class:`WalkCounter`; build the counter once if
    sampling repeatedly.
    """
    return WalkCounter(dfa, max_length).sample(rng)
