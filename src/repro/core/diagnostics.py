"""Executor diagnostics: quantifying transitive elimination.

§3.3: "if a string is eliminated via top-k, any strings sharing the
eliminated prefix are also transitively eliminated, allowing for large
sets of test vectors to be eliminated in one traversal step."  The
:class:`EliminationTracker` makes that quantitative: for each pruned edge
it counts exactly how many strings of the (length-bounded) query language
died with it, using the same big-int walk DP as the uniform sampler.
"""

from __future__ import annotations

from repro.automata.walks import WalkCounter
from repro.core.analyze import TokenGraphView
from repro.core.compiler import TokenAutomaton

__all__ = ["EliminationTracker"]


class EliminationTracker:
    """Counts token sequences transitively eliminated by pruned edges.

    ``max_tokens`` bounds the horizon (cycles are unrolled to it, as in
    §3.3's walk counting).  Counts are over *token sequences* of the
    automaton — under all-encodings compilation a string with several
    encodings is counted once per surviving encoding path.
    """

    def __init__(self, automaton: TokenAutomaton, max_tokens: int) -> None:
        self._counter = WalkCounter(TokenGraphView(automaton), max_length=max_tokens)
        self.max_tokens = max_tokens
        self.eliminated = 0
        self.events = 0

    def record_pruned_edge(self, dst_state: int, tokens_consumed: int) -> int:
        """Record pruning an edge into *dst_state* after *tokens_consumed*
        steps; returns (and accumulates) the number of sequences killed."""
        remaining = max(self.max_tokens - tokens_consumed - 1, 0)
        killed = self._counter.counts_at(remaining).get(dst_state, 0)
        self.eliminated += killed
        self.events += 1
        return killed

    def total_sequences(self) -> int:
        """Total token sequences in the bounded language (the denominator
        for 'fraction of the space eliminated')."""
        return self._counter.total()
