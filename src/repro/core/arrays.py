"""Array lowering of token automata: the executor's vectorized fast path.

The dict-based :class:`~repro.core.compiler.TokenAutomaton` is the
reference representation, but traversing it costs a Python-level loop per
edge: a ``dict`` iteration, two scalar NumPy indexing operations
(``mask[token_id]``, ``lp[token_id]``), an ``np.isfinite`` call, and a
tuple construction for every successor of every expanded state.  Willard &
Louf ("Efficient Guided Generation for Large Language Models") and Koo et
al. ("Automata-based constraints for language-model decoding") both
observe that precomputing a per-state index over the vocabulary turns
constrained decoding into O(1) vectorized mask lookups; this module is the
same move for ReLM's LLM automaton.

Each state's successor dict is lowered into three parallel NumPy arrays —
``token_ids``, ``dst_states``, ``is_prefix`` — so one frontier expansion
becomes a handful of fancy-indexing operations (``lp[token_ids]``,
vectorized finiteness/policy masking, one ``np.exp`` for sampling) instead
of a per-edge loop.  A row is built and lowered the first time a traversal
touches its state, and memoised: a first-match search over a large
automaton pays for the few rows it expands, not for all of them.  Array
order preserves the edge dict's insertion order, so tie-breaking in the
executor is bit-identical to the scalar per-edge loop's.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import AbstractSet, Mapping

import numpy as np

__all__ = ["StateRow", "AutomatonArrays"]


@dataclass(frozen=True)
class StateRow:
    """The outgoing edges of one state, as parallel arrays.

    ``token_ids[i]`` labels the i-th edge, ``dst_states[i]`` is its
    successor, and ``is_prefix[i]`` marks edges landing inside the prefix
    region (exempt from decoding rules, §3.3).  Order matches the edge
    dict's insertion order so traversal tie-breaking is unchanged.
    """

    token_ids: np.ndarray
    dst_states: np.ndarray
    is_prefix: np.ndarray

    @property
    def num_edges(self) -> int:
        return int(self.token_ids.size)


class AutomatonArrays:
    """Per-state array index over a token automaton's edges.

    Made once per automaton (see ``TokenAutomaton.arrays``) and shared by
    every executor that runs the compiled query — including cached re-uses
    of the same compilation — so each row is lowered at most once.
    ``bytes_estimate`` covers the rows lowered so far.
    """

    def __init__(
        self, edges: Mapping[int, Mapping[int, int]], prefix_live: AbstractSet[int]
    ) -> None:
        self._edges = edges
        self._live = prefix_live
        self._rows: dict[int, StateRow | None] = {}
        self.bytes_estimate = 0

    def row(self, state: int) -> StateRow | None:
        """The edge arrays for *state* (``None`` when it has no successors),
        lowered on the first call and memoised."""
        if state in self._rows:
            return self._rows[state]
        edges = self._edges.get(state)
        lowered: StateRow | None = None
        if edges:
            count = len(edges)
            dst_states = np.fromiter(edges.values(), dtype=np.intp, count=count)
            lowered = StateRow(
                np.fromiter(edges, dtype=np.intp, count=count),
                dst_states,
                np.fromiter(map(self._live.__contains__, edges.values()), dtype=bool, count=count),
            )
            self.bytes_estimate += (
                lowered.token_ids.nbytes + dst_states.nbytes + lowered.is_prefix.nbytes
            )
        self._rows[state] = lowered
        return lowered
