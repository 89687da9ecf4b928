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

At compile time every state's successor dict is lowered into three
parallel NumPy arrays — ``token_ids``, ``dst_states``, ``is_prefix`` — so
one frontier expansion becomes a handful of fancy-indexing operations
(``lp[token_ids]``, vectorized finiteness/policy masking, one ``np.exp``
for sampling) instead of a per-edge loop.  Array order preserves the edge
dict's insertion order, so tie-breaking in the executor is bit-identical
to the scalar per-edge loop's.

``intervals=True`` additionally stores each row as sorted token-id
*interval runs* (CSR-style, following Koo et al.'s compressed token
automata): maximal runs of consecutive token ids sharing one destination
collapse to ``(start, length, dst)`` triples.  Post-minimization automata
are dominated by such runs (character classes compile to contiguous
single-byte token ranges), so rows shrink by an order of magnitude; the
expanded parallel arrays are materialised lazily — with one vectorized
``np.repeat``/``arange`` pass, in exactly the original edge order — and
memoised the first time a traversal touches the state.  Rows that would
not compress stay eager parallel arrays, so the representation is never
worse than the plain lowering.
"""

from __future__ import annotations

from dataclasses import dataclass

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


@dataclass(frozen=True)
class _RunRow:
    """One state's edges as interval runs: ``lengths[i]`` consecutive
    token ids starting at ``starts[i]``, all landing on ``dsts[i]``."""

    starts: np.ndarray
    lengths: np.ndarray
    dsts: np.ndarray
    is_prefix: np.ndarray

    @property
    def num_edges(self) -> int:
        return int(self.lengths.sum())

    def expand(self) -> StateRow:
        """Materialise the parallel-array view, preserving edge order."""
        lengths = self.lengths
        total = int(lengths.sum())
        # offsets-within-run: 0..len-1 per run, built without a Python loop.
        ends = np.cumsum(lengths)
        within = np.arange(total) - np.repeat(ends - lengths, lengths)
        token_ids = np.repeat(self.starts, lengths) + within
        dst_states = np.repeat(self.dsts, lengths)
        is_prefix = np.repeat(self.is_prefix, lengths)
        return StateRow(token_ids, dst_states, is_prefix)


def _compress_row(row: dict[int, int]) -> list[tuple[int, int, int]]:
    """Greedy run decomposition of *row* in its iteration order.

    Returns ``(start, length, dst)`` triples; a run extends while the next
    token id is exactly previous+1 with the same destination, so
    concatenating the runs reproduces the dict's edge order verbatim.
    """
    runs: list[tuple[int, int, int]] = []
    run_start = run_len = run_dst = 0
    prev_tok = None
    for tok, dst in row.items():
        if prev_tok is not None and tok == prev_tok + 1 and dst == run_dst:
            run_len += 1
        else:
            if prev_tok is not None:
                runs.append((run_start, run_len, run_dst))
            run_start, run_len, run_dst = tok, 1, dst
        prev_tok = tok
    if prev_tok is not None:
        runs.append((run_start, run_len, run_dst))
    return runs


class AutomatonArrays:
    """Per-state array index over a token automaton's edges.

    Built once at compile time (see ``TokenAutomaton.arrays``) and shared
    by every executor that runs the compiled query — including cached
    re-uses of the same compilation.
    """

    def __init__(
        self,
        edges: dict[int, dict[int, int]],
        prefix_live: frozenset[int],
        vocab_size: int,
        intervals: bool = False,
    ) -> None:
        self.vocab_size = vocab_size
        self.intervals = intervals
        self._rows: dict[int, StateRow] = {}
        self._runs: dict[int, _RunRow] = {}
        #: Number of states with at least one outgoing edge.
        self.num_states = 0
        self.num_edges = 0
        self.interval_runs = 0
        self.states_compressed = 0
        self.bytes_estimate = 0
        for state, row in edges.items():
            if not row:
                continue
            self.num_states += 1
            self.num_edges += len(row)
            if intervals:
                runs = _compress_row(row)
                # Only keep the compressed form when it actually shrinks
                # the row; a 2x edge/run ratio covers the per-run overhead
                # (4 cells per run vs 3 cells per edge).
                if 2 * len(runs) <= len(row):
                    starts = np.fromiter(
                        (r[0] for r in runs), dtype=np.intp, count=len(runs)
                    )
                    lengths = np.fromiter(
                        (r[1] for r in runs), dtype=np.intp, count=len(runs)
                    )
                    dsts = np.fromiter(
                        (r[2] for r in runs), dtype=np.intp, count=len(runs)
                    )
                    is_prefix = np.fromiter(
                        (r[2] in prefix_live for r in runs),
                        dtype=bool,
                        count=len(runs),
                    )
                    run_row = _RunRow(starts, lengths, dsts, is_prefix)
                    self._runs[state] = run_row
                    self.interval_runs += len(runs)
                    self.states_compressed += 1
                    self.bytes_estimate += (
                        starts.nbytes + lengths.nbytes + dsts.nbytes + is_prefix.nbytes
                    )
                    continue
            eager = self._lower_row(row, prefix_live)
            self._rows[state] = eager
            self.bytes_estimate += (
                eager.token_ids.nbytes
                + eager.dst_states.nbytes
                + eager.is_prefix.nbytes
            )

    @staticmethod
    def _lower_row(row: dict[int, int], prefix_live: frozenset[int]) -> StateRow:
        token_ids = np.fromiter(row.keys(), dtype=np.intp, count=len(row))
        dst_states = np.fromiter(row.values(), dtype=np.intp, count=len(row))
        is_prefix = np.fromiter(
            (dst in prefix_live for dst in row.values()),
            dtype=bool,
            count=len(row),
        )
        return StateRow(token_ids, dst_states, is_prefix)

    def row(self, state: int) -> StateRow | None:
        """The edge arrays for *state* (``None`` when it has no successors).

        Interval-compressed rows expand (vectorized) on first touch and the
        expansion is memoised — traversals pay the decompression once per
        state they actually visit.
        """
        expanded = self._rows.get(state)
        if expanded is not None:
            return expanded
        run_row = self._runs.get(state)
        if run_row is None:
            return None
        expanded = run_row.expand()
        self._rows[state] = expanded
        return expanded
