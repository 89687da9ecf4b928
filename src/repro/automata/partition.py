"""Partition refinement: the one minimization kernel behind
:meth:`repro.automata.dfa.DFA.minimized` and
:meth:`repro.core.compiler.TokenAutomaton.minimized`.

Hopcroft's algorithm for *trim partial* deterministic automata, generic
over hashable edge symbols (characters or token ids), O(E log n):

* No dead state.  In a trim automaton every defined transition leads to a
  co-accessible state, so equivalent states define exactly the same
  symbols; seeding the partition with ``(label, set of out-symbols)`` is
  the split a completed automaton's dead state would have forced, without
  materialising a |Q|·|Σ| transition table.
* In-edges are indexed by destination, so a splitter block touches only
  the edges that enter it.
* Per symbol the preimage is grouped by current block and only blocks that
  are *partially* hit split; a split costs the size of the hit part.
* Smaller-half worklist of block ids with a membership flag per id.
"""

from __future__ import annotations

from typing import Hashable, Mapping

__all__ = ["refine"]


def refine(
    rows: Mapping[int, Mapping[Hashable, int]], labels: Mapping[int, Hashable]
) -> tuple[dict[int, int], list[int]]:
    """The coarsest partition of a trim partial automaton's states that
    respects *labels* and is stable under the transitions *rows*.

    ``rows[q][symbol]`` is the successor of ``q`` (states without out-edges
    may be absent); ``labels`` has one entry per state — states with
    different labels are never merged (acceptance for a DFA; acceptance and
    prefix-liveness for a token automaton).  Returns ``(block_of,
    representatives)``: ``block_of[q]`` is the id of the block holding
    ``q`` and ``representatives[b]`` the minimum member of block ``b``.
    Ids are dense and ascend with the representative, so a quotient that
    names each block by its id has a numbering that depends only on the
    input's.
    """
    seeds: dict[tuple[Hashable, frozenset], list[int]] = {}
    for q, label in labels.items():
        seeds.setdefault((label, frozenset(rows.get(q, ()))), []).append(q)
    blocks = [set(members) for members in seeds.values()]
    block_of = {q: b for b, members in enumerate(blocks) for q in members}

    # In-edges by destination, as parallel symbol/source lists rather than
    # a list of pairs: a tuple per edge, live for the whole call, is what
    # would drive the garbage collector's allocation counters here.
    in_symbols: dict[int, list[Hashable]] = {q: [] for q in labels}
    in_sources: dict[int, list[int]] = {q: [] for q in labels}
    for src, row in rows.items():
        for symbol, dst in row.items():
            in_symbols[dst].append(symbol)
            in_sources[dst].append(src)

    worklist = list(range(len(blocks)))
    in_worklist = [True] * len(blocks)
    while worklist:
        splitter = worklist.pop()
        in_worklist[splitter] = False
        preimage: dict[Hashable, list[int]] = {}
        for q in blocks[splitter]:
            for symbol, src in zip(in_symbols[q], in_sources[q]):
                preimage.setdefault(symbol, []).append(src)
        for sources in preimage.values():
            hit: dict[int, list[int]] = {}
            for src in sources:
                hit.setdefault(block_of[src], []).append(src)
            for block, members in hit.items():
                rest = blocks[block]
                if len(members) == len(rest):
                    continue  # the whole block moves together
                rest.difference_update(members)
                new = len(blocks)
                blocks.append(set(members))
                for q in members:
                    block_of[q] = new
                # A pending block stays queued and its new half joins it;
                # otherwise only the smaller half is queued.
                in_worklist.append(False)
                queued = new if in_worklist[block] or len(members) <= len(rest) else block
                in_worklist[queued] = True
                worklist.append(queued)

    representatives = sorted(min(members) for members in blocks)
    ids = {block_of[rep]: i for i, rep in enumerate(representatives)}
    return {q: ids[b] for q, b in block_of.items()}, representatives
