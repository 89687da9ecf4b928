"""Test-side references the differential suites compare the engine against.

``src/`` holds one production expansion path per traversal; what the
engine used to ship as user-selectable forks (``backend="dict"``,
``GraphCompiler(minimize_tokens=False)``) lives here instead, as oracles:

* :func:`expansion_path` pins *how* frontier edges are expanded for the
  duration of a ``with`` block — ``"dict"`` is the scalar reference (every
  shortest-path state takes the per-edge loop over the edge dict, beam
  search runs :func:`reference_beam_search` and random sampling
  :func:`reference_sample_once` below), ``"arrays"`` forces the vectorized
  row expansion for every state, ``"default"`` leaves the production
  small-fan-out selection alone.
* :func:`reference_walk_sample` / :func:`reference_walk_sample_uniform_edges`
  are the per-step linear scans ``WalkCounter``'s memoised draws replaced.
* :func:`compile_unminimized` hand-builds a compilation that skips token
  minimization and builds every token row up front
  (:func:`compile_all_tokens_eager`), from the compiler's public stage
  functions (the same chain ``benchmarks/e2e/tracing.py`` replays), and
  :func:`unminimized_compiler` seeds a compiler's cache with it so the
  scheduler can run the unminimized automaton too.
* :func:`compile_all_tokens_scan` is the paper's Appendix-B per-token scan,
  the differential target for the trie-guided ``compile_all_tokens``;
  :func:`compile_all_tokens_eager` is that construction with every row
  built at once, as it was before proven-minimal rows were built on first
  read.
* :func:`reference_partition` is the set-based Hopcroft (implicit dead
  state, full ``reverse`` table) that ``DFA.minimized`` and
  ``TokenAutomaton.minimized`` each used to carry a copy of, with
  :func:`reference_minimized_dfa` / :func:`reference_minimized_tokens`
  applying the quotient rule on top — the oracle for
  ``repro.automata.partition.refine``.
* :class:`FullContextLogitsCache` is the logits cache keyed by the whole
  token tuple, as it was before ``LanguageModel.row_key``;
  :func:`padded_context_key` is the n-gram's key as it was written then (a
  padded list of the whole context, sliced).
* :func:`reference_is_canonical` / :func:`reference_is_canonical_prefix`
  are the re-encode forms of the tokenizer's canonicity checks, and
  :func:`reference_decode` the per-id loop ``Vocabulary.decode`` replaced.
"""

from __future__ import annotations

import contextlib
from typing import Hashable, Iterator, Mapping

import numpy as np
import pytest

from repro.automata.dfa import DFA
from repro.automata.trie import SharedWalk
from repro.automata.walks import WalkCounter
from repro.core import executor as executor_module
from repro.core.compiler import (
    CompilationCache,
    CompiledQuery,
    CompileMetrics,
    GraphCompiler,
    TokenAutomaton,
    _prefix_product,
    prefixes_of,
)
from repro.core.executor import Executor, LmRequest
from repro.core.query import QueryTokenizationStrategy
from repro.lm.base import LanguageModel, LogitsCache
from repro.regex import compile_dfa

#: Expansion-path pins, as ``_SCALAR_FANOUT_CUTOFF`` values (``None`` =
#: leave the production cutoff in place).
_CUTOFFS = {"dict": 1 << 30, "arrays": 0, "default": None}


def reference_beam_search(self: Executor) -> Iterator:
    """Scalar beam search: a Python loop per edge, eager candidate tuples,
    one stable sort per depth.  The oracle for ``Executor._beam_search``."""
    automaton = self.automaton
    eos = self.model.eos_id
    width = self.query.beam_width
    start_state, start_tokens, start_total = yield from self._fast_forward_prefix()
    beam = [(start_total, 0.0, start_state, start_tokens)]
    seen_texts: set[str] = set()
    for _depth in range(self.max_tokens + 1):
        if not beam:
            return
        emitted = []
        candidates = []
        scored = yield LmRequest([entry[3] for entry in beam])
        for (total, suffix, state, tokens), (lp, mask) in zip(beam, scored):
            self.stats.nodes_expanded += 1
            if state in automaton.accepts and (
                not self._dynamic_prune or self.tokenizer.is_canonical(tokens)
            ):
                if self.query.require_eos:
                    if mask[eos] and np.isfinite(lp[eos]):
                        cost = -float(lp[eos])
                        emitted.append((total + cost, suffix + cost, tokens))
                else:
                    emitted.append((total, suffix, tokens))
            if len(tokens) >= self.max_tokens:
                continue
            for token_id, dst in automaton.successors(state).items():
                is_prefix = automaton.is_prefix_edge(dst)
                if not is_prefix and not mask[token_id]:
                    self.stats.pruned_edges += 1
                    continue
                if not np.isfinite(lp[token_id]):
                    self.stats.pruned_edges += 1
                    continue
                new_tokens = tokens + (token_id,)
                if self._dynamic_prune and not self.tokenizer.is_canonical_prefix(new_tokens):
                    self.stats.pruned_edges += 1
                    continue
                cost = -float(lp[token_id])
                candidates.append(
                    (total + cost, suffix if is_prefix else suffix + cost, dst, new_tokens)
                )
        for total, suffix, tokens in sorted(emitted):
            yield from self._emit(tokens, suffix, total, seen_texts)
        candidates.sort(key=lambda entry: entry[0])
        beam = candidates[:width]
        if len(candidates) > width:
            self.stats.pruned_edges += len(candidates) - width


def reference_sample_once(self: Executor, prefix_counter) -> Iterator:
    """Scalar sampling attempt: every step rebuilds its options with a
    Python loop over the edge dict, its weights with ``np.exp`` and its
    draw with ``random.choices(weights=...)``.  The oracle for
    ``Executor._sample_once`` (the low-temperature rescue included), with
    the prefix drawn by :func:`reference_walk_sample` /
    :func:`reference_walk_sample_uniform_edges`."""
    automaton = self.automaton
    eos = self.model.eos_id
    tokens: list[int] = []
    suffix_logprob = 0.0
    total_logprob = 0.0
    sampled_prefix = None
    if prefix_counter is not None:
        if self.query.uniform_edge_sampling:
            sampled_prefix = reference_walk_sample_uniform_edges(prefix_counter, self._rng)
        else:
            sampled_prefix = reference_walk_sample(prefix_counter, self._rng)
        if sampled_prefix is None:
            return None
        prefix_tokens = self.tokenizer.encode(sampled_prefix)
        state = automaton.start
        for tok in prefix_tokens:
            nxt = automaton.step(state, tok)
            if nxt is None:
                return None
            state = nxt
        tokens.extend(prefix_tokens)
    else:
        state = automaton.start
    while True:
        if len(tokens) >= self.max_tokens:
            return None
        at_accept = state in automaton.accepts
        if self._dynamic_prune and at_accept:
            at_accept = self.tokenizer.is_canonical(tuple(tokens))
        successors = automaton.successors(state)
        if not successors and not at_accept:
            return None
        if not successors and not self.query.require_eos:
            return self._make_result(
                tuple(tokens), -suffix_logprob, -total_logprob, sampled_prefix
            )
        ((lp, mask),) = yield LmRequest([tuple(tokens)], count_batch=False)
        options: list[tuple[int | None, float]] = []
        if at_accept and mask[eos] and np.isfinite(lp[eos]):
            options.append((None, float(lp[eos])))
        for token_id in successors:
            if not mask[token_id]:
                self.stats.pruned_edges += 1
                continue
            if not np.isfinite(lp[token_id]):
                continue
            if self._dynamic_prune and not self.tokenizer.is_canonical_prefix(
                tuple(tokens) + (token_id,)
            ):
                self.stats.pruned_edges += 1
                continue
            options.append((token_id, float(lp[token_id])))
        if not options:
            return None
        lps = np.array([w for _, w in options])
        weights = np.exp(lps)
        if weights.sum() == 0.0:
            weights = np.exp(lps - lps.max())
        weights /= weights.sum()
        choice = self._rng.choices(range(len(options)), weights=weights, k=1)[0]
        token_id, logprob = options[choice]
        total_logprob += logprob
        suffix_logprob += logprob
        if token_id is None:
            return self._make_result(
                tuple(tokens), -suffix_logprob, -total_logprob, sampled_prefix
            )
        tokens.append(token_id)
        state = successors[token_id]


def reference_walk_sample(counter: WalkCounter, rng) -> str | None:
    """Uniform string draw by a linear scan: rebuild the ``edge_weights``
    dict at every step, sort it, and walk it down with one ``randrange``.
    The oracle for ``WalkCounter.sample``."""
    if counter.total() == 0:
        return None
    state = counter.dfa.start
    remaining = counter.max_length
    out: list[str] = []
    while True:
        stop, weights = counter.edge_weights(state, remaining)
        pick = rng.randrange(stop + sum(weights.values()))
        if pick < stop:
            return "".join(out)
        pick -= stop
        for ch in sorted(weights):
            if pick < weights[ch]:
                out.append(ch)
                state = counter.dfa.transitions[state][ch]
                remaining -= 1
                break
            pick -= weights[ch]
        else:  # pragma: no cover - weights always cover pick
            raise AssertionError("weight bookkeeping error")


def reference_walk_sample_uniform_edges(
    counter: WalkCounter, rng, max_steps: int | None = None
) -> str | None:
    """Uniform *edge* draw (Appendix C) rebuilding the sorted option list
    at every step.  The oracle for ``WalkCounter.sample_uniform_edges``."""
    state = counter.dfa.start
    remaining = counter.max_length if max_steps is None else max_steps
    out: list[str] = []
    while True:
        stop, weights = counter.edge_weights(state, remaining)
        options = (["<stop>"] if stop else []) + sorted(weights)
        if not options:
            return None
        choice = options[rng.randrange(len(options))]
        if choice == "<stop>":
            return "".join(out)
        out.append(choice)
        state = counter.dfa.transitions[state][choice]
        remaining -= 1


@contextlib.contextmanager
def expansion_path(path: str) -> Iterator[None]:
    """Pin the executor's edge-expansion path (see the module docstring)."""
    cutoff = _CUTOFFS[path]
    with pytest.MonkeyPatch.context() as patch:
        if cutoff is not None:
            patch.setattr(executor_module, "_SCALAR_FANOUT_CUTOFF", cutoff)
        if path == "dict":
            patch.setattr(Executor, "_beam_search", reference_beam_search)
            patch.setattr(Executor, "_sample_once", reference_sample_once)
        yield


def compile_unminimized(compiler: GraphCompiler, query) -> CompiledQuery:
    """*query* compiled without token minimization, every row built."""
    char_dfa = compile_dfa(query.query_string.query_str)
    prefix_dfa = None
    if query.query_string.prefix_str is not None:
        prefix_dfa = compile_dfa(query.query_string.prefix_str)
    for preprocessor in query.preprocessors:
        char_dfa = preprocessor.apply(char_dfa)
        if prefix_dfa is not None and preprocessor.applies_to_prefix:
            prefix_dfa = preprocessor.apply(prefix_dfa)
    prefix_closure = None
    if prefix_dfa is not None:
        prefix_closure = (
            prefixes_of(prefix_dfa).intersect(prefixes_of(char_dfa)).minimized()
        )
    if query.tokenization_strategy is QueryTokenizationStrategy.ALL_TOKENS:
        automaton = compile_all_tokens_eager(compiler, char_dfa, prefix_closure)
    else:
        automaton = compiler.compile_canonical(char_dfa, prefix_closure)
        if automaton.dynamic_canonical:
            automaton = compile_all_tokens_eager(compiler, char_dfa, prefix_closure)
            automaton.dynamic_canonical = True
    return CompiledQuery(
        query=query,
        tokenizer=compiler.tokenizer,
        char_dfa=char_dfa,
        prefix_dfa=prefix_dfa,
        prefix_closure=prefix_closure,
        token_automaton=automaton,
        metrics=CompileMetrics(
            token_states=automaton.num_states,
            token_edges=automaton.num_edges,
            minimized_states=automaton.num_states,
            minimized_edges=automaton.num_edges,
        ),
    )


def unminimized_compiler(tokenizer, query) -> GraphCompiler:
    """A compiler whose cache already answers *query* with the hand-built
    unminimized compilation (``compile`` rebinds hits to the incoming
    query, so anything that compiles *query* through it — a session, the
    scheduler — traverses the unminimized automaton)."""
    compiler = GraphCompiler(tokenizer, cache=CompilationCache())
    compiler.cache.put(compiler.cache_key(query), compile_unminimized(compiler, query))
    return compiler


def compile_all_tokens_eager(
    compiler: GraphCompiler, char_dfa: DFA, prefix_closure: DFA | None
) -> TokenAutomaton:
    """``compile_all_tokens`` with every row built up front, as plain dicts
    in ascending state and token id — never :class:`TokenRows`, and never
    flagged minimal."""
    product, prefix_live = _prefix_product(char_dfa, prefix_closure)
    walk = SharedWalk(compiler._trie, product.transitions)
    edges = {}
    for state in product.states:
        row = walk.row(state)
        if row:
            edges[state] = dict(sorted(row.items()))
    return TokenAutomaton(
        start=product.start,
        accepts=product.accepts,
        edges=edges,
        prefix_live=prefix_live,
    )


def compile_all_tokens_scan(
    compiler: GraphCompiler, char_dfa: DFA, prefix_closure: DFA | None
) -> TokenAutomaton:
    """Appendix-B reference algorithm: per-token DFS scan.

    Literal transcription of the paper's Algorithm 1/2 — for every
    vocabulary token, walk its characters from every state and add a
    shortcut edge on success (O(V·k·m_max)).  Semantically identical to
    :meth:`GraphCompiler.compile_all_tokens`.
    """
    product, prefix_live = _prefix_product(char_dfa, prefix_closure)
    edges: dict[int, dict[int, int]] = {}
    for state in product.states:
        row: dict[int, int] = {}
        for word, token_id in compiler.tokenizer.vocab.ordinary_items():
            q = state
            for ch in word:
                q = product.transitions.get(q, {}).get(ch)
                if q is None:
                    break
            else:
                row[token_id] = q
        if row:
            edges[state] = dict(sorted(row.items()))
    return TokenAutomaton(
        start=product.start,
        accepts=product.accepts,
        edges=edges,
        prefix_live=prefix_live,
    )


def reference_partition(
    rows: Mapping[int, Mapping[Hashable, int]], labels: Mapping[int, Hashable]
) -> set[frozenset[int]]:
    """Set-based Hopcroft over the completed automaton (dead state ``-1``).

    Quadratic in practice — every (splitter, symbol) intersects the
    preimage with every block — which is why it lives here and not in
    ``src/``.  States must be non-negative.  Returns the blocks of real
    states (the dead state's block is dropped).
    """
    dead = -1
    symbols = {symbol for row in rows.values() for symbol in row}
    full_states = set(labels) | {dead}

    def step(q: int, symbol: Hashable) -> int:
        if q == dead:
            return dead
        return rows.get(q, {}).get(symbol, dead)

    groups: dict[Hashable, set[int]] = {}
    for q, label in labels.items():
        groups.setdefault((label,), set()).add(q)
    groups[()] = {dead}
    partition: set[frozenset[int]] = {frozenset(g) for g in groups.values()}
    worklist: list[frozenset[int]] = sorted(partition, key=min)
    reverse: dict[Hashable, dict[int, set[int]]] = {symbol: {} for symbol in symbols}
    for q in full_states:
        for symbol in symbols:
            reverse[symbol].setdefault(step(q, symbol), set()).add(q)
    while worklist:
        splitter = worklist.pop()
        for symbol in symbols:
            pre: set[int] = set()
            for q in splitter:
                pre |= reverse[symbol].get(q, set())
            if not pre:
                continue
            for block in list(partition):
                inter = block & pre
                diff = block - pre
                if not inter or not diff:
                    continue
                partition.remove(block)
                partition.add(frozenset(inter))
                partition.add(frozenset(diff))
                if block in worklist:
                    worklist.remove(block)
                    worklist.append(frozenset(inter))
                    worklist.append(frozenset(diff))
                else:
                    worklist.append(
                        frozenset(inter) if len(inter) <= len(diff) else frozenset(diff)
                    )
    return {block for block in partition if dead not in block}


def _reference_quotient(
    rows: Mapping[int, Mapping[Hashable, int]], partition: set[frozenset[int]]
) -> tuple[dict[int, int], dict[int, dict[Hashable, int]]]:
    """The quotient rule both ``minimized()`` methods keep: blocks numbered
    by minimum member, each taking its minimum member's row (in that row's
    own order).  Returns ``(state -> block id, block id -> row)``."""
    ids = {block: i for i, block in enumerate(sorted(partition, key=min))}
    block_of = {q: ids[block] for block in partition for q in block}
    quotient = {
        bid: {symbol: block_of[dst] for symbol, dst in rows.get(min(block), {}).items()}
        for block, bid in ids.items()
    }
    return block_of, {bid: row for bid, row in quotient.items() if row}


def reference_minimized_dfa(dfa: DFA) -> DFA:
    """``DFA.minimized()`` as it was before the shared kernel (including the
    trailing ``trimmed()`` the kernel's callers dropped)."""
    dfa = dfa.trimmed()
    if not dfa.accepts:
        return dfa
    partition = reference_partition(
        dfa.transitions, {q: q in dfa.accepts for q in dfa.states}
    )
    block_of, transitions = _reference_quotient(dfa.transitions, partition)
    return DFA(
        start=block_of[dfa.start],
        accepts=frozenset(block_of[q] for q in dfa.accepts),
        transitions=transitions,
    ).trimmed()


def reference_minimized_tokens(automaton: TokenAutomaton) -> TokenAutomaton:
    """``TokenAutomaton.minimized()`` as it was before the shared kernel:
    (accepting, prefix-live) initial labels, rows in ascending token id."""
    base = automaton.trimmed()
    if not base.accepts:
        return base
    partition = reference_partition(
        base.edges,
        {q: (q in base.accepts, q in base.prefix_live) for q in base._reachable()},
    )
    block_of, edges = _reference_quotient(base.edges, partition)
    return TokenAutomaton(
        start=block_of[base.start],
        accepts=frozenset(block_of[q] for q in base.accepts),
        edges={bid: dict(sorted(row.items())) for bid, row in edges.items()},
        prefix_live=frozenset(block_of[q] for q in base.prefix_live),
        dynamic_canonical=base.dynamic_canonical,
    ).trimmed()


class FullContextLogitsCache(LogitsCache):
    """A :class:`LogitsCache` that keys every row by the whole context —
    one row per distinct token tuple, whatever the model reads."""

    def __init__(self, model: LanguageModel, capacity: int = 4096) -> None:
        super().__init__(model, capacity=capacity)
        self._key = tuple


def padded_context_key(model, context) -> tuple[int, ...]:
    """``NGramModel._context_key`` as first written: EOS-pad the whole
    context to a list, then keep its last ``order - 1`` ids."""
    if model.order > 1:
        padded = [model.eos_id] * (model.order - 1) + list(context)
        return tuple(padded[-(model.order - 1) :])
    return ()


def reference_decode(vocab, token_ids) -> str:
    """``Vocabulary.decode`` as a loop: concatenate, skipping specials."""
    parts = []
    for tid in token_ids:
        tok = vocab.tokens[tid]
        if tok not in vocab.special_tokens:
            parts.append(tok)
    return "".join(parts)


def reference_is_canonical(tokenizer, token_ids) -> bool:
    """``ids == encode(decode(ids))`` over the non-special ids."""
    ids = [t for t in token_ids if not tokenizer.vocab.is_special(t)]
    return ids == tokenizer.encode(tokenizer.decode(ids))


def reference_is_canonical_prefix(tokenizer, token_ids) -> bool:
    """All but the last non-special id agree with ``encode(decode(ids))``."""
    ids = [t for t in token_ids if not tokenizer.vocab.is_special(t)]
    if not ids:
        return True
    canonical = tokenizer.encode(tokenizer.decode(ids))
    return ids == canonical or canonical[: len(ids) - 1] == ids[:-1]
