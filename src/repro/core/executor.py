"""ReLM's Executor (§3.3): traverse the LLM automaton against a model.

Two traversals are provided, matching the paper:

* **Shortest path** — lazy Dijkstra over ``-log p`` edge costs, yielding
  matches in decreasing model probability.  Prefix edges bypass decoding
  rules but contribute their true cost to the heap priority (the paper's
  startup-latency heuristic), while the reported ``logprob`` scores only
  non-prefix tokens.
* **Random sampling** — unbiased sampling: the prefix *string* is drawn
  uniformly over the prefix language using exact walk counts (§3.3's
  combinatorics; Appendix C explains why uniform edge sampling is biased),
  then the suffix is sampled from the model restricted to automaton edges
  that survive the decoding policy.  A step's options and cumulative
  weights are a function of the row it reads and the state it is in, so
  they are built once per (row, state) — a :class:`_StepTable`, memoised
  per live logits-cache row — and every later step out of that pair is
  one draw.

Top-k/top-p pruning happens per expansion: an edge whose token falls
outside the decision rule is dropped, transitively eliminating every string
through it — the complexity-control lever §3.3 describes.

Frontier expansion is vectorized: per-state edge arrays (see
:mod:`repro.core.arrays`) turn each expansion into a few fancy-indexing
operations plus a stable sort, and Dijkstra pushes one lazy heap entry per
expansion (see :class:`_LazyGroup`) instead of one per edge.  In shortest
path, states with at most ``_SCALAR_FANOUT_CUTOFF`` edges take a scalar
loop over the edge dict instead (array setup costs more than the loop
there).  The two expansions produce bit-identical match streams (same
order, same log-probabilities): edge costs are the same float64 values, and
array order mirrors the edge dict's insertion order so tie-breaking agrees
— the differential suite pins the cutoff to either extreme to compare them,
and compares the sampler with a scalar reference.

Both traversals are *stepwise generators* (:meth:`Executor.steps`) that
yield two kinds of events: :class:`LmRequest` (the traversal needs model
scores for a batch of contexts and suspends until they are sent back) and
:class:`~repro.core.results.MatchResult`.  One driver runs them:
:class:`~repro.core.scheduler.QueryScheduler`, which coalesces many
executors' ``LmRequest`` contexts into shared LM rounds, and which a
single :func:`~repro.core.api.search` runs with that one query.  It calls
:meth:`Executor.finish_request` to apply the decoding policy and update
stats, so the match stream is the same whichever queries share a round.

Accelerator batching (§3.3) is *lookahead, not reordering*.  Dijkstra pops
and scores one node at a time — that is what makes the yield order exact —
so a shortest-path request that misses the logits cache brings its
neighbours: the contexts of the nodes the heap would pop next (up to
``batch_size`` per model round, the model's own
:attr:`~repro.lm.base.LanguageModel.round_width` by default) ride in the
same model call and their rows are only cached.  Each of those nodes is
still popped, counted and expanded in its turn, by which time its request
is a cache hit, so the match stream is the width-1 stream at every width.
A query looks ahead only after its first match: until then it is
latency-bound and a first-match-only caller pays nothing.  The waste is
bounded per miss round: at most ``batch_size - 1`` contexts are scored
that a truncated query might never pop.
"""

from __future__ import annotations

import functools
import heapq
import itertools
import random
from typing import Any, Callable, Generator, Iterator

import numpy as np

from repro.automata.dfa import DFA
from repro.automata.walks import WalkCounter
from repro.core.arrays import StateRow
from repro.core.compiler import CompiledQuery
from repro.core.query import QuerySearchStrategy, QueryTokenizationStrategy
from repro.core.results import ExecutionStats, MatchResult
from repro.lm.base import LanguageModel, LogitsCache
from repro.lm.decoding import DecodingPolicy, RowMemo, RowVerdicts

__all__ = ["Executor", "LmRequest"]


class LmRequest:
    """A suspended traversal's demand for next-token scores.

    ``contexts`` is the batch of token contexts to score (one LM round).
    ``raw`` requests the cached rows themselves (prefix fast-forward
    bypasses decoding rules; random sampling applies them once per step
    table); otherwise the driver sends back a list of
    ``(scaled_logprobs, allowed_mask)`` pairs.  ``count_batch`` mirrors the
    historical stats split: single-context random-sampling lookups never
    counted toward ``lm_batches``.

    ``lookahead`` (shortest path, after the first match, width above 1) is
    a callable returning contexts the traversal expects to ask for next.
    A driver evaluates it only when the request misses the logits cache
    and hands the contexts to
    :meth:`~repro.lm.base.LogitsCache.add_lookahead` so they share the
    model call; nothing about them is sent back, and they enter no
    ``lm_calls`` / budget / hit-miss count until their node is popped and
    asks for itself.
    """

    __slots__ = ("contexts", "raw", "count_batch", "lookahead")

    def __init__(
        self,
        contexts: list[tuple[int, ...]],
        raw: bool = False,
        count_batch: bool = True,
        lookahead: Callable[[], list[tuple[int, ...]]] | None = None,
    ) -> None:
        self.contexts = contexts
        self.raw = raw
        self.count_batch = count_batch
        self.lookahead = lookahead


#: At or below this fan-out shortest path expands a state with the scalar
#: edge loop: array setup (fancy indexing + argsort) costs more than a loop
#: over a handful of edges.  Both expansions are exactly equivalent, so the
#: match stream is unaffected by where the line sits.
_SCALAR_FANOUT_CUTOFF = 16

#: Length bound, in characters, on the prefix strings random sampling
#: draws (the walk counter's ``max_length`` over the prefix language).
_MAX_PREFIX_CHARS = 128


class _LazyGroup:
    """One expansion's surviving successors, sorted by priority.

    The vectorized Dijkstra pushes a single heap entry per expansion — the
    group's cheapest member — instead of one entry per edge; popping member
    *i* re-pushes member *i+1*.  Because members are sorted ascending by
    (priority, counter) and their counters are block-reserved at expansion
    time, the global pop sequence is exactly the eager scalar loop's: at any
    moment the heap holds each group's minimum, and the overall minimum of
    those is the eager heap's minimum.  This turns the dominant cost on
    high-fanout automata (|edges| heap pushes and tuple constructions per
    expansion, most never popped) into O(pops).
    """

    __slots__ = ("tok", "dst", "tot", "suf", "base", "tokens")

    def __init__(
        self,
        tok: np.ndarray,
        dst: np.ndarray,
        tot: np.ndarray,
        suf: np.ndarray,
        base: int,
        tokens: tuple[int, ...],
    ) -> None:
        self.tok = tok
        self.dst = dst
        self.tot = tot
        self.suf = suf
        self.base = base
        self.tokens = tokens


class _StepTable:
    """One random-sampling step out of a state given a row: the surviving
    options as ``(token_id, dst_state, logprob)`` — the EOS option, when
    allowed, first as ``(None, None, logprob)`` — the cumulative weights
    :meth:`random.Random.choices` draws from, and the edges the policy
    pruned, counted again on every use.

    Built once per (row, state) and exact: a step drawn from the table
    consumes the RNG and picks exactly as a step that rebuilt it would.
    """

    __slots__ = ("options", "cum", "pruned")

    def __init__(
        self, options: list[tuple[int | None, int | None, float]], cum: list[float], pruned: int
    ) -> None:
        self.options = options
        self.cum = cum
        self.pruned = pruned


def _prefix_region(closure: DFA, text: str) -> str:
    """The longest prefix of *text* the prefix-closure DFA walks."""
    state = closure.start
    for i, ch in enumerate(text):
        nxt = closure.transitions.get(state, {}).get(ch)
        if nxt is None:
            return text[:i]
        state = nxt
    return text


def _peek_pops(heap: list[tuple]) -> Iterator[tuple[int | None, tuple[int, ...]]]:
    """``(state, tokens)`` of the nodes successive pops of Dijkstra's
    *heap* would reach if nothing were pushed meanwhile; *heap* is only read.

    A k-smallest walk of the binary-heap array: taking entry ``i`` admits
    its children ``2i+1`` and ``2i+2``, and taking a :class:`_LazyGroup`
    member admits the group's next one, as the pop loop's re-push would.
    Candidates order on ``(priority, tiebreak)`` like the heap's own
    entries (tiebreaks are unique, so nothing after them is compared).
    """
    size = len(heap)
    #: (priority, tiebreak, state|group, tokens|member, heap index or -1)
    candidates = [heap[0][:4] + (0,)] if heap else []
    while candidates:
        _, _, state, tokens, i = heapq.heappop(candidates)
        if i >= 0:
            for child in (2 * i + 1, 2 * i + 2):
                if child < size:
                    heapq.heappush(candidates, heap[child][:4] + (child,))
        if type(state) is _LazyGroup:
            group, j = state, tokens
            if j + 1 < group.tok.size:
                heapq.heappush(
                    candidates,
                    (float(group.tot[j + 1]), group.base + j + 1, group, j + 1, -1),
                )
            state = int(group.dst[j])
            tokens = group.tokens + (int(group.tok[j]),)
        yield state, tokens


class Executor:
    """Runs one compiled query against one model.

    Instantiate per query; :meth:`steps` is its traversal, for a driver
    (:class:`~repro.core.scheduler.QueryScheduler`, or a
    :func:`~repro.core.api.prepare` session) to run.  ``stats`` accumulates
    counters across the run (lm calls, pruned edges, ...).

    ``logits_cache`` lets several executors over the same model share one
    logits cache — scored contexts then carry over between queries; when
    omitted, a private ``LogitsCache(model)`` is created (size a private
    cache by passing ``logits_cache=LogitsCache(model, capacity=n)``).
    """

    def __init__(
        self,
        model: LanguageModel,
        compiled: CompiledQuery,
        max_expansions: int | None = None,
        max_attempts: int | None = None,
        dedupe: bool = True,
        batch_size: int | None = None,
        track_elimination: bool = False,
        logits_cache: LogitsCache | None = None,
    ) -> None:
        self.model = model
        self.compiled = compiled
        self.query = compiled.query
        self.tokenizer = compiled.tokenizer
        self.automaton = compiled.token_automaton
        self.stats = ExecutionStats()
        self.max_expansions = max_expansions
        self.max_attempts = max_attempts
        self.dedupe = dedupe
        #: ``prefix_text`` by match head (see :meth:`_make_result`).
        self._prefix_memo: dict[str, str] = {}
        if batch_size is not None and batch_size < 1:
            raise ValueError("batch_size must be >= 1")
        #: Contexts this query may put in one model round: what a request
        #: asks for plus lookahead (shortest path; see :class:`LmRequest`).
        self.batch_size = batch_size if batch_size is not None else model.round_width
        #: Statically-empty language (RLM001): the traversal short-circuits
        #: to an immediate clean finish, so skip cache and array setup.
        self.language_empty = compiled.is_empty
        if self.language_empty:
            if logits_cache is not None and logits_cache.model is not model:
                raise ValueError("shared logits_cache was built for a different model")
            self._cache = logits_cache
            self._arrays = None
            self.policy = None
            self._verdicts = None
            self.max_tokens = 0
            self._rng = random.Random(compiled.query.seed)
            self.elimination_tracker = None
            return
        if logits_cache is not None:
            if logits_cache.model is not model:
                raise ValueError("shared logits_cache was built for a different model")
            self._cache = logits_cache
        else:
            self._cache = LogitsCache(model)
        self._arrays = self.automaton.arrays()
        #: Random sampling's step tables: raw row -> {state: _StepTable}.
        self._step_tables = RowMemo()
        q = compiled.query
        if q.top_k_sampling is None and q.top_p_sampling is None and q.temperature == 1.0:
            self.policy: DecodingPolicy | None = None
            self._verdicts: RowVerdicts | None = None
        else:
            self.policy = DecodingPolicy(
                top_k=q.top_k_sampling, top_p=q.top_p_sampling, temperature=q.temperature
            )
            self._verdicts = RowVerdicts(self.policy)
        self.max_tokens = q.sequence_length or model.max_sequence_length
        self._rng = random.Random(q.seed)
        self.elimination_tracker = None
        if track_elimination:
            from repro.core.diagnostics import EliminationTracker

            self.elimination_tracker = EliminationTracker(
                self.automaton, q.sequence_length or model.max_sequence_length
            )

    # -- shared helpers -----------------------------------------------------------
    @functools.cached_property
    def _prefix_span(self) -> int | None:
        """Length of the longest string of the prefix region, ``None``
        when the region is cyclic (no bound on where it ends) or absent."""
        closure = self.compiled.prefix_closure
        if closure is None or closure.has_cycle():
            return None
        span = 0
        frontier = {closure.start}
        while True:
            frontier = {
                dst for state in frontier for dst in closure.transitions.get(state, {}).values()
            }
            if not frontier:
                return span
            span += 1

    def finish_request(self, request: LmRequest, rows: list[np.ndarray]) -> list:
        """Post-process one serviced :class:`LmRequest`.

        *rows* are the cached log-probability vectors for
        ``request.contexts`` (fetched by whichever driver serviced the
        request).  Updates the per-query counters and applies the decoding
        policy; the return value is what must be ``send()``-ed back into the
        suspended traversal generator.
        """
        self.stats.lm_calls += len(request.contexts)
        if request.count_batch:
            self.stats.lm_batches += 1
        out = []
        for lp in rows:
            self.stats.tokens_scored += lp.size
            out.append(lp if request.raw else self._judge(lp))
        return out

    def _judge(self, lp: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """``(scaled_logprobs, allowed_mask)`` of raw row *lp* under the
        query's decoding policy."""
        if self._verdicts is None:
            return lp, lp > -np.inf
        return self._verdicts(lp)

    def _make_result(
        self,
        tokens: tuple[int, ...],
        suffix_cost: float,
        total_cost: float,
        prefix_text: str | None = None,
    ) -> MatchResult:
        text = self.tokenizer.decode(tokens)
        closure = self.compiled.prefix_closure
        if prefix_text is None:
            prefix_text = ""
            if closure is not None:
                # Longest prefix of the match that stays in the prefix
                # region (randomized traversals pass the *sampled* prefix
                # instead, which is authoritative).  An acyclic region ends
                # within ``span`` characters, so the answer is a function
                # of the match's head and is walked once per distinct head.
                span = self._prefix_span
                if span is None:
                    prefix_text = _prefix_region(closure, text)
                else:
                    head = text[:span]
                    prefix_text = self._prefix_memo.get(head)
                    if prefix_text is None:
                        prefix_text = self._prefix_memo[head] = _prefix_region(closure, head)
        return MatchResult(
            tokens=tokens,
            text=text,
            logprob=-suffix_cost,
            total_logprob=-total_cost,
            # A canonical query's automaton holds canonical paths only.
            canonical=self.query.tokenization_strategy is QueryTokenizationStrategy.CANONICAL
            or self.tokenizer.is_canonical(tokens, text),
            prefix_text=prefix_text,
        )

    def steps(self) -> Iterator:
        """The stepwise traversal generator for this query's strategy.

        Yields :class:`LmRequest` and :class:`MatchResult` events; after an
        ``LmRequest`` the driver must ``send()`` back the result of
        :meth:`finish_request`.  Driven by
        :class:`~repro.core.scheduler.QueryScheduler`.
        """
        if self.language_empty:
            return self._empty_traversal()
        if self.query.search_strategy is QuerySearchStrategy.SHORTEST_PATH:
            return self._shortest_path()
        return self._random_sampling()

    def _empty_traversal(self) -> Iterator:
        """Short-circuit for statically-empty languages: no LM traffic, no
        cache warm-up — finish immediately with zero matches."""
        return
        yield  # pragma: no cover - makes this a generator

    # -- vectorized edge expansion -------------------------------------------------
    def _expand_vectorized(
        self,
        row: StateRow,
        tokens: tuple[int, ...],
        lp: np.ndarray,
        mask: np.ndarray,
        prefix_bypass: bool = True,
        count_nonfinite_prunes: bool = True,
        record_eliminations: bool = True,
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """Vectorized expansion of one state's edge *row* against (lp, mask).

        Returns ``(token_ids, dst_states, costs, is_prefix)`` arrays for
        the surviving edges (empty when none survive), updating
        prune counters exactly as the scalar loop does.  The flags mirror
        per-traversal scalar-loop semantics: random sampling treats
        every committed edge as a suffix edge (``prefix_bypass=False``),
        does not count non-finite drops, and only Dijkstra feeds the
        elimination tracker.
        """
        token_ids = row.token_ids
        lps = lp[token_ids]
        finite = np.isfinite(lps)
        allowed = mask[token_ids]
        if prefix_bypass:
            allowed = row.is_prefix | allowed
        ok = finite & allowed
        dropped = ~ok if count_nonfinite_prunes else ~allowed
        n_dropped = int(np.count_nonzero(dropped))
        if n_dropped:
            self.stats.pruned_edges += n_dropped
            if record_eliminations and self.elimination_tracker is not None:
                depth = len(tokens)
                for dst in row.dst_states[dropped].tolist():
                    self.elimination_tracker.record_pruned_edge(dst, depth)
        if not ok.any():
            return (
                np.empty(0, dtype=np.intp),
                np.empty(0, dtype=np.intp),
                np.empty(0, dtype=float),
                np.empty(0, dtype=bool),
            )
        return token_ids[ok], row.dst_states[ok], -lps[ok], row.is_prefix[ok]

    # -- Dijkstra ------------------------------------------------------------------
    def _shortest_path(self) -> Iterator[MatchResult]:
        automaton = self.automaton
        eos = self.model.eos_id
        counter = 0
        #: heap items: (priority, tiebreak, state|None, tokens, total, suffix)
        #: state None marks an EOS-terminated final node.  Vectorized
        #: expansions additionally push (priority, tiebreak, _LazyGroup,
        #: member_index, 0, 0) entries, materialised at pop time.
        heap: list[tuple] = []
        start_state, start_tokens, start_total = yield from self._fast_forward_prefix()
        heapq.heappush(heap, (start_total, counter, start_state, start_tokens, start_total, 0.0))
        counter += 1
        seen_texts: set[str] = set()
        expansions = 0
        # One closure for the whole traversal (it reads the live heap);
        # at width 1 there is nothing to look ahead with and none is built.
        ahead = (lambda: self._lookahead(heap)) if self.batch_size > 1 else None
        while heap:
            priority, _, state, tokens, total, suffix = heapq.heappop(heap)
            if type(state) is _LazyGroup:
                group, i = state, tokens
                if i + 1 < group.tok.size:
                    heapq.heappush(
                        heap,
                        (float(group.tot[i + 1]), group.base + i + 1, group, i + 1, 0.0, 0.0),
                    )
                state = int(group.dst[i])
                tokens = group.tokens + (int(group.tok[i]),)
                total = float(group.tot[i])
                suffix = float(group.suf[i])
            if state is None:  # EOS-terminated match
                yield from self._emit(tokens, suffix, total, seen_texts)
                continue
            if state in automaton.accepts and not self.query.require_eos:
                yield from self._emit(tokens, suffix, total, seen_texts)
            expansions += 1
            self.stats.nodes_expanded += 1
            if self.max_expansions is not None and expansions >= self.max_expansions:
                return
            if len(tokens) >= self.max_tokens:
                continue
            needs_eos = self.query.require_eos and state in automaton.accepts
            row = self._arrays.row(state)
            if row is None and not needs_eos:
                continue
            # Exact Dijkstra scores the node it popped and nothing else.
            # Once the query has a match it is throughput-bound, and a miss
            # may bring along the nodes the heap would pop next.
            ((lp, mask),) = yield LmRequest(
                [tokens], lookahead=ahead if self.stats.matches_yielded else None
            )
            if needs_eos and mask[eos] and np.isfinite(lp[eos]):
                cost = -float(lp[eos])
                heapq.heappush(
                    heap,
                    (total + cost, counter, None, tokens, total + cost, suffix + cost),
                )
                counter += 1
            if row is not None and row.num_edges > _SCALAR_FANOUT_CUTOFF:
                sel_tokens, sel_dsts, costs, sel_prefix = self._expand_vectorized(
                    row, tokens, lp, mask
                )
                if not sel_tokens.size:
                    continue
                new_totals = total + costs
                new_suffixes = np.where(sel_prefix, suffix, suffix + costs)
                # Stable sort keeps equal-priority edges in dict order
                # (tie-breaking parity with the scalar loop); the
                # sorted members share one lazy heap entry, with their
                # tiebreak counters block-reserved here so cross-group
                # ties resolve exactly as eager insertion would.
                order = np.argsort(new_totals, kind="stable")
                group = _LazyGroup(
                    sel_tokens[order],
                    sel_dsts[order],
                    new_totals[order],
                    new_suffixes[order],
                    counter,
                    tokens,
                )
                counter += int(sel_tokens.size)
                heapq.heappush(
                    heap, (float(group.tot[0]), group.base, group, 0, 0.0, 0.0)
                )
                continue
            for token_id, dst in automaton.successors(state).items():
                is_prefix = automaton.is_prefix_edge(dst)
                if not is_prefix and not mask[token_id]:
                    self._record_prune(dst, len(tokens))
                    continue
                if not np.isfinite(lp[token_id]):
                    self._record_prune(dst, len(tokens))
                    continue
                cost = -float(lp[token_id])
                new_suffix = suffix if is_prefix else suffix + cost
                heapq.heappush(
                    heap,
                    (total + cost, counter, dst, tokens + (token_id,), total + cost, new_suffix),
                )
                counter += 1

    def _lookahead(self, heap: list[tuple]) -> list[tuple[int, ...]]:
        """The contexts the next ``batch_size - 1`` pops of *heap* will ask
        for (see :attr:`LmRequest.lookahead`; the cache drops the ones it
        already holds).

        The pops that score nothing are passed over as the pop loop passes
        over them: EOS-terminated matches, nodes at ``max_tokens``, dead
        ends.
        """
        automaton = self.automaton
        needs_eos = self.query.require_eos
        return [
            tokens
            for state, tokens in itertools.islice(_peek_pops(heap), self.batch_size - 1)
            if state is not None
            and len(tokens) < self.max_tokens
            and (automaton.successors(state) or (needs_eos and state in automaton.accepts))
        ]

    def _record_prune(self, dst_state: int, tokens_consumed: int) -> None:
        """Count a pruned edge; with tracking on, also count the token
        sequences it transitively eliminated (§3.3)."""
        self.stats.pruned_edges += 1
        if self.elimination_tracker is not None:
            self.elimination_tracker.record_pruned_edge(dst_state, tokens_consumed)

    def _emit(
        self, tokens: tuple[int, ...], suffix: float, total: float, seen_texts: set[str]
    ) -> Iterator[MatchResult]:
        result = self._make_result(tokens, suffix, total)
        if self.dedupe:
            if result.text in seen_texts:
                self.stats.duplicates_suppressed += 1
                return
            seen_texts.add(result.text)
        self.stats.matches_yielded += 1
        yield result

    def _fast_forward_prefix(
        self,
    ) -> Generator[Any, Any, tuple[int, tuple[int, ...], float]]:
        """Jump-start Dijkstra past a *literal* prefix (stepwise generator;
        the ``(state, tokens, total)`` triple is its return value).

        When the prefix language is exactly one string, conditional
        generation encodes it canonically (§3.2) — there is no need to
        search over its ambiguous encodings.  Returns the start state, the
        prefix token path, and its heuristic cost.  Falls back to the
        automaton start when the prefix is absent, non-literal, or its
        canonical tokens are not walkable (a canonical query whose matches
        encode the prefix differently).
        """
        automaton = self.automaton
        prefix_dfa = self.compiled.prefix_dfa
        if prefix_dfa is None or prefix_dfa.has_cycle():
            return automaton.start, (), 0.0
        strings = list(prefix_dfa.enumerate_strings(limit=2))
        if len(strings) != 1:
            return automaton.start, (), 0.0
        tokens = tuple(self.tokenizer.encode(strings[0]))
        state = automaton.start
        for tok in tokens:
            nxt = automaton.step(state, tok)
            if nxt is None:
                return automaton.start, (), 0.0
            state = nxt
        # Heuristic priority: the true model cost of the prefix tokens.
        # Prefix edges bypass decoding rules (§3.3), so raw cached
        # log-probabilities are used — not the policy-scaled ones — and all
        # prefix contexts are scored in one batched model round.
        total = 0.0
        if tokens:
            contexts = [tokens[:i] for i in range(len(tokens))]
            rows = yield LmRequest(contexts, raw=True)
            for tok, lp in zip(tokens, rows):
                total += -float(lp[tok])
        return state, tokens, total

    # -- randomized traversal ----------------------------------------------------
    def _random_sampling(self) -> Iterator[MatchResult]:
        target = self.query.num_samples
        attempts = 0
        yielded = 0
        prefix_counter = self._prefix_counter()
        while target is None or yielded < target:
            if self.max_attempts is not None and attempts >= self.max_attempts:
                return
            attempts += 1
            result = yield from self._sample_once(prefix_counter)
            if result is None:
                self.stats.failed_attempts += 1
                continue
            self.stats.matches_yielded += 1
            yielded += 1
            yield result

    def _prefix_counter(self) -> WalkCounter | None:
        closure = self.compiled.prefix_closure
        if closure is None:
            return None
        # Sample over maximal prefix strings: the prefix language proper,
        # not its closure — i.e. strings after which the prefix region ends
        # or the full pattern continues.  The prefix DFA intersected with
        # the closure keeps exactly the valid complete prefixes.
        prefix_lang = self.compiled.prefix_dfa.intersect(closure).minimized()
        return WalkCounter(prefix_lang, max_length=_MAX_PREFIX_CHARS)

    def _sample_once(
        self, prefix_counter: WalkCounter | None
    ) -> Generator[Any, Any, MatchResult | None]:
        """One sampling attempt (stepwise generator; returns the
        :class:`MatchResult` or ``None`` as its generator return value).

        Each step reads the raw row of the current context and draws from
        the :class:`_StepTable` of (that row, the current state), built on
        the pair's first step (see :meth:`_step_table`)."""
        automaton = self.automaton
        tokens: list[int] = []
        suffix_logprob = 0.0
        total_logprob = 0.0
        sampled_prefix: str | None = None
        if prefix_counter is not None:
            if self.query.uniform_edge_sampling:
                sampled_prefix = prefix_counter.sample_uniform_edges(self._rng)
            else:
                sampled_prefix = prefix_counter.sample(self._rng)
            if sampled_prefix is None:
                return None
            prefix_tokens = self.tokenizer.encode(sampled_prefix)
            state = automaton.start
            for tok in prefix_tokens:
                nxt = automaton.step(state, tok)
                if nxt is None:
                    return None  # canonical prefix not walkable (re-tokenization boundary)
                state = nxt
            tokens.extend(prefix_tokens)
        else:
            state = automaton.start
        # The sampled prefix is *committed*: from here on every edge is a
        # suffix edge subject to decoding rules, even if the string could
        # still extend within the prefix region (a|ab-style ambiguity).
        while True:
            if len(tokens) >= self.max_tokens:
                return None
            at_accept = state in automaton.accepts
            row = self._arrays.row(state)
            if row is None and not at_accept:
                return None
            if row is None and not self.query.require_eos:
                # Nothing to disambiguate: the only continuation is to stop.
                return self._make_result(
                    tuple(tokens), -suffix_logprob, -total_logprob, sampled_prefix
                )
            (raw,) = yield LmRequest([tuple(tokens)], raw=True, count_batch=False)
            tables = self._step_tables.lookup(raw)
            if tables is None:
                tables = self._step_tables.store(raw, {})
            table = tables.get(state)
            if table is None:
                table = tables[state] = self._step_table(raw, row, tokens, at_accept)
            else:
                self.stats.pruned_edges += table.pruned
            options = table.options
            if not options:
                return None
            choice = self._rng.choices(range(len(options)), cum_weights=table.cum, k=1)[0]
            token_id, dst, logprob = options[choice]
            total_logprob += logprob
            suffix_logprob += logprob
            if token_id is None:  # EOS: stop and emit
                return self._make_result(
                    tuple(tokens), -suffix_logprob, -total_logprob, sampled_prefix
                )
            tokens.append(token_id)
            state = dst

    def _step_table(
        self, raw: np.ndarray, row: StateRow | None, tokens: list[int], at_accept: bool
    ) -> _StepTable:
        """The sampling step out of *row*'s state given the raw scores
        *raw*, counting its pruned edges.

        The decoding policy is applied here, the surviving edges come from
        :meth:`_expand_vectorized`, and the cumulative weights are the
        ones :meth:`random.Random.choices` builds from ``weights=``: the
        options' probabilities renormalised to sum to one.  When every
        one of them underflows (a low temperature on unlikely options)
        they are taken relative to the largest instead.
        """
        lp, mask = self._judge(raw)
        pruned_before = self.stats.pruned_edges
        eos = self.model.eos_id
        options: list[tuple[int | None, int | None, float]] = []
        if at_accept and mask[eos] and np.isfinite(lp[eos]):
            options.append((None, None, float(lp[eos])))
        if row is not None:
            sel_tokens, sel_dsts, costs, _ = self._expand_vectorized(
                row,
                tuple(tokens),
                lp,
                mask,
                prefix_bypass=False,
                count_nonfinite_prunes=False,
                record_eliminations=False,
            )
            options += zip(sel_tokens.tolist(), sel_dsts.tolist(), (-costs).tolist())
        pruned = self.stats.pruned_edges - pruned_before
        if not options:
            return _StepTable(options, [], pruned)
        lps = np.array([option[2] for option in options])
        weights = np.exp(lps)
        total = weights.sum()
        if total == 0.0:
            weights = np.exp(lps - lps.max())
            total = weights.sum()
        weights /= total
        return _StepTable(options, list(itertools.accumulate(weights.tolist())), pruned)
