"""Cross-query batched scheduling: many ReLM queries, shared LM rounds.

The paper's throughput argument (§3.3) is that automaton frontiers turn
into large batches of test vectors the accelerator scores in one dispatch.
A production validation workload goes one step further: it runs *many*
queries at once — the bias and knowledge experiments loop over hundreds of
templated patterns — and those queries' frontier expansions can share the
same dispatches.  :class:`QueryScheduler` interleaves the stepwise
traversal generators of several executors (see :meth:`Executor.steps`) and
coalesces their :class:`~repro.core.executor.LmRequest` contexts through
one shared :class:`~repro.lm.base.LogitsCache` round per scheduling step,
so N templated queries cost roughly one query's worth of LM rounds.  A
round is for misses: a request whose contexts are all cached is answered
inline (:meth:`~repro.lm.base.LogitsCache.cached_rows`), so a warm query
runs without a single round; and a miss brings its neighbours: each chosen
query's lookahead (:class:`~repro.core.executor.LmRequest`) rides in the
round's one model call, is cached, and is answered inline when its turn
comes.  The scheduler relates no query to another:
a duplicate or subsumed query asks only for contexts its twin also asks
for, which the shared cache scores once, so there is nothing to plan
(:mod:`repro.core.analyze_set` tells the *author* to drop such queries).

Guarantees:

* **Serial equivalence** — interleaving only changes *when* contexts are
  scored, never their values: each query's match stream (order, tokens,
  log-probabilities) is bit-identical to a standalone
  :meth:`Executor.run`.  The differential suite pins this for every seeded
  combo at concurrency 1, and the property suite for random multi-query
  mixes.
* **Budgets** — per-query wall-clock deadline, LM-call cap, and result cap
  (:class:`QueryBudget`), enforced before every request is answered —
  inline from the cache or by a round: a query over budget is stopped
  before it is given another score, keeps the matches it already
  produced, and is flagged ``truncated``.
* **Cancellation** — :meth:`ScheduledQuery.cancel` stops a query at the
  next boundary; a cancelled query never issues another LM call.
* **Rotation** — when a round cannot service every waiting query
  (``concurrency`` caps queries per *model round*; a cached answer takes
  no slot, but a query is handed back to the drive loop at the first
  inline answer after a match and after ``_INLINE_QUANTUM`` inline
  answers, so a long warm query cannot starve its peers), the start
  position rotates round-robin across rounds, so every query is serviced
  regardless of submission order.
* **Admission control** — queries the static analyzer proves fruitless
  (error-level findings, e.g. an empty language) are rejected at submit
  with zero LM calls; ``admission_max_cost`` additionally refuses queries
  whose estimated LM-call bound exceeds the cap.  Under a compiler built
  with ``analyzer=False`` no query has a report, so every query is
  admitted.
"""

from __future__ import annotations

import os
import signal
import threading
import time
from dataclasses import dataclass
from types import FrameType
from typing import Any, Callable

from repro.core import checkpoint as ckpt_mod
from repro.core.checkpoint import QuerySnapshot, RunCheckpoint, query_fingerprint
from repro.core.compiler import CompiledQuery, GraphCompiler
from repro.core.executor import Executor, LmRequest
from repro.core.findings import QueryReport
from repro.core.parallel import WorkerPool
from repro.core.query import SimpleSearchQuery
from repro.core.results import ExecutionStats, MatchResult, SchedulerStats
from repro.lm.base import LanguageModel, LogitsCache
from repro.tokenizers.bpe import BPETokenizer

__all__ = ["QueryBudget", "ScheduledQuery", "QueryScheduler"]

#: Fully cached requests one query may have answered inline per turn of the
#: drive loop before it is handed back, so a long warm query cannot starve
#: its peers (or the service's cancel / progress handling) of turns.
_INLINE_QUANTUM = 64

#: Logits-cache budget of one checkpoint snapshot (newest rows first).
_CHECKPOINT_CACHE_BYTES = 64 << 20


@dataclass(frozen=True)
class QueryBudget:
    """Per-query resource limits, all optional.

    ``deadline`` is wall-clock seconds from submission (measured on the
    scheduler's clock); ``max_lm_calls`` caps per-query LM context scores
    (:attr:`ExecutionStats.lm_calls`); ``max_results`` caps yielded
    matches.  Budgets are checked before every request is answered —
    inline from the cache or by a round — so a query can overrun a
    deadline by at most one LM round and never exceeds ``max_lm_calls``
    at all (a request that would cross the cap is not answered).
    """

    deadline: float | None = None
    max_lm_calls: int | None = None
    max_results: int | None = None


class ScheduledQuery:
    """One submitted query's handle: results, stats, budget state.

    ``results`` accumulates the query's matches in yield order (identical
    to the serial stream).  ``truncated`` is True when a budget or
    :meth:`cancel` stopped the query early — the results held are a valid
    prefix of the serial stream.  ``done`` covers both completion and
    truncation.
    """

    def __init__(
        self,
        index: int,
        name: str,
        query: SimpleSearchQuery,
        compiled: CompiledQuery,
        executor: Executor,
        budget: QueryBudget,
        submitted_at: float,
    ) -> None:
        self.index = index
        self.name = name
        self.query = query
        #: The compiled artifact (automata, metrics, report).
        self.compiled = compiled
        self.executor = executor
        self.budget = budget
        self.submitted_at = submitted_at
        #: Static-analyzer verdict for this query (``None`` when the
        #: shared compiler runs with analysis disabled).  Its first read:
        #: a scheduled query is analyzed here, for the admission decision
        #: that follows, not inside ``compile``.
        self.report: QueryReport | None = compiled.report
        self.results: list[MatchResult] = []
        self.done = False
        self.truncated = False
        self.truncated_reason: str | None = None
        self.latency: float | None = None
        #: True when a checkpoint answered this query (``resume=True``):
        #: its results and stats were restored, its traversal never ran.
        self.resumed = False
        self._gen = executor.steps()
        #: The request this query is parked on until a round answers it.
        self._pending: LmRequest | None = None
        #: What the generator is resumed with: the scores it asked for, or
        #: ``None`` at the start and after a match.
        self._answer: Any = None
        self._cancelled = False

    @property
    def stats(self) -> ExecutionStats:
        """The query's execution statistics (live)."""
        return self.executor.stats

    def cancel(self) -> None:
        """Stop this query at the next scheduling boundary.

        Takes effect immediately when called between turns: the traversal
        generator is closed and no further LM call is ever issued on this
        query's behalf.  Already-collected results are kept.
        """
        self._cancelled = True

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "done" if self.done else ("waiting" if self._pending else "ready")
        return f"ScheduledQuery({self.name!r}, {state}, {len(self.results)} results)"


class QueryScheduler:
    """Drives many prepared queries through coalesced LM rounds.

    Usage::

        scheduler = QueryScheduler(model, tokenizer, concurrency=8)
        handles = [scheduler.submit(q) for q in queries]
        scheduler.run()
        for handle in handles:
            use(handle.results, handle.stats)

    ``compiler`` and ``logits_cache`` default to a private
    :class:`GraphCompiler` (with its compilation cache) and one shared
    :class:`LogitsCache` — the two cross-query caches that make templated
    query loops cheap.  ``concurrency`` caps how many queries join one
    *model* round (a request the cache answers inline takes no slot);
    when the cap binds, who joins rotates round-robin.  ``clock`` is
    injectable for deterministic deadline tests.  ``record_history=True``
    additionally retains the full merged match stream (:attr:`merged`) and
    per-round logs (``stats.round_sizes`` / ``stats.round_members``) — the
    property suites rely on these, but a long-lived scheduler
    would retain every match twice, so recording is off by default
    (aggregate metrics like ``mean_round_size`` are always kept).
    When the model carries a prefix-state (KV) cache (see
    :mod:`repro.lm.state_cache`; sized on the model itself), coalesced
    rounds feed it one batched frontier per round, so all concurrent
    queries share its incremental-decoding savings; it owns its counters
    (``model.prefix_cache.stats()``).

    ``worker_pool`` (a caller-owned
    :class:`~repro.core.parallel.WorkerPool` over *model*) shards each
    round's deduped missing-context set across the pool's model-replica
    processes; shard sizing, retries and fault injection are the pool's
    own knobs.  Shards are contiguous slices evaluated in the order the
    serial path would use, so on a model that scores each context
    independently (the n-gram) sharding changes no result — the
    differential grid pins bit-identity at every worker count.  On the
    transformer a sharded round's batched GEMMs may move the last ulp:
    texts and tokens are identical and log-probabilities agree to 1e-9
    (see :mod:`repro.core.parallel`).  The caller owns the pool's
    lifetime (``with WorkerPool(model, 4) as pool: ...``) and may share
    it across schedulers; sharding and supervision counters are the
    pool's (``pool.stats()``).

    Remaining keyword arguments become per-executor defaults
    (``batch_size``, ``max_expansions``, ...), overridable
    per :meth:`submit`.
    """

    def __init__(
        self,
        model: LanguageModel,
        tokenizer: BPETokenizer,
        *,
        compiler: GraphCompiler | None = None,
        logits_cache: LogitsCache | None = None,
        concurrency: int = 8,
        clock: Callable[[], float] = time.monotonic,
        record_history: bool = False,
        admission_max_cost: int | None = None,
        worker_pool: WorkerPool | None = None,
        checkpoint_path: str | None = None,
        checkpoint_every: int = 1,
        resume: bool = False,
        **executor_defaults: Any,
    ) -> None:
        if concurrency < 1:
            raise ValueError("concurrency must be >= 1")
        if resume and checkpoint_path is None:
            raise ValueError("resume=True requires a checkpoint_path")
        if checkpoint_every < 1:
            raise ValueError("checkpoint_every must be >= 1")
        if "dedupe" in executor_defaults:
            # ``dedupe`` here once selected set planning; falling through
            # to ``Executor``'s text-dedupe switch would silently change
            # what ``dedupe=False`` yields.
            raise TypeError(
                "QueryScheduler() got an unexpected keyword argument 'dedupe' "
                "(the executor's text dedupe is per query: submit(q, dedupe=...))"
            )
        self.model = model
        self.tokenizer = tokenizer
        if compiler is None:
            compiler = GraphCompiler(tokenizer, cache=True)
        elif compiler.tokenizer is not tokenizer:
            raise ValueError("compiler was built for a different tokenizer")
        self.compiler = compiler
        if logits_cache is None:
            logits_cache = LogitsCache(model, capacity=65536)
        elif logits_cache.model is not model:
            raise ValueError("shared logits_cache was built for a different model")
        self.logits_cache = logits_cache
        self.concurrency = concurrency
        self.clock = clock
        self.record_history = record_history
        #: Admission control: refuse queries the static analyzer proves
        #: fruitless (error-level findings → reason ``"rejected"``) and,
        #: when ``admission_max_cost`` is set, queries whose estimated
        #: LM-call bound exceeds it (reason ``"rejected_cost"``).  Both
        #: finish at submit time with zero LM calls and empty results.
        self.admission_max_cost = admission_max_cost
        self.executor_defaults = executor_defaults
        # Process-parallel evaluation: an attached pool serves each round's
        # missing-context set.  Without one everything stays in-process.
        self._pool = worker_pool
        # Checkpoint/resume state (see :mod:`repro.core.checkpoint`): a
        # snapshot is written after every ``checkpoint_every`` completed
        # rounds, at the end of a clean :meth:`run`, and best-effort on
        # interruption; ``resume=True`` restores completed queries (and
        # preloads the logits cache) from ``checkpoint_path`` the first
        # time :meth:`run`/:meth:`step` executes.
        self.checkpoint_path = checkpoint_path
        self.checkpoint_every = checkpoint_every
        self.resume = resume
        self._resume_attempted = False
        self._rounds_since_checkpoint = 0
        self._interrupt_requested = False
        self.stats = SchedulerStats()
        self.queries: list[ScheduledQuery] = []
        #: Every match in global yield order, as ``(query_name, match)`` —
        #: the merged stream the property suite checks is a permutation of
        #: the per-query serial streams.  Populated only when
        #: ``record_history=True`` (it duplicates every match otherwise).
        self.merged: list[tuple[str, MatchResult]] = []
        self._names: set[str] = set()
        self._rr_next = 0

    # -- submission ---------------------------------------------------------------
    def submit(
        self,
        query: SimpleSearchQuery,
        *,
        budget: QueryBudget | None = None,
        name: str | None = None,
        **executor_overrides: Any,
    ) -> ScheduledQuery:
        """Prepare *query* and enqueue it; returns its handle.

        Compilation goes through the shared compiler (templated patterns
        hit its cache) and the executor shares the scheduler's logits
        cache.  The handle is live immediately; traversal only advances
        inside :meth:`step` / :meth:`run`.

        A query that fails to compile (e.g. a regex syntax error) raises
        here with nothing registered.
        """
        index = len(self.queries)
        # Names key per-query latency (and the merged stream), so they must
        # be unique — a repeated name (e.g. the same CLI pattern twice) is
        # suffixed with the handle's index rather than silently colliding.
        base = name if name is not None else f"q{index}"
        unique = base
        suffix = index
        while unique in self._names:
            unique = f"{base}#{suffix}"
            suffix += 1
        submitted_at = self.clock()
        compiled = self.compiler.compile(query)
        kwargs = dict(self.executor_defaults)
        kwargs.update(executor_overrides)
        executor = Executor(self.model, compiled, logits_cache=self.logits_cache, **kwargs)
        handle = ScheduledQuery(
            index=index,
            name=unique,
            query=query,
            compiled=compiled,
            executor=executor,
            budget=budget if budget is not None else QueryBudget(),
            submitted_at=submitted_at,
        )
        if compiled.metrics is not None:
            self.stats.compile_ms += compiled.metrics.compile_ms
        self._names.add(unique)
        self.queries.append(handle)
        self.stats.queries_submitted += 1
        self._admit(handle)
        return handle

    def _admit(self, sq: ScheduledQuery) -> None:
        """Admission control on a freshly compiled query."""
        report = sq.report
        if report is not None:
            self.stats.per_query_verdict[sq.name] = report.verdict
            if report.has_errors:
                self._finish(sq, truncated=True, reason="rejected")
            elif (
                self.admission_max_cost is not None
                and report.cost is not None
                and report.cost.lm_calls_bound is not None
                and report.cost.lm_calls_bound > self.admission_max_cost
            ):
                self._finish(sq, truncated=True, reason="rejected_cost")

    # -- driving ------------------------------------------------------------------
    def run(self) -> list[ScheduledQuery]:
        """Drive every submitted query to completion (``while step()``);
        returns the handles.

        **Interruption.**  When driving from the main thread, ``run``
        installs a deferred SIGINT handler: the first Ctrl-C finishes the
        round in flight, writes a checkpoint (when ``checkpoint_path`` is
        set) and raises ``KeyboardInterrupt`` — which unwinds the caller's
        ``with WorkerPool(...)`` block, unlinking every pooled
        shared-memory segment; a second Ctrl-C escalates immediately.  Any
        other exception escaping the drive loop triggers the same
        best-effort checkpoint before propagating, so a crashed sweep is
        resumable too.
        """
        self._maybe_resume()
        previous: Any = None
        installed = threading.current_thread() is threading.main_thread()
        if installed:

            def _on_sigint(signum: int, frame: FrameType | None) -> None:
                if self._interrupt_requested:  # second Ctrl-C: stop *now*
                    raise KeyboardInterrupt
                self._interrupt_requested = True

            previous = signal.signal(signal.SIGINT, _on_sigint)
        try:
            while not self._interrupt_requested and self.step():
                pass
            if self._interrupt_requested:
                raise KeyboardInterrupt
            if self.checkpoint_path is not None:
                self.save_checkpoint()
        except BaseException:
            if self.checkpoint_path is not None:
                try:  # best effort: the original exception wins
                    self.save_checkpoint()
                except Exception:
                    pass
            raise
        finally:
            if installed:
                signal.signal(signal.SIGINT, previous)
        return list(self.queries)

    def step(self) -> bool:
        """Execute one scheduling turn; returns False when all work is done.

        One turn: advance every active query — answering fully cached LM
        demands inline, collecting matches, enforcing budgets and
        cancellations — until it misses the cache or is handed back (an
        inline answer after a match, or its inline quantum used); then, if
        any query missed, pick up to ``concurrency`` of them (rotating
        round-robin), service their contexts in one coalesced cache
        round, and resume them with the scores.  A turn in which nobody
        missed runs no round at all.
        """
        self._maybe_resume()
        waiting = self._gather_waiting()
        if waiting:
            self._round(self._select(waiting))
        return any(not sq.done for sq in self.queries)

    def _gather_waiting(self) -> list[ScheduledQuery]:
        """Advance every runnable query and return the ones left waiting
        on an LM round — those whose next request misses the cache."""
        waiting = []
        for sq in self.queries:
            if sq.done:
                continue
            if sq._pending is None:
                self._advance(sq)
            else:  # parked on an earlier turn, not yet picked for a round
                self._enforce_budget(sq)
            if sq._pending is not None:  # cleared when a query finishes
                waiting.append(sq)
        return waiting

    def _round(self, chosen: list[ScheduledQuery]) -> None:
        """Run one coalesced round: cache detection pass, the chosen
        queries' lookahead (each evaluated now, against the cache as it
        stands), one scoring call for the contexts still missing (sharded
        across the worker pool when attached), then fold the rows into
        the cache, credit per-query stats, and resume the generators."""
        cache = self.logits_cache
        plan = cache.begin_round([sq._pending.contexts for sq in chosen])
        for sq in chosen:
            if sq._pending.lookahead is not None:
                sq.stats.lookahead_contexts += cache.add_lookahead(
                    plan, sq._pending.lookahead()
                )
        started = time.perf_counter()
        missing = plan.missing_contexts()
        if not missing:
            fresh = []
        elif self._pool is not None:
            fresh = self._pool.logprobs_batch(missing)
        else:
            fresh = cache.model.logprobs_batch(missing)
        rows, hits, misses = cache.finish_round(plan, fresh)
        wall_ms = (time.perf_counter() - started) * 1e3
        size = plan.total_contexts
        self.stats.rounds += 1
        self.stats.contexts_serviced += size
        self.stats.max_round_size = max(self.stats.max_round_size, size)
        self.stats.lm_wall_ms += wall_ms
        if self.record_history:
            self.stats.round_sizes.append(size)
            self.stats.round_members.append(tuple(sq.name for sq in chosen))
            self.stats.round_wall_ms.append(wall_ms)
        for sq, group_rows, h, m in zip(chosen, rows, hits, misses):
            request = sq._pending
            sq._pending = None
            sq.stats.logits_hits += h
            sq.stats.logits_misses += m
            sq.stats.scheduler_rounds += 1
            sq._answer = sq.executor.finish_request(request, group_rows)
            self._advance(sq)
        self._rounds_since_checkpoint += 1
        if (
            self.checkpoint_path is not None
            and self._rounds_since_checkpoint >= self.checkpoint_every
        ):
            self.save_checkpoint()

    # -- checkpoint / resume ------------------------------------------------------
    def save_checkpoint(self) -> None:
        """Atomically snapshot the sweep's progress to ``checkpoint_path``.

        The snapshot holds every query's completion state (results, stats,
        truncation verdict — done queries only; unfinished queries are
        recorded as pending and re-run on resume) plus up to 64 MiB of the
        shared logits cache, newest rows preferred, so resumed re-runs hit
        the cache instead of the model.
        Called automatically every ``checkpoint_every`` completed rounds;
        callable directly for an on-demand snapshot.
        """
        if self.checkpoint_path is None:
            raise ValueError("scheduler was built without a checkpoint_path")
        snapshots = [
            QuerySnapshot(
                name=sq.name,
                fingerprint=query_fingerprint(sq.query),
                done=sq.done,
                truncated=sq.truncated,
                truncated_reason=sq.truncated_reason,
                results=list(sq.results) if sq.done else [],
                stats=sq.stats.as_dict() if sq.done else {},
                latency=sq.latency if sq.latency is not None else 0.0,
            )
            for sq in self.queries
        ]
        ckpt_mod.save_checkpoint(
            self.checkpoint_path,
            RunCheckpoint(
                rounds_completed=self.stats.rounds,
                queries=snapshots,
                cache_rows=self.logits_cache.dump_rows(_CHECKPOINT_CACHE_BYTES),
            ),
        )
        self.stats.checkpoints_written += 1
        self._rounds_since_checkpoint = 0

    def _maybe_resume(self) -> None:
        """Restore completed queries from ``checkpoint_path`` (first
        drive only, ``resume=True`` only; a missing file is a fresh run)."""
        if not self.resume or self._resume_attempted:
            return
        self._resume_attempted = True
        assert self.checkpoint_path is not None  # enforced at construction
        if not os.path.exists(self.checkpoint_path):
            return
        loaded = ckpt_mod.load_checkpoint(self.checkpoint_path)
        # Snapshots are matched to submitted queries by content
        # fingerprint, in submission order — never by position — so a
        # reordered or extended query list resumes correctly: anything
        # without a matching done-snapshot simply runs fresh.
        buckets: dict[str, list[QuerySnapshot]] = {}
        for snap in loaded.queries:
            if snap.done:
                buckets.setdefault(snap.fingerprint, []).append(snap)
        for sq in self.queries:
            if sq.done:  # e.g. rejected at submit by admission control
                continue
            bucket = buckets.get(query_fingerprint(sq.query))
            if bucket:
                self._restore_query(sq, bucket.pop(0))
        self.logits_cache.preload(loaded.cache_rows)

    def _restore_query(self, sq: ScheduledQuery, snap: QuerySnapshot) -> None:
        """Reinstate *sq* from its snapshot without running its traversal."""
        sq._gen.close()
        sq._pending = None
        sq.done = True
        sq.resumed = True
        sq.truncated = snap.truncated
        sq.truncated_reason = snap.truncated_reason
        sq.results = list(snap.results)
        sq.latency = snap.latency
        for key, value in snap.stats.items():
            if hasattr(sq.stats, key):
                setattr(sq.stats, key, value)
        self.stats.per_query_latency[sq.name] = snap.latency
        self.stats.queries_resumed += 1
        if snap.truncated_reason == "cancelled":
            self.stats.queries_cancelled += 1
        elif snap.truncated_reason in ("rejected", "rejected_cost"):
            self.stats.queries_rejected += 1
        elif snap.truncated:
            self.stats.queries_truncated += 1
        else:
            self.stats.queries_completed += 1

    def _advance(self, sq: ScheduledQuery) -> None:
        """Resume *sq*'s generator (with ``sq._answer``) until it misses
        the cache, finishes, or is handed back to the drive loop.

        A request whose contexts are all cached is answered on the spot
        (budgets checked first, exactly as before a round) and the
        generator keeps going; the first request with a miss is parked in
        ``_pending`` for a coalesced round.  The query is handed back —
        ready, its next answer already in ``sq._answer`` — at the first
        inline answer after a match, so ``step()``-granular observers see
        a match as soon as they did when every request took a round, and
        after :data:`_INLINE_QUANTUM` inline answers, so peers get their
        turn.  A query no inline answer touches runs from round to round
        exactly as before: matches never end its turn, only a miss does.
        """
        if sq._cancelled:
            self._finish(sq, truncated=True, reason="cancelled")
            return
        answered = 0
        matched = False
        while True:
            answer, sq._answer = sq._answer, None
            try:
                event = sq._gen.send(answer)
            except StopIteration:
                self._finish(sq, truncated=False)
                return
            if not isinstance(event, LmRequest):
                sq.results.append(event)
                if self.record_history:
                    self.merged.append((sq.name, event))
                limit = sq.budget.max_results
                if limit is not None and len(sq.results) >= limit:
                    self._finish(sq, truncated=True, reason="max_results")
                    return
                matched = True
                continue
            sq._pending = event
            self._enforce_budget(sq)
            if sq.done:
                return
            rows = self.logits_cache.cached_rows(event.contexts)
            if rows is None:
                return
            sq._pending = None
            sq.stats.logits_hits += len(rows)
            sq._answer = sq.executor.finish_request(event, rows)
            answered += 1
            if matched or answered == _INLINE_QUANTUM:
                return

    def _enforce_budget(self, sq: ScheduledQuery) -> None:
        """Stop *sq* before its pending request is answered — inline or
        by a round — if it is cancelled or over budget."""
        if sq._cancelled:
            self._finish(sq, truncated=True, reason="cancelled")
            return
        budget = sq.budget
        if (
            budget.deadline is not None
            and self.clock() - sq.submitted_at >= budget.deadline
        ):
            self._finish(sq, truncated=True, reason="deadline")
            return
        if (
            budget.max_lm_calls is not None
            and sq.stats.lm_calls + len(sq._pending.contexts) > budget.max_lm_calls
        ):
            self._finish(sq, truncated=True, reason="max_lm_calls")

    def _finish(self, sq: ScheduledQuery, truncated: bool, reason: str | None = None) -> None:
        sq._gen.close()
        sq._pending = None
        sq.done = True
        sq.truncated = truncated
        sq.truncated_reason = reason
        sq.latency = self.clock() - sq.submitted_at
        self.stats.per_query_latency[sq.name] = sq.latency
        if reason == "cancelled":
            self.stats.queries_cancelled += 1
        elif reason in ("rejected", "rejected_cost"):
            self.stats.queries_rejected += 1
        elif truncated:
            self.stats.queries_truncated += 1
        else:
            self.stats.queries_completed += 1

    # -- selection ----------------------------------------------------------------
    def _select(self, waiting: list[ScheduledQuery]) -> list[ScheduledQuery]:
        """Pick which waiting queries join this round (≤ ``concurrency``)."""
        if len(waiting) <= self.concurrency:
            return waiting
        # round_robin: rotate the start position across rounds so every
        # query gets serviced regardless of submission order.
        total = len(self.queries)
        ranked = sorted(
            waiting, key=lambda sq: (sq.index - self._rr_next) % total
        )
        chosen = ranked[:self.concurrency]
        self._rr_next = (chosen[-1].index + 1) % total
        return chosen
