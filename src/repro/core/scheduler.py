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
  log-probabilities) is bit-identical to the query driven alone (a
  :func:`~repro.core.api.search` is this scheduler with one query; the
  test suite's ``reference_drive`` is the serial loop it is checked
  against).  The differential suite pins this for every seeded combo at
  concurrency 1, and the property suite for random multi-query mixes.
* **Budgets** — per-query wall-clock deadline, LM-call cap, and result cap
  (:class:`QueryBudget`), enforced before every request is answered —
  inline from the cache or by a round: a query over budget is stopped
  before it is given another score, keeps the matches it already
  produced, and is flagged ``truncated``.
* **Cancellation** — :meth:`ScheduledQuery.cancel` stops a query at the
  next boundary; a cancelled query never issues another LM call.
* **Rotation** — when a round cannot service every waiting query
  (``concurrency`` caps queries per *model round*; a cached answer takes
  no slot, but a query is handed back to the drive loop after a match
  and after ``_INLINE_QUANTUM`` inline answers, so a long warm query
  cannot starve its peers), the start
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

import math
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

    A limit that is set must be satisfiable: ``deadline`` a finite number
    of seconds > 0, ``max_lm_calls`` and ``max_results`` integers >= 1
    (``ValueError`` otherwise), so no budget silently runs unbounded or
    yields past a cap of zero.
    """

    deadline: float | None = None
    max_lm_calls: int | None = None
    max_results: int | None = None

    def __post_init__(self) -> None:
        deadline = self.deadline
        if deadline is not None and (
            isinstance(deadline, bool)
            or not isinstance(deadline, (int, float))
            or not math.isfinite(deadline)
            or deadline <= 0
        ):
            raise ValueError(f"deadline must be a finite number of seconds > 0, got {deadline!r}")
        for name in ("max_lm_calls", "max_results"):
            value = getattr(self, name)
            if value is not None and (
                isinstance(value, bool) or not isinstance(value, int) or value < 1
            ):
                raise ValueError(f"{name} must be an integer >= 1, got {value!r}")


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
        #: Whether a request can cross a budget line (a deadline or an
        #: LM-call cap): an unmetered, uncancelled query skips the check.
        self._metered = budget.deadline is not None or budget.max_lm_calls is not None

    @property
    def report(self) -> QueryReport | None:
        """Static-analyzer verdict for this query (``None`` when the
        shared compiler runs with analysis disabled), computed on first
        read: :meth:`QueryScheduler.submit` reads it for admission, not
        ``compile``."""
        return self.compiled.report

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
        #: The unfinished queries, in submission order: what a turn walks.
        self._active: list[ScheduledQuery] = []
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
        submitted_at = self.clock()
        compiled = self.compiler.compile(query)
        kwargs = dict(self.executor_defaults)
        kwargs.update(executor_overrides)
        executor = Executor(self.model, compiled, logits_cache=self.logits_cache, **kwargs)
        if compiled.metrics is not None:
            self.stats.compile_ms += compiled.metrics.compile_ms
        handle = self._enqueue(
            executor, budget if budget is not None else QueryBudget(), name, submitted_at
        )
        self._admit(handle)
        return handle

    def _enqueue(
        self,
        executor: Executor,
        budget: QueryBudget,
        name: str | None = None,
        submitted_at: float | None = None,
    ) -> ScheduledQuery:
        """Register a built *executor* as a runnable query and return its
        handle: no compile, no analysis, no admission (``submit`` adds
        those; a :class:`~repro.core.api.SearchSession` drives its own
        executor through this alone)."""
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
        handle = ScheduledQuery(
            index=index,
            name=unique,
            query=executor.query,
            compiled=executor.compiled,
            executor=executor,
            budget=budget,
            submitted_at=self.clock() if submitted_at is None else submitted_at,
        )
        self._names.add(unique)
        self.queries.append(handle)
        self._active.append(handle)
        self.stats.queries_submitted += 1
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
        set) and raises ``KeyboardInterrupt``; a second Ctrl-C escalates
        immediately.  Any
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
        cancellations — until it misses the cache or is handed back (see
        :meth:`_advance`); then, if any query missed, pick up to
        ``concurrency`` of them (rotating round-robin), service their
        contexts in one coalesced cache round, and resume them with the
        scores.  A turn in which nobody missed runs no round at all.
        """
        if self.resume and not self._resume_attempted:
            self._maybe_resume()
        waiting = []
        for sq in tuple(self._active):
            if sq._pending is None:
                self._advance(sq)
            elif sq._cancelled or sq._metered:  # parked, not yet picked for a round
                self._enforce_budget(sq, sq._pending)
            if sq._pending is not None:  # cleared when a query finishes
                waiting.append(sq)
        if waiting:
            self._round(waiting if len(waiting) <= self.concurrency else self._select(waiting))
        return bool(self._active)

    def _round(self, chosen: list[ScheduledQuery]) -> None:
        """Run one coalesced round: cache detection pass, the chosen
        queries' lookahead (each evaluated now, against the cache as it
        stands), one scoring call for the contexts still missing, then
        fold the rows into the cache, credit per-query stats, and resume
        the generators."""
        cache = self.logits_cache
        plan = cache.begin_round([sq._pending.contexts for sq in chosen])
        for sq in chosen:
            if sq._pending.lookahead is not None:
                sq.stats.lookahead_contexts += cache.add_lookahead(
                    plan, sq._pending.lookahead()
                )
        started = time.perf_counter()
        missing = plan.missing_contexts()
        fresh = cache.model.logprobs_batch(missing) if missing else []
        rows, hits, misses = cache.finish_round(plan, fresh)
        wall_ms = (time.perf_counter() - started) * 1e3
        size = plan.total_contexts
        stats = self.stats
        stats.rounds += 1
        stats.contexts_serviced += size
        if size > stats.max_round_size:
            stats.max_round_size = size
        stats.lm_wall_ms += wall_ms
        if self.record_history:
            stats.round_sizes.append(size)
            stats.round_members.append(tuple(sq.name for sq in chosen))
            stats.round_wall_ms.append(wall_ms)
        for sq, group_rows, h, m in zip(chosen, rows, hits, misses):
            request = sq._pending
            sq._pending = None
            query_stats = sq.executor.stats
            query_stats.logits_hits += h
            query_stats.logits_misses += m
            query_stats.scheduler_rounds += 1
            sq._answer = sq.executor.finish_request(request, group_rows)
            self._advance(sq)
        if self.checkpoint_path is not None:
            self._rounds_since_checkpoint += 1
            if self._rounds_since_checkpoint >= self.checkpoint_every:
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
        self._active.remove(sq)
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
        ready, its next answer already in ``sq._answer`` — after
        :data:`_INLINE_QUANTUM` inline answers, so peers get their turn,
        and after a match: at the first inline answer past it, so
        ``step()``-granular observers see a match as soon as they did when
        every request took a round, while a request past it that misses
        still joins this turn's round with its peers.  Alone, a query has
        no peer to share a round with, so it is handed back at the match
        itself: its generator stays suspended there, and nothing past a
        match is expanded or scored before the caller has it (what a
        :func:`~repro.core.api.search` stream relies on).
        """
        if sq._cancelled:
            self._finish(sq, truncated=True, reason="cancelled")
            return
        gen = sq._gen
        answer, sq._answer = sq._answer, None
        answered = 0
        matched = False
        while True:
            try:
                event = gen.send(answer)
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
                if len(self._active) == 1:
                    return
                matched = True
                answer = None
                continue
            if (sq._cancelled or sq._metered) and self._enforce_budget(sq, event):
                return
            rows = self.logits_cache.cached_rows(event.contexts)
            if rows is None:
                sq._pending = event
                return
            sq.executor.stats.logits_hits += len(rows)
            answer = sq.executor.finish_request(event, rows)
            answered += 1
            if matched or answered == _INLINE_QUANTUM:
                sq._answer = answer
                return

    def _enforce_budget(self, sq: ScheduledQuery, request: LmRequest) -> bool:
        """Stop *sq* before *request* is answered — inline or by a round —
        if it is cancelled or over budget; returns whether it stopped."""
        if sq._cancelled:
            self._finish(sq, truncated=True, reason="cancelled")
            return True
        budget = sq.budget
        if (
            budget.deadline is not None
            and self.clock() - sq.submitted_at >= budget.deadline
        ):
            self._finish(sq, truncated=True, reason="deadline")
            return True
        if (
            budget.max_lm_calls is not None
            and sq.stats.lm_calls + len(request.contexts) > budget.max_lm_calls
        ):
            self._finish(sq, truncated=True, reason="max_lm_calls")
            return True
        return False

    def _finish(self, sq: ScheduledQuery, truncated: bool, reason: str | None = None) -> None:
        sq._gen.close()
        sq._pending = None
        sq.done = True
        self._active.remove(sq)
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
        """Pick which of more than ``concurrency`` waiting queries join
        this round: rotate the start position across rounds so every query
        gets serviced regardless of submission order."""
        total = len(self.queries)
        ranked = sorted(
            waiting, key=lambda sq: (sq.index - self._rr_next) % total
        )
        chosen = ranked[:self.concurrency]
        self._rr_next = (chosen[-1].index + 1) % total
        return chosen
