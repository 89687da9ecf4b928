"""Top-level ReLM entry point: ``search(model, tokenizer, query)``.

Mirrors the paper's Figure 4 / Figure 11 usage::

    query = relm.SearchQuery(r"My phone number is ([0-9]{3}) ([0-9]{3}) ([0-9]{4})",
                             prefix="My phone number is", top_k=40)
    for match in relm.search(model, tokenizer, query):
        print(match.text)

The returned iterator is lazy: shortest-path queries stream matches in
decreasing probability until the language is exhausted; random queries are
an unbounded sample stream unless ``num_samples`` bounds them.  There is
one drive loop: a session's iterator is a :class:`QueryScheduler` holding
that one query, stepped until the next match and suspended there.

Repeated-query workloads should reuse one :class:`GraphCompiler` (its
compilation cache skips recompiling repeated patterns) and may share one
:class:`~repro.lm.base.LogitsCache` per model across sessions::

    compiler = GraphCompiler(tokenizer)
    shared = LogitsCache(model, capacity=65536)
    for query in queries:
        for match in search(model, tokenizer, query,
                            compiler=compiler, logits_cache=shared):
            ...
"""

from __future__ import annotations

from typing import Any, Iterator, Sequence

from repro.core.compiler import CompiledQuery, GraphCompiler
from repro.core.executor import Executor
from repro.core.query import SimpleSearchQuery
from repro.core.findings import QueryReport
from repro.core.results import ExecutionStats, MatchResult
from repro.core.scheduler import QueryBudget, QueryScheduler, ScheduledQuery
from repro.lm.base import LanguageModel, LogitsCache
from repro.tokenizers.bpe import BPETokenizer

__all__ = ["search", "prepare", "search_many", "SearchSession"]


class SearchSession:
    """A prepared query: compiled automaton plus executor, with stats.

    Useful when the caller needs execution statistics or wants to re-run
    the same compiled query with different executor limits.  Pass
    ``compiler=`` to reuse a caller-owned :class:`GraphCompiler` (and its
    compilation cache) across sessions.  ``compiled.metrics`` says what
    this query's compile cost and where it came from (``source`` is
    ``"cold"``, ``"memory"`` or ``"disk"``).
    """

    def __init__(
        self,
        model: LanguageModel,
        tokenizer: BPETokenizer,
        query: SimpleSearchQuery,
        compiler: GraphCompiler | None = None,
        **executor_kwargs: Any,
    ) -> None:
        if compiler is None:
            compiler = GraphCompiler(tokenizer)
        elif compiler.tokenizer is not tokenizer:
            raise ValueError("compiler was built for a different tokenizer")
        self.compiler = compiler
        self.compiled: CompiledQuery = compiler.compile(query)
        self.executor = Executor(model, self.compiled, **executor_kwargs)

    def __iter__(self) -> Iterator[MatchResult]:
        """Stream the matches: the executor runs as the only query of a
        :class:`QueryScheduler`, which hands it back at every match, so
        nothing past a match is expanded or scored until the caller asks
        for the next one.  Matches are handed over, not kept: an unbounded
        random stream holds none of the ones it has yielded."""
        executor = self.executor
        scheduler = QueryScheduler(
            executor.model,
            self.compiler.tokenizer,
            compiler=self.compiler,
            logits_cache=executor._cache,
            concurrency=1,
        )
        handle = scheduler._enqueue(executor, QueryBudget())
        step = scheduler.step
        running = True
        while running:
            running = step()
            if handle.results:
                matches, handle.results = handle.results, []
                yield from matches

    @property
    def stats(self) -> ExecutionStats:
        """Execution statistics (live; updated as the iterator advances)."""
        return self.executor.stats

    @property
    def report(self) -> QueryReport | None:
        """The static analyzer's verdict on this query, computed on first
        read (``None`` when the compiler was built with
        ``analyzer=False``)."""
        return self.compiled.report


def prepare(
    model: LanguageModel,
    tokenizer: BPETokenizer,
    query: SimpleSearchQuery,
    compiler: GraphCompiler | None = None,
    **executor_kwargs: Any,
) -> SearchSession:
    """Compile *query* and return a re-iterable session with stats."""
    return SearchSession(model, tokenizer, query, compiler=compiler, **executor_kwargs)


def search(
    model: LanguageModel,
    tokenizer: BPETokenizer,
    query: SimpleSearchQuery,
    compiler: GraphCompiler | None = None,
    **executor_kwargs: Any,
) -> Iterator[MatchResult]:
    """Launch *query* against *model*; returns the lazy match iterator."""
    return iter(prepare(model, tokenizer, query, compiler=compiler, **executor_kwargs))


def search_many(
    model: LanguageModel,
    tokenizer: BPETokenizer,
    queries: Sequence[SimpleSearchQuery],
    *,
    concurrency: int = 8,
    compiler: GraphCompiler | None = None,
    logits_cache: LogitsCache | None = None,
    budget: QueryBudget | None = None,
    checkpoint: str | None = None,
    checkpoint_every: int = 1,
    resume: bool = False,
    **executor_kwargs: Any,
) -> list[ScheduledQuery]:
    """Run many queries through one :class:`QueryScheduler` to completion.

    The queries' frontier expansions are coalesced into shared LM rounds —
    a loop of N templated queries costs roughly one query's worth of model
    dispatches instead of N.  Each returned handle carries that query's
    ``results`` (bit-identical to a serial :func:`search`) and ``stats``.
    ``budget`` (optional) applies to every query; use the scheduler
    directly for per-query budgets.

    ``checkpoint=PATH`` snapshots progress every ``checkpoint_every``
    completed rounds (and on interruption); ``resume=True`` restores
    completed queries from that snapshot before running the rest, so an
    interrupted sweep reproduces the uninterrupted run's results without
    repeating its finished work (see :mod:`repro.core.checkpoint`).
    """
    scheduler = QueryScheduler(
        model,
        tokenizer,
        compiler=compiler,
        logits_cache=logits_cache,
        concurrency=concurrency,
        checkpoint_path=checkpoint,
        checkpoint_every=checkpoint_every,
        resume=resume,
        **executor_kwargs,
    )
    for query in queries:
        scheduler.submit(query, budget=budget)
    return scheduler.run()
