"""Pieces the five workloads share: environment set-up and its stage
replay, cold engine state, and the first-match bookkeeping of a
scheduler drive loop."""

from __future__ import annotations

from typing import Any

from typing import Iterator

from harness import ENV_SEED, LOGITS_CACHE_ROWS, Workload, clock
from layers import compile_stage_layers
from repro.core.api import prepare
from repro.core.executor import Executor
from repro.core.results import ExecutionStats, MatchResult
from repro.core.compiler import GraphCompiler
from repro.core.scheduler import QueryScheduler, ScheduledQuery
from repro.datasets.corpus import build_corpus
from repro.datasets.lambada import build_lambada
from repro.datasets.webworld import WebWorld
from repro.experiments.common import Environment, get_environment
from repro.lm.base import LanguageModel, LogitsCache
from repro.lm.ngram import NGramModel
from repro.tokenizers.bpe import train_bpe
from tracing import (
    ROOT,
    TimingCompiler,
    TimingLogitsCache,
    TimingModel,
    Tracer,
    drive_executor,
)


class EngineWorkload(Workload):
    """A workload whose repetitions run on a :class:`ColdEngine`: the
    traced one is kept so its cold compiles can be replayed stage by stage."""

    traced_engine: "ColdEngine"

    def replay_layers(self, tracer: Tracer) -> dict[str, float | None]:
        return compile_stage_layers(self.traced_engine, tracer)


class EnvironmentWorkload(EngineWorkload):
    """A workload over the shared experiment environment (n-gram XL)."""

    env: Environment

    def build_environment(self, stages: dict[str, float]) -> None:
        """``get_environment(ENV_SEED, "full")`` built from scratch (the
        function memoises, so its cache is dropped first)."""
        started = clock()
        get_environment.cache_clear()
        self.env = get_environment(ENV_SEED, "full")
        self.spec = self.env.model_xl.spec()
        stages["environment_s"] = clock() - started

    def replay_setup(self, stages: dict[str, float]) -> None:
        """Time the public builders ``get_environment`` chains, fed with
        the environment's own outputs (the results are dropped)."""
        env = self.env
        started = clock()
        lambada = build_lambada(seed=ENV_SEED)
        web = WebWorld.create(seed=ENV_SEED)
        build_corpus(seed=ENV_SEED, web=web, lambada_lines=lambada.training_lines)
        stages["corpus_s"] = clock() - started
        started = clock()
        train_bpe(env.corpus.lines, vocab_size=len(env.tokenizer))
        stages["bpe_train_s"] = clock() - started
        started = clock()
        for model in (env.model_xl, env.model_small):
            NGramModel.train_on_text(
                env.corpus.lines, env.tokenizer, order=model.order, alpha=model.alpha
            )
        stages["ngram_fit_s"] = clock() - started


class RepetitionSpan:
    """The root span of a repetition (a no-op without a tracer)."""

    def __init__(self, tracer: Tracer | None) -> None:
        self.tracer = tracer
        if tracer is not None:
            self.mark = tracer.mark()
            self.root = tracer.begin(ROOT)

    def close(self) -> dict[str, dict[str, float]]:
        """End the span; returns the profile of everything inside it."""
        if self.tracer is None:
            return {}
        self.tracer.end(self.root)
        return self.tracer.profile(since=self.mark)


class ColdEngine:
    """Cold engine state for one repetition: a model replica with empty
    row/KV caches (``spec.build()`` — how worker replicas are made), a
    fresh :class:`GraphCompiler` with its own empty compilation cache, and
    a fresh :class:`LogitsCache`.  With a *tracer* the three are the timing
    stand-ins of :mod:`tracing`.  The replica is built by the caller,
    outside the timed region; compiler and cache construction is part of
    what a cold user pays and happens here, inside it.
    """

    def __init__(self, model: LanguageModel, tokenizer: Any, tracer: Tracer | None) -> None:
        self.tokenizer = tokenizer
        self.tracer = tracer
        if tracer is None:
            self.model = model
            self.compiler = GraphCompiler(tokenizer)
            self.cache = LogitsCache(model, capacity=LOGITS_CACHE_ROWS)
        else:
            self.model = TimingModel(model, tracer)
            self.compiler = TimingCompiler(tokenizer, tracer)
            self.cache = TimingLogitsCache(self.model, tracer, LOGITS_CACHE_ROWS)

    def stream(
        self, query: Any, **limits: int
    ) -> tuple[ExecutionStats, Iterator[MatchResult]]:
        """One query's stats and match stream: ``prepare(...)`` as the
        experiments call it, or — traced — the same executor driven by
        hand through :func:`tracing.drive_executor`."""
        if self.tracer is None:
            session = prepare(
                self.model, self.tokenizer, query,
                compiler=self.compiler, logits_cache=self.cache, **limits,
            )
            return session.stats, iter(session)
        executor = Executor(
            self.model, self.compiler.compile(query), logits_cache=self.cache, **limits
        )
        return executor.stats, drive_executor(executor, self.cache, self.tracer)

    def scheduler(self, concurrency: int) -> QueryScheduler:
        return QueryScheduler(
            self.model,
            self.tokenizer,
            compiler=self.compiler,
            logits_cache=self.cache,
            concurrency=concurrency,
        )


def drive_scheduler(
    scheduler: QueryScheduler,
    submitted: list[tuple[ScheduledQuery, float]],
    tracer: Tracer | None = None,
) -> list[float]:
    """``scheduler.run()`` as a loop of public ``step()`` calls (one
    ``scheduler.run`` span when traced), noting when each handle's first
    match appears; returns the submit→first-match latencies (ms), one per
    query that produced a match, in handle order.
    """
    first: dict[int, float] = {}
    span = tracer.begin("scheduler.run") if tracer is not None else None

    def note() -> None:
        now = clock()
        for handle, _ in submitted:
            if handle.results and handle.index not in first:
                first[handle.index] = now

    note()
    while scheduler.step():
        if len(first) < len(submitted):
            note()
    note()
    if span is not None:
        tracer.end(span)
    return [
        (first[handle.index] - at) * 1e3
        for handle, at in submitted
        if handle.index in first
    ]
