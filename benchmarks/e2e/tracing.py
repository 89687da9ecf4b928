"""Outside-in layer tracing for the relm-e2e benchmark.

Nothing under ``src/`` is instrumented.  A traced repetition hands the
engine timing *subclasses and proxies* of its public classes — a
:class:`TimingModel` around the language model, a :class:`TimingLogitsCache`,
a :class:`TimingCompiler` — and, for single-query workloads, drives
``Executor.steps()`` by hand exactly as ``Executor.run()`` does
(:func:`drive_executor`).  Compile stages are obtained afterwards by
replaying each cold-compiled query through the same public functions
``GraphCompiler`` chains (:func:`replay_compile_stages`).

Spans are kept in memory (:class:`Tracer`) and written out as JSONL only
when the caller asks; a layer's *self time* is its spans' duration minus
the part covered by child spans.  Span names are ``<module>.<operation>``
with the engine's module names as layers.
"""

from __future__ import annotations

import itertools
import json
import threading
import time
from typing import Any, Iterator, Sequence

import numpy as np

from repro.automata.dfa import DFA
from repro.automata.nfa import nfa_from_ast
from repro.core.compiler import (
    CompileMetrics,
    CompiledQuery,
    GraphCompiler,
    prefixes_of,
)
from repro.core.executor import Executor, LmRequest
from repro.core.query import QueryTokenizationStrategy, SimpleSearchQuery
from repro.core.results import MatchResult
from repro.lm.base import LanguageModel, LogitsCache, RoundPlan
from repro.regex import parse

clock = time.perf_counter

#: The root span every repetition opens; it is not a layer.
ROOT = "workload.repetition"


class Tracer:
    """In-memory span recorder (``name, start, end, parent``).

    Spans may be recorded from several threads (the service's engine
    thread and the client loop): ids come from an atomic counter, the
    open-span stack is per thread, and finished spans are appended to one
    list (``list.append`` is atomic under the GIL).  A span opened on a
    thread with no open span has parent ``-1``.
    """

    def __init__(self, workload: str) -> None:
        self.workload = workload
        self.spans: list[tuple[int, str, float, float, int]] = []
        self._ids = itertools.count()
        self._local = threading.local()

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def begin(self, name: str) -> tuple[int, str, float, int]:
        """Open a span; pass the returned token to :meth:`end`."""
        stack = self._stack()
        span_id = next(self._ids)
        parent = stack[-1] if stack else -1
        stack.append(span_id)
        return (span_id, name, clock(), parent)

    def end(self, token: tuple[int, str, float, int]) -> float:
        """Close the span opened by :meth:`begin`; returns its duration."""
        finished = clock()
        span_id, name, started, parent = token
        self._stack().pop()
        self.spans.append((span_id, name, started, finished, parent))
        return finished - started

    def mark(self) -> int:
        """A position in the span list (see :meth:`profile` ``since``)."""
        return len(self.spans)

    def profile(self, since: int = 0) -> dict[str, dict[str, float]]:
        """Aggregate spans recorded after *since* by name.

        Returns ``{name: {"count", "total_ms", "self_ms"}}`` where self
        time is the span's duration minus its direct children's.
        """
        spans = self.spans[since:]
        child_time: dict[int, float] = {}
        for _, _, started, finished, parent in spans:
            if parent >= 0:
                child_time[parent] = child_time.get(parent, 0.0) + (finished - started)
        out: dict[str, dict[str, float]] = {}
        for span_id, name, started, finished, _ in spans:
            duration = finished - started
            row = out.setdefault(name, {"count": 0, "total_ms": 0.0, "self_ms": 0.0})
            row["count"] += 1
            row["total_ms"] += duration * 1e3
            row["self_ms"] += (duration - child_time.get(span_id, 0.0)) * 1e3
        return out

    def write_jsonl(self, path: str) -> None:
        """Dump every span as one JSON object per line."""
        with open(path, "w", encoding="utf-8") as handle:
            for span_id, name, started, finished, parent in self.spans:
                record = {
                    "id": span_id,
                    "name": name,
                    "start": started,
                    "end": finished,
                    "parent": parent,
                    "workload": self.workload,
                }
                handle.write(json.dumps(record) + "\n")


def total_ms(profile: dict[str, dict[str, float]], name: str) -> float:
    return profile.get(name, {}).get("total_ms", 0.0)


def self_ms(profile: dict[str, dict[str, float]], name: str) -> float:
    return profile.get(name, {}).get("self_ms", 0.0)


def coverage(profile: dict[str, dict[str, float]]) -> float:
    """Sum of layer self-times ÷ repetition wall (the root span)."""
    wall = total_ms(profile, ROOT)
    if wall <= 0.0:
        return 0.0
    layers = sum(row["self_ms"] for name, row in profile.items() if name != ROOT)
    return layers / wall


# -- timing stand-ins for the engine's public classes ---------------------------


class TimingModel(LanguageModel):
    """A transparent :class:`LanguageModel` proxy recording ``lm.forward``
    spans and forward counters (pattern: ``repro.lm.base.CountingModel``)."""

    def __init__(self, inner: LanguageModel, tracer: Tracer) -> None:
        self.inner = inner
        self.tracer = tracer
        self.vocab_size = inner.vocab_size
        self.eos_id = inner.eos_id
        self.max_sequence_length = inner.max_sequence_length
        self.forward_calls = 0
        self.forward_contexts = 0

    @property
    def prefix_cache(self) -> Any | None:
        # ``LogitsCache.prefix_cache`` and the scheduler read this attribute.
        return getattr(self.inner, "prefix_cache", None)

    def enable_prefix_cache(self, max_bytes: int | None = None) -> Any | None:
        return self.inner.enable_prefix_cache(max_bytes)

    def disable_prefix_cache(self) -> None:
        self.inner.disable_prefix_cache()

    def logprobs(self, context: Sequence[int]) -> np.ndarray:
        token = self.tracer.begin("lm.forward")
        try:
            return self.inner.logprobs(context)
        finally:
            self.tracer.end(token)
            self.forward_calls += 1
            self.forward_contexts += 1

    def logprobs_batch(self, contexts: Sequence[Sequence[int]]) -> list[np.ndarray]:
        token = self.tracer.begin("lm.forward")
        try:
            return self.inner.logprobs_batch(contexts)
        finally:
            self.tracer.end(token)
            self.forward_calls += 1
            self.forward_contexts += len(contexts)


class TimingLogitsCache(LogitsCache):
    """:class:`LogitsCache` recording ``logits_cache.lookup`` spans.

    Both phases of a round are timed — detection (``begin_round``) and
    attribution/insert (``finish_round``) — so the layer's time is the
    same whether ``Executor.run``-style drivers call ``logprobs_batch`` or
    the scheduler calls the split-phase API around its own model call.
    The single-context path is one span with the forward nested in it.
    """

    def __init__(self, model: LanguageModel, tracer: Tracer, capacity: int) -> None:
        super().__init__(model, capacity=capacity)
        self.tracer = tracer

    def logprobs(self, context: Sequence[int]) -> np.ndarray:
        token = self.tracer.begin("logits_cache.lookup")
        try:
            return super().logprobs(context)
        finally:
            self.tracer.end(token)

    def begin_round(self, groups: Sequence[Sequence[Sequence[int]]]) -> RoundPlan:
        token = self.tracer.begin("logits_cache.lookup")
        try:
            return super().begin_round(groups)
        finally:
            self.tracer.end(token)

    def finish_round(
        self, plan: RoundPlan, fresh: Sequence[np.ndarray]
    ) -> tuple[list[list[np.ndarray]], list[int], list[int]]:
        token = self.tracer.begin("logits_cache.lookup")
        try:
            return super().finish_round(plan, fresh)
        finally:
            self.tracer.end(token)


class TimingCompiler(GraphCompiler):
    """:class:`GraphCompiler` recording one ``compiler.compile`` span per
    ``compile()`` call and remembering the queries that compiled cold (the
    ones :func:`replay_compile_stages` replays)."""

    def __init__(self, tokenizer: Any, tracer: Tracer, **kwargs: Any) -> None:
        super().__init__(tokenizer, **kwargs)
        self.tracer = tracer
        self.cold_queries: list[SimpleSearchQuery] = []
        self.cold_compiled: list[CompiledQuery] = []

    def compile(self, query: SimpleSearchQuery) -> CompiledQuery:
        token = self.tracer.begin("compiler.compile")
        try:
            compiled = super().compile(query)
        finally:
            self.tracer.end(token)
        if compiled.metrics is not None and compiled.metrics.source == "cold":
            self.cold_queries.append(query)
            self.cold_compiled.append(compiled)
        return compiled


def drive_executor(
    executor: Executor, cache: LogitsCache, tracer: Tracer
) -> Iterator[MatchResult]:
    """Drive ``executor.steps()`` exactly as ``Executor.run()`` does, with a
    span around each resume of the traversal generator
    (``executor.expand``: frontier expansion, result materialisation and
    token decode) and around ``finish_request`` (``decoding.policy``: top-k
    mask and scaling).  *cache* must be the executor's own logits cache; a
    :class:`TimingLogitsCache` over a :class:`TimingModel` contributes the
    ``logits_cache.lookup`` and ``lm.forward`` spans.
    """
    gen = executor.steps()
    payload = None
    while True:
        token = tracer.begin("executor.expand")
        try:
            event = gen.send(payload)
        except StopIteration:
            return
        finally:
            tracer.end(token)
        if isinstance(event, LmRequest):
            rows = cache.logprobs_batch(event.contexts)
            token = tracer.begin("decoding.policy")
            payload = executor.finish_request(event, rows)
            tracer.end(token)
        else:
            yield event
            payload = None


# -- compile-stage replay -------------------------------------------------------

#: Stage names, in the order ``GraphCompiler._compile_uncached`` chains them
#: (``analyze.report`` runs in ``compile()`` right after).
COMPILE_STAGES = (
    "regex.parse",
    "automata.determinize",
    "automata.minimize",
    "preprocessors.apply",
    "compiler.prefix_closure",
    "compiler.token_edges",
    "compiler.token_minimize",
    "arrays.lower",
    "analyze.report",
)


def _char_dfa_staged(pattern: str, tracer: Tracer) -> DFA:
    """``repro.regex.compile_dfa`` split into its three public steps."""
    token = tracer.begin("regex.parse")
    ast = parse(pattern)
    tracer.end(token)
    token = tracer.begin("automata.determinize")
    dfa = DFA.from_nfa(nfa_from_ast(ast))
    tracer.end(token)
    token = tracer.begin("automata.minimize")
    dfa = dfa.minimized()
    tracer.end(token)
    return dfa


def replay_compile_stages(
    compiler: GraphCompiler, query: SimpleSearchQuery, tracer: Tracer
) -> CompiledQuery:
    """Recompile *query* stage by stage through the public functions the
    compiler chains, one span per stage; returns the compilation so the
    caller can read its sizes.  Mirrors the non-empty-language path of
    ``GraphCompiler._compile_uncached`` followed by the analyzer pass of
    ``GraphCompiler.compile`` (benchmark queries are never empty).
    """
    char_dfa = _char_dfa_staged(query.query_string.query_str, tracer)
    prefix_dfa = None
    if query.query_string.prefix_str is not None:
        prefix_dfa = _char_dfa_staged(query.query_string.prefix_str, tracer)
    for preprocessor in query.preprocessors:
        token = tracer.begin("preprocessors.apply")
        char_dfa = preprocessor.apply(char_dfa)
        if prefix_dfa is not None and preprocessor.applies_to_prefix:
            prefix_dfa = preprocessor.apply(prefix_dfa)
        tracer.end(token)
    prefix_closure = None
    if prefix_dfa is not None:
        token = tracer.begin("compiler.prefix_closure")
        prefix_closure = (
            prefixes_of(prefix_dfa).intersect(prefixes_of(char_dfa)).minimized()
        )
        tracer.end(token)
    token = tracer.begin("compiler.token_edges")
    if query.tokenization_strategy is QueryTokenizationStrategy.ALL_TOKENS:
        automaton = compiler.compile_all_tokens(char_dfa, prefix_closure)
    else:
        automaton = compiler.compile_canonical(char_dfa, prefix_closure)
    tracer.end(token)
    raw_states, raw_edges = automaton.num_states, automaton.num_edges
    token = tracer.begin("compiler.token_minimize")
    automaton = automaton.minimized()
    tracer.end(token)
    token = tracer.begin("arrays.lower")
    automaton.arrays(vocab_size=len(compiler.tokenizer), intervals=True)
    tracer.end(token)
    compiled = CompiledQuery(
        query=query,
        tokenizer=compiler.tokenizer,
        char_dfa=char_dfa,
        prefix_dfa=prefix_dfa,
        prefix_closure=prefix_closure,
        token_automaton=automaton,
        metrics=CompileMetrics(
            token_states=raw_states,
            token_edges=raw_edges,
            minimized_states=automaton.num_states,
            minimized_edges=automaton.num_edges,
        ),
    )
    if compiler.analyzer is not None:
        token = tracer.begin("analyze.report")
        compiled.report = compiler.analyzer.analyze_compiled(compiled)
        tracer.end(token)
    return compiled


def arrays_nbytes(compiled: CompiledQuery) -> int:
    """Bytes held by a compilation's array lowering."""
    return int(compiled.token_automaton.arrays().bytes_estimate)
