"""Tests for query objects and the top-level API (repro.core.query/api)."""

from __future__ import annotations

import itertools

import pytest

from repro.core.api import prepare, search
from repro.core.query import (
    QuerySearchStrategy,
    QueryString,
    QueryTokenizationStrategy,
    SearchQuery,
    SimpleSearchQuery,
)


class TestSearchQueryConstructor:
    def test_figure4_form(self):
        query = SearchQuery(
            r"My phone number is ([0-9]{3}) ([0-9]{3}) ([0-9]{4})",
            prefix="My phone number is",
            top_k=40,
        )
        assert query.top_k_sampling == 40
        assert query.query_string.prefix_str == "My phone number is"
        assert query.query_string.query_str.startswith("My phone number is")

    def test_prefix_prepended_when_absent(self):
        query = SearchQuery(" ([0-9]+)", prefix="Count:")
        assert query.query_string.query_str == "Count: ([0-9]+)"

    def test_prefix_not_duplicated_when_present(self):
        query = SearchQuery("abc def", prefix="abc")
        assert query.query_string.query_str == "abc def"

    def test_defaults(self):
        query = SearchQuery("a")
        assert query.search_strategy is QuerySearchStrategy.SHORTEST_PATH
        assert query.tokenization_strategy is QueryTokenizationStrategy.ALL_TOKENS
        assert query.top_k_sampling is None
        assert not query.require_eos

    def test_with_replaces_fields(self):
        query = SearchQuery("a")
        changed = query.with_(num_samples=7, seed=3)
        assert changed.num_samples == 7 and changed.seed == 3
        assert query.num_samples is None  # original untouched


class TestFigure11Form:
    def test_simple_search_query(self):
        months = "|".join(
            ["(January)", "(February)", "(March)", "(April)", "(May)", "(June)",
             "(July)", "(August)", "(September)", "(October)", "(November)",
             "(December)"]
        )
        query_string = QueryString(
            query_str=f"George Washington was born on ({months}) [0-9]{{1,2}}, [0-9]{{4}}",
            prefix_str="George Washington was born on",
        )
        query = SimpleSearchQuery(
            query_string=query_string,
            search_strategy=QuerySearchStrategy.SHORTEST_PATH,
            tokenization_strategy=QueryTokenizationStrategy.ALL_TOKENS,
            top_k_sampling=None,
            sequence_length=None,
        )
        assert query.query_string.prefix_str.endswith("born on")


class TestSearchApi:
    def test_search_returns_iterator(self, model, tokenizer):
        results = search(model, tokenizer, SearchQuery("The ((cat)|(dog))"))
        first = next(results)
        assert first.text in ("The cat", "The dog")

    def test_prepare_exposes_stats(self, model, tokenizer):
        session = prepare(model, tokenizer, SearchQuery("The cat"))
        list(session)
        stats = session.stats.as_dict()
        assert stats["matches_yielded"] == 1
        assert stats["lm_calls"] > 0

    def test_figure2_example(self, model, tokenizer):
        """The worked example of Figure 2: `The ((cat)|(dog))` returns
        `The cat` (the corpus's most likely branch first)."""
        results = list(search(model, tokenizer, SearchQuery("The ((cat)|(dog))", top_k=40)))
        assert results[0].text in ("The cat", "The dog")
        assert {r.text for r in results} <= {"The cat", "The dog"}

    def test_invalid_pattern_raises_at_compile(self, model, tokenizer):
        from repro.regex.parser import RegexSyntaxError

        with pytest.raises(RegexSyntaxError):
            prepare(model, tokenizer, SearchQuery("(unclosed"))


class TestSearchStreamsLazily:
    """``search()`` runs its query through a one-query scheduler that hands
    it back at every match: when the k-th match reaches the caller, the
    traversal has done exactly what the serial loop
    (:func:`tests.reference.reference_drive`) had done — nothing past the
    match is expanded, asked of the model or scored — and the session keeps
    none of the matches it handed over."""

    QUERIES = [
        SearchQuery("The ((cat)|(dog)|(man)|(woman)) [a-z]+", top_k=40),
        SearchQuery("The [a-z]+", strategy=QuerySearchStrategy.RANDOM_SAMPLING, seed=1),
    ]

    @pytest.mark.parametrize("query", QUERIES, ids=["shortest", "random"])
    @pytest.mark.parametrize("k", [1, 3, 10])
    def test_counters_after_k_matches_equal_the_serial_loop(self, model, tokenizer, query, k):
        from repro.core.compiler import GraphCompiler
        from repro.core.executor import Executor
        from tests.reference import reference_drive

        def counters(stats):
            return stats.nodes_expanded, stats.lm_calls, stats.logits_misses

        serial = Executor(model, GraphCompiler(tokenizer).compile(query))
        want = list(itertools.islice(reference_drive(serial), k))
        session = prepare(model, tokenizer, query)
        got = list(itertools.islice(iter(session), k))
        assert len(got) == k and got == want
        assert counters(session.stats) == counters(serial.stats)
        assert session.stats.lm_calls > 0

    def test_unbounded_random_stream_holds_no_matches(self, model, tokenizer, monkeypatch):
        from repro.core.scheduler import QueryScheduler

        handles = []
        enqueue = QueryScheduler._enqueue

        def spy(self, *args, **kwargs):
            handles.append(enqueue(self, *args, **kwargs))
            return handles[-1]

        monkeypatch.setattr(QueryScheduler, "_enqueue", spy)
        query = SearchQuery("The [a-z]+", strategy=QuerySearchStrategy.RANDOM_SAMPLING, seed=2)
        stream = search(model, tokenizer, query)
        draws = list(itertools.islice(stream, 5000))
        assert len(draws) == 5000
        (handle,) = handles
        assert handle.results == [] and not handle.done


#: Every keyword the "one owner per knob" change removed, by the callable
#: that used to accept it.  Each knob now lives on exactly one object — the
#: model (KV cache), the ``GraphCompiler`` (disk cache) — which the layers
#: take prebuilt.  No alias may creep back: all of these must be
#: ``TypeError``.
#: The process pool's knobs, and ``worker_pool`` itself: one process
#: evaluates the model (the pool lost on every shape measured; DESIGN.md's
#: options ledger).
_POOL_KNOBS = (
    "workers", "min_shard_size", "max_retries", "backoff_base", "shard_timeout", "fault_plan",
    "worker_pool",
)
_KV_KNOBS = ("kv_cache", "kv_cache_mb")
#: Set planning, deleted from the scheduler: it saved no model context the
#: shared logits cache does not already save (``TestDuplicateQueries``).
_PLANNER_KNOBS = ("dedupe", "subsume", "set_analyzer")
#: Alternative drive loops, deleted from the scheduler: neither won on a
#: pooled multi-query run, and ``run()`` is ``while step()``.
_DRIVE_LOOP_KNOBS = ("pipeline", "compile_ahead")
#: Capped-round policies other than round-robin rotation, deleted: no
#: workload or experiment ever had more queries waiting than ``concurrency``.
_FAIRNESS_KNOBS = ("fairness",)
REMOVED_KEYWORDS = {
    # The beam traversal is deleted: shortest path and random sampling are
    # the paper's two (DESIGN.md's options ledger).
    "SearchQuery": ("beam_width",),
    "SimpleSearchQuery": ("beam_width",),
    # A private cache is sized by ``logits_cache=LogitsCache(model, capacity=n)``;
    # the sampled-prefix length bound is a constant.
    "Executor": ("backend", "cache_size", "max_prefix_chars"),
    # Every canonical query compiles to one product automaton: there is no
    # enumeration bound, and the executor has no canonicity mode.
    "GraphCompiler": ("minimize_tokens", "enumeration_limit"),
    "TokenAutomaton": ("dynamic_canonical",),
    "AutomatonArrays": ("dense_budget",),
    "SearchSession": _POOL_KNOBS + _KV_KNOBS + ("backend",),
    "prepare": _POOL_KNOBS + _KV_KNOBS + ("backend",),
    "search_many": (
        _POOL_KNOBS + _KV_KNOBS + _DRIVE_LOOP_KNOBS + _FAIRNESS_KNOBS + ("backend",)
    ),
    # Admission is turned off at the compiler (``analyzer=False``).
    "QueryScheduler": (
        _POOL_KNOBS + _KV_KNOBS + _PLANNER_KNOBS + _DRIVE_LOOP_KNOBS + _FAIRNESS_KNOBS
        + ("backend", "admission_control", "checkpoint_cache_mb")
    ),
    "SchedulerService": (
        _POOL_KNOBS + _KV_KNOBS + _DRIVE_LOOP_KNOBS + _FAIRNESS_KNOBS
        + ("backend", "compile_cache")
    ),
}

#: Stats fields deleted because another object owns the counter — read it
#: there (``model.prefix_cache.stats()``, ``compiler.cache.stats()``,
#: ``compiled.metrics``) — or, for the pool and planner counters, because
#: the mechanism they counted is gone.  No compatibility
#: property may creep back: all of these must be ``AttributeError``.
_POOL_MIRRORS = (
    "workers", "shards_dispatched", "parallel_rounds", "retries", "respawns",
    "degraded_rounds",
)
_PREFIX_MIRRORS = (
    "prefix_hits", "prefix_misses", "prefix_evictions", "prefix_bytes", "prefix_hit_rate",
)
_COMPILE_CACHE_MIRRORS = ("compile_cache_hits", "compile_cache_misses", "compile_cache_disk_hits")
_PLANNER_COUNTERS = (
    "queries_deduped", "queries_subsumed", "set_analysis_ms", "per_query_dedupe",
    "per_query_subsumed",
)
REMOVED_STATS_FIELDS = {
    # ``lm_wall_ms``: a query's rounds are the scheduler's, timed there
    # (``SchedulerStats.lm_wall_ms``); only the deleted serial loop filled it.
    "ExecutionStats": _POOL_MIRRORS + _PREFIX_MIRRORS + (
        "compilation_cache_hits", "compilation_cache_misses", "compilation_cache_disk_hits",
        "token_states", "token_edges", "minimized_states", "compile_ms", "lm_wall_ms",
    ),
    "SchedulerStats": (
        _POOL_MIRRORS + _PREFIX_MIRRORS + _COMPILE_CACHE_MIRRORS + _PLANNER_COUNTERS
        + ("queries_compiled_ahead",)
        # Per-query facts live on the handle (``latency``, ``report.verdict``).
        + ("per_query_latency", "per_query_verdict")
    ),
    # The scheduler's counters, read from it by ``stats_snapshot()``.
    "ServiceStats": _COMPILE_CACHE_MIRRORS + (
        "rounds", "contexts_serviced", "lm_wall_ms", "compile_ms",
        "checkpoints_written", "queries_resumed",
    ),
}


class TestRemovedKeywords:
    @pytest.fixture()
    def calls(self, model, tokenizer):
        """``name -> callable(**kw)`` running each entry point far enough
        to bind every keyword (executor kwargs bind at submit/compile)."""
        from repro.core.api import SearchSession, search_many
        from repro.core.arrays import AutomatonArrays
        from repro.core.compiler import GraphCompiler, TokenAutomaton
        from repro.core.executor import Executor
        from repro.core.scheduler import QueryScheduler
        from repro.service import SchedulerService

        query = SearchQuery("The cat")
        compiled = GraphCompiler(tokenizer).compile(query)

        def service(**kw):
            # Unnamed keywords are per-executor defaults; the engine thread
            # hands them to ``Executor`` at the first submit.
            svc = SchedulerService(model, tokenizer, **kw)
            Executor(model, compiled, **svc.executor_defaults)

        return {
            "SearchQuery": lambda **kw: SearchQuery("The cat", **kw),
            "SimpleSearchQuery": lambda **kw: SimpleSearchQuery(QueryString("The cat"), **kw),
            "Executor": lambda **kw: Executor(model, compiled, **kw),
            "GraphCompiler": lambda **kw: GraphCompiler(tokenizer, **kw),
            "TokenAutomaton": lambda **kw: TokenAutomaton(start=0, accepts=frozenset(), **kw),
            "AutomatonArrays": lambda **kw: AutomatonArrays({}, frozenset(), **kw),
            "SearchSession": lambda **kw: SearchSession(model, tokenizer, query, **kw),
            "prepare": lambda **kw: prepare(model, tokenizer, query, **kw),
            "search_many": lambda **kw: search_many(model, tokenizer, [query], **kw),
            "QueryScheduler": lambda **kw: QueryScheduler(model, tokenizer, **kw).submit(query),
            "SchedulerService": service,
        }

    @pytest.mark.parametrize("name", sorted(REMOVED_KEYWORDS))
    def test_removed_keywords_raise_type_error(self, calls, name):
        calls[name]()  # the bare call is fine: only the keyword is at fault
        for keyword in REMOVED_KEYWORDS[name]:
            with pytest.raises(TypeError, match=keyword):
                calls[name](**{keyword: 1})

    def test_surface_sizes(self):
        """The named-keyword surface of each layer (not counting ``model``
        / ``tokenizer`` / ``query`` / ``compiled`` and ``**kwargs``)."""
        import inspect

        from repro.core.api import SearchSession, search_many
        from repro.core.compiler import GraphCompiler
        from repro.core.executor import Executor
        from repro.core.scheduler import QueryScheduler
        from repro.service import SchedulerService

        def named(fn):
            return [
                p.name
                for p in inspect.signature(fn).parameters.values()
                if p.kind is not p.VAR_KEYWORD
                and p.name not in ("self", "model", "tokenizer", "query", "queries", "compiled")
            ]

        assert len(named(Executor.__init__)) == 6
        assert len(named(GraphCompiler.__init__)) == 3
        assert named(SearchSession.__init__) == ["compiler"]
        assert len(named(search_many)) == 7
        assert len(named(QueryScheduler.__init__)) == 9
        assert len(named(SchedulerService.__init__)) == 12

        # Stats objects carry only what their owner increments; a counter
        # another object owns (prefix cache, compilation caches,
        # CompileMetrics) is read there, never mirrored here.
        import dataclasses

        from repro.core.results import ExecutionStats, SchedulerStats
        from repro.service import ServiceStats

        for cls, size in ((ExecutionStats, 12), (SchedulerStats, 15), (ServiceStats, 13)):
            assert len(dataclasses.fields(cls)) == size, cls.__name__
            for removed in REMOVED_STATS_FIELDS[cls.__name__]:
                with pytest.raises(AttributeError):
                    getattr(cls(), removed)

    def test_beam_traversal_is_gone(self):
        """Two traversals, the paper's: the beam strategy and its engine
        loop are deleted, not hidden, and so is the serial drive loop."""
        from repro.core.executor import Executor

        assert [s.name for s in QuerySearchStrategy] == ["SHORTEST_PATH", "RANDOM_SAMPLING"]
        for name in ("_beam_search", "run"):
            assert not hasattr(Executor, name)

    def test_worker_pool_is_gone(self):
        """One process evaluates the model: the pool, its fault injector
        and their exports are deleted, not hidden."""
        import importlib

        import repro
        import repro.core

        for module in (repro, repro.core):
            assert not hasattr(module, "WorkerPool")
            assert "WorkerPool" not in module.__all__
        for name in ("repro.core.parallel", "repro.core.faults"):
            with pytest.raises(ModuleNotFoundError):
                importlib.import_module(name)

    def test_as_dict_enumerates_every_field(self):
        """Each report's ``as_dict()`` is its dataclass fields (plus the
        documented derived keys) — a new field cannot be forgotten."""
        import dataclasses

        from repro.core.compiler import CompileMetrics
        from repro.core.results import ExecutionStats, SchedulerStats
        from repro.service import ServiceStats

        def field_names(cls):
            return {f.name for f in dataclasses.fields(cls)}

        for cls in (ExecutionStats, ServiceStats, CompileMetrics):
            assert set(cls().as_dict()) == field_names(cls), cls.__name__
        history = {"round_sizes", "round_members", "round_wall_ms"}
        assert set(SchedulerStats().as_dict()) == (
            field_names(SchedulerStats) - history
        ) | {"mean_round_size"}
