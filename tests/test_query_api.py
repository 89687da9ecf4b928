"""Tests for query objects and the top-level API (repro.core.query/api)."""

from __future__ import annotations

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


#: Every keyword the "one owner per knob" change removed, by the callable
#: that used to accept it.  Each knob now lives on exactly one object — the
#: ``WorkerPool`` (shard sizing, supervision, fault injection), the model
#: (KV cache), the ``GraphCompiler`` (disk cache) — which the layers take
#: prebuilt.  No alias may creep back: all of these must be ``TypeError``.
_POOL_KNOBS = (
    "workers", "min_shard_size", "max_retries", "backoff_base", "shard_timeout", "fault_plan",
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
    # The worker-side logits cache never hit (the parent ships only its own
    # cache's misses); the start method and backoff cap are constants.
    "WorkerPool": ("worker_cache_size", "start_method", "backoff_cap"),
    # A private cache is sized by ``logits_cache=LogitsCache(model, capacity=n)``;
    # the sampled-prefix length bound is a constant.
    "Executor": ("backend", "cache_size", "max_prefix_chars"),
    "GraphCompiler": ("minimize_tokens",),
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
#: there (``pool.stats()``, ``model.prefix_cache.stats()``,
#: ``compiler.cache.stats()``, ``compiled.metrics``) — or, for the planner
#: counters, because the mechanism they counted is gone.  No compatibility
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
    "ExecutionStats": _POOL_MIRRORS + _PREFIX_MIRRORS + (
        "compilation_cache_hits", "compilation_cache_misses", "compilation_cache_disk_hits",
        "token_states", "token_edges", "minimized_states", "compile_ms",
    ),
    "SchedulerStats": (
        _POOL_MIRRORS + _PREFIX_MIRRORS + _COMPILE_CACHE_MIRRORS + _PLANNER_COUNTERS
        + ("queries_compiled_ahead",)
    ),
    "ServiceStats": _COMPILE_CACHE_MIRRORS,
}


class TestRemovedKeywords:
    @pytest.fixture()
    def calls(self, model, tokenizer):
        """``name -> callable(**kw)`` running each entry point far enough
        to bind every keyword (executor kwargs bind at submit/compile)."""
        from repro.core.api import SearchSession, search_many
        from repro.core.arrays import AutomatonArrays
        from repro.core.compiler import GraphCompiler
        from repro.core.executor import Executor
        from repro.core.parallel import WorkerPool
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
            "WorkerPool": lambda **kw: WorkerPool(model, 1, **kw).shutdown(),
            "Executor": lambda **kw: Executor(model, compiled, **kw),
            "GraphCompiler": lambda **kw: GraphCompiler(tokenizer, **kw),
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
        from repro.core.parallel import WorkerPool
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
        assert len(named(GraphCompiler.__init__)) == 4
        assert named(SearchSession.__init__) == ["compiler"]
        assert len(named(search_many)) == 8
        assert len(named(QueryScheduler.__init__)) == 10
        assert len(named(SchedulerService.__init__)) == 13
        for fn in (search_many, QueryScheduler.__init__, SchedulerService.__init__):
            assert "worker_pool" in named(fn)
        assert [
            p.name
            for p in inspect.signature(WorkerPool.__init__).parameters.values()
            if p.kind is p.KEYWORD_ONLY
        ] == ["min_shard_size", "max_retries", "backoff_base", "shard_timeout", "fault_plan"]

        # Stats objects carry only what their owner increments; a counter
        # another object owns (pool, prefix cache, compilation caches,
        # CompileMetrics) is read there, never mirrored here.
        import dataclasses

        from repro.core.results import ExecutionStats, SchedulerStats
        from repro.service import ServiceStats

        for cls, size in ((ExecutionStats, 13), (SchedulerStats, 17), (ServiceStats, 19)):
            assert len(dataclasses.fields(cls)) == size, cls.__name__
            for removed in REMOVED_STATS_FIELDS[cls.__name__]:
                with pytest.raises(AttributeError):
                    getattr(cls(), removed)

    def test_pool_rounds_are_one_call(self):
        """The pool's split-phase round API is deleted: a round is one
        ``logprobs_batch`` call, and ``repro.core`` exports no ticket."""
        import repro.core
        from repro.core import parallel
        from repro.core.parallel import WorkerPool

        for module in (repro.core, parallel):
            assert not hasattr(module, "RoundTicket")
            assert "RoundTicket" not in module.__all__
        for method in ("dispatch", "collect"):
            assert not hasattr(WorkerPool, method)

    def test_pool_attaches_one_way_and_fails_one_way(self, model):
        """``worker_pool=`` is the only way to attach a pool (no model
        adapter), a pool takes a live model only (no ``ModelSpec``), and
        supervision is the only failure contract (no fail-fast
        ``max_retries=None``); ``shutdown`` has no alias."""
        import repro.core
        from repro.core import parallel
        from repro.core.parallel import WorkerPool

        for module in (repro.core, parallel):
            assert not hasattr(module, "PooledModel")
            assert "PooledModel" not in module.__all__
        assert not hasattr(WorkerPool, "close")
        with pytest.raises(ValueError, match="max_retries"):
            WorkerPool(model, 2, max_retries=None)
        with pytest.raises(TypeError, match="LanguageModel"):
            WorkerPool(model.spec(), 2)

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
        # A copy, not a view: mutating the report never touches the stats.
        stats = SchedulerStats()
        stats.as_dict()["per_query_latency"]["q0"] = 1.0
        assert stats.per_query_latency == {}
