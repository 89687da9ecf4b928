"""Differential tests: vectorized ``arrays`` edge expansion vs the scalar
``dict`` reference.

The engine has one production expansion path per traversal; the scalar
per-edge loop over the edge dict is the reference it is compared to
(:mod:`tests.reference` pins either path for the duration of a ``with``
block, and holds the test-side per-step sampler and the serial drive
loop).  The vectorized path must be an *exact* drop-in: the same match
stream, in the same order, with the same per-token and total
log-probabilities, and the same prune/expansion statistics.  We check this
across the shortest-path and random-sampling traversals, over a grid of
seeded query/model combinations covering prefixes, top-k, top-p with
temperature, require-eos, canonical tokenization (product built whole and on first touch),
uniform-edge prefix draws, and Levenshtein edits.  Random sampling is
compared with :func:`tests.reference.reference_sample_once`, which rebuilds
every step's options and weights: the engine's step tables, built once per
(row, state), must leave the RNG in the same state too.

Also here: unit tests for the machinery the fast path is built from —
:class:`AutomatonArrays`, :meth:`DecodingPolicy.allowed_mask_for`,
:class:`CompilationCache`, tokenizer fingerprints, and the shared
:class:`LogitsCache`.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.api import prepare
from repro.core.compiler import CompilationCache, GraphCompiler
from repro.core.preprocessors import LevenshteinPreprocessor
from repro.core.query import (
    QueryString,
    QuerySearchStrategy,
    QueryTokenizationStrategy,
    SearchQuery,
    SimpleSearchQuery,
)
from repro.lm.base import LogitsCache
from repro.lm.decoding import DecodingPolicy
from tests.reference import expansion_path, reference_drive, unminimized_compiler

SHORTEST = QuerySearchStrategy.SHORTEST_PATH
RANDOM = QuerySearchStrategy.RANDOM_SAMPLING
CANONICAL = QueryTokenizationStrategy.CANONICAL

#: The differential grid: (name, model source, query).  Each row is one
#: seeded query/model combination; every row is run on both expansion paths.
COMBOS = [
    ("shortest_plain", "tiny",
     SearchQuery("The ((cat)|(dog)|(man)|(woman))", seed=0)),
    ("shortest_topk", "tiny",
     SearchQuery("The ((cat)|(dog)|(man)|(woman))", top_k=5, seed=1)),
    ("shortest_prefix", "tiny",
     SearchQuery("The ((cat)|(dog)) ((sat)|(ate))", prefix="The ((cat)|(dog))", seed=2)),
    ("shortest_eos", "tiny",
     SearchQuery("The ((cat)|(dog))", require_eos=True, seed=3)),
    ("shortest_canonical", "tiny",
     SearchQuery("The ((cat)|(dog)|(man)|(woman))",
                 tokenization=CANONICAL, seed=4)),
    ("shortest_edits", "tiny",
     SearchQuery("The cat", preprocessors=(LevenshteinPreprocessor(1),),
                 top_k=20, seed=5)),
    ("random_plain", "tiny",
     SearchQuery("The ((cat)|(dog))", strategy=RANDOM, num_samples=40, seed=8)),
    ("random_topk_eos", "tiny",
     SearchQuery("The ((cat)|(dog)|(man)|(woman))", strategy=RANDOM,
                 num_samples=40, top_k=30, require_eos=True, seed=9)),
    ("random_prefix", "tiny",
     SearchQuery("The ((man)|(woman)) was trained in ((art)|(medicine))",
                 prefix="The ((man)|(woman)) was trained in",
                 strategy=RANDOM, num_samples=30, seed=10)),
    ("shortest_env_small", "env_small",
     SearchQuery("The ((man)|(woman)) was trained in ((art)|(science))",
                 top_k=40, seed=11)),
    ("random_env_small", "env_small",
     SearchQuery("The ((man)|(woman)) was", strategy=RANDOM,
                 num_samples=25, seed=12)),
    ("random_topp_temperature", "tiny",
     SearchQuery("The ((cat)|(dog)|(man)|(woman))", strategy=RANDOM,
                 num_samples=40, top_p=0.9, temperature=0.7, seed=13)),
    ("random_dynamic_canonical", "tiny",
     SearchQuery("The [a-z]+", strategy=RANDOM, num_samples=30,
                 tokenization=CANONICAL, sequence_length=8, seed=14)),
    ("random_uniform_edges", "tiny",
     SimpleSearchQuery(
         query_string=QueryString("((a)|(b{1,3}))c", prefix_str="(a)|(b{1,3})"),
         search_strategy=RANDOM, num_samples=40, seed=15,
         uniform_edge_sampling=True)),
]


def _world(name, model, tokenizer, env):
    if name == "tiny":
        return model, tokenizer
    return env.model("small"), env.tokenizer


def _run_session(model, tokenizer, query, path="default", limit=200, compiler=None):
    """One serial run with the edge expansion pinned to *path* (``"dict"``
    scalar reference, ``"arrays"`` vectorized, ``"default"`` production);
    returns the matches and the session that produced them."""
    matches = []
    with expansion_path(path):
        session = prepare(model, tokenizer, query, compiler=compiler)
        for match in session:
            matches.append(match)
            if len(matches) >= limit:
                break
    return matches, session


def _run(model, tokenizer, query, path="default", limit=200, compiler=None):
    """:func:`_run_session`, returning ``(matches, session.stats)``."""
    matches, session = _run_session(model, tokenizer, query, path, limit, compiler)
    return matches, session.stats


class TestBackendsAreBitIdentical:
    @pytest.mark.parametrize(
        "name,source,query", COMBOS, ids=[c[0] for c in COMBOS]
    )
    def test_match_streams_identical(self, model, tokenizer, env, name, source, query):
        m, tok = _world(source, model, tokenizer, env)
        got_dict, session_dict = _run_session(m, tok, query, "dict")
        stats_dict = session_dict.stats
        assert len(got_dict) > 0, f"combo {name} produced no matches"
        # Vectorized for every state, and the production small-fan-out mix.
        for path in ("arrays", "default"):
            got_arr, session_arr = _run_session(m, tok, query, path)
            stats_arr = session_arr.stats
            assert len(got_dict) == len(got_arr)
            for a, b in zip(got_dict, got_arr):
                assert a.text == b.text
                assert a.tokens == b.tokens
                assert a.total_logprob == pytest.approx(b.total_logprob, abs=1e-9)
                assert a.logprob == pytest.approx(b.logprob, abs=1e-9)
            # The traversal itself must be identical, not just the output.
            assert stats_dict.pruned_edges == stats_arr.pruned_edges
            assert stats_dict.lm_calls == stats_arr.lm_calls
            assert stats_dict.failed_attempts == stats_arr.failed_attempts
            assert stats_dict.tokens_scored == stats_arr.tokens_scored
            assert stats_dict.lm_batches == stats_arr.lm_batches
            # Memoised sampling steps draw exactly what the per-step
            # reference draws, so the RNG ends in the same state.
            assert (
                session_dict.executor._rng.getstate()
                == session_arr.executor._rng.getstate()
            )

    def test_unknown_backend_rejected(self, model, tokenizer):
        """There is no backend switch any more: the keyword itself is
        unknown, whatever its value."""
        for value in ("simd", "dict", "arrays"):
            with pytest.raises(TypeError, match="backend"):
                prepare(model, tokenizer, SearchQuery("The cat"), backend=value)


class TestAutomatonArrays:
    @pytest.fixture()
    def compiled(self, tokenizer):
        return GraphCompiler(tokenizer).compile(
            SearchQuery("The ((cat)|(dog)) sat")
        )

    def test_rows_mirror_edge_dicts(self, compiled, model):
        automaton = compiled.token_automaton
        arrays = automaton.arrays(model.vocab_size)
        lowered = [arrays.row(state) for state in automaton.edges]
        assert sum(row.num_edges for row in lowered) == automaton.num_edges
        for state, edges in automaton.edges.items():
            row = arrays.row(state)
            if not edges:
                assert row is None or row.num_edges == 0
                continue
            # Array order mirrors dict insertion order exactly — the parity
            # guarantee the vectorized traversals rely on.
            assert list(row.token_ids) == list(edges.keys())
            assert list(row.dst_states) == list(edges.values())
            assert list(row.is_prefix) == [
                d in automaton.prefix_live for d in edges.values()
            ]

    def test_arrays_memoized_on_automaton(self, compiled, model):
        a1 = compiled.token_automaton.arrays(model.vocab_size)
        a2 = compiled.token_automaton.arrays(model.vocab_size)
        assert a1 is a2


class TestAllowedMaskFor:
    @pytest.mark.parametrize("top_k", [None, 1, 3, 7, 320])
    def test_subset_equals_full_mask(self, model, top_k):
        policy = DecodingPolicy(top_k=top_k)
        lp = model.logprobs([])
        ids = np.arange(0, model.vocab_size, 3)
        full = policy.allowed_mask(lp)[ids]
        sub = policy.allowed_mask_for(lp, ids)
        assert np.array_equal(full, sub)

    def test_subset_with_top_p_and_temperature(self, model):
        policy = DecodingPolicy(top_p=0.8, temperature=0.7)
        lp = model.logprobs([2])
        ids = np.array([0, 1, 5, 17, 100])
        assert np.array_equal(
            policy.allowed_mask(lp)[ids], policy.allowed_mask_for(lp, ids)
        )

    def test_tied_threshold_falls_back_exactly(self):
        lp = np.log(np.full(8, 1 / 8))  # fully tied distribution
        policy = DecodingPolicy(top_k=3)
        ids = np.arange(8)
        assert np.array_equal(
            policy.allowed_mask(lp)[ids], policy.allowed_mask_for(lp, ids)
        )


class TestCompilationCache:
    def test_hit_miss_counters_and_lru(self, tokenizer):
        cache = CompilationCache(max_entries=2)
        compiler = GraphCompiler(tokenizer, cache=cache)
        q1 = SearchQuery("The cat")
        q2 = SearchQuery("The dog")
        q3 = SearchQuery("The man")
        compiler.compile(q1)
        compiler.compile(q1)
        assert (cache.hits, cache.misses) == (1, 1)
        compiler.compile(q2)
        compiler.compile(q3)  # evicts q1 (LRU)
        assert cache.evictions == 1
        compiler.compile(q1)  # miss again
        assert cache.misses == 4
        assert 0.0 < cache.hit_rate < 1.0
        stats = cache.stats()
        assert stats["entries"] == 2

    def test_cached_compilation_reuses_automaton(self, tokenizer):
        compiler = GraphCompiler(tokenizer, cache=True)
        a = compiler.compile(SearchQuery("The ((cat)|(dog))", seed=1))
        b = compiler.compile(SearchQuery("The ((cat)|(dog))", seed=2))
        assert a.token_automaton is b.token_automaton
        assert b.query.seed == 2  # runtime fields rebound, not cached

    def test_distinct_queries_do_not_collide(self, tokenizer):
        compiler = GraphCompiler(tokenizer, cache=True)
        a = compiler.compile(SearchQuery("The cat"))
        b = compiler.compile(SearchQuery("The cat", prefix="The"))
        c = compiler.compile(
            SearchQuery("The cat", tokenization=CANONICAL)
        )
        assert a.token_automaton is not b.token_automaton
        assert compiler.cache.misses == 3
        assert c.token_automaton is not a.token_automaton

    def test_opaque_preprocessor_uncacheable(self, tokenizer):
        from repro.core.preprocessors import TransducerPreprocessor
        from repro.automata.transducer import identity_fst

        compiler = GraphCompiler(tokenizer, cache=True)
        query = SearchQuery(
            "The cat",
            preprocessors=(TransducerPreprocessor(identity_fst("The cat")),),
        )
        assert compiler.cache_key(query) is None
        compiler.compile(query)
        compiler.compile(query)
        assert compiler.cache.hits == 0  # never cached, never falsely hit

    def test_levenshtein_signature_cacheable(self, tokenizer):
        compiler = GraphCompiler(tokenizer, cache=True)
        query = SearchQuery(
            "The cat", preprocessors=(LevenshteinPreprocessor(1),)
        )
        compiler.compile(query)
        compiler.compile(query)
        assert compiler.cache.hits == 1

    def test_bias_loop_hit_rate_exceeds_090(self, env):
        """The acceptance bar: re-running the bias experiment's templated
        query loop against one shared compiler is >90% cache hits."""
        from repro.experiments.bias import FIGURE7_CONFIGS, bias_query

        cache = CompilationCache()
        compiler = GraphCompiler(env.tokenizer, cache=cache)
        config = FIGURE7_CONFIGS[1]  # canonical + prefix, as sampled per gender
        for seed in range(25):
            for gender in ("man", "woman"):
                compiler.compile(bias_query(config, gender, 10, seed))
        assert cache.misses == 2  # one per distinct gender pattern
        assert cache.hits == 48
        assert cache.hit_rate > 0.9

    def test_session_records_cache_deltas(self, model, tokenizer):
        compiler = GraphCompiler(tokenizer, cache=True)
        first = prepare(model, tokenizer, SearchQuery("The cat"), compiler=compiler)
        assert first.compiled.metrics.source == "cold"
        assert (compiler.cache.hits, compiler.cache.misses) == (0, 1)
        second = prepare(model, tokenizer, SearchQuery("The cat"), compiler=compiler)
        assert second.compiled.metrics.source == "memory"
        assert (compiler.cache.hits, compiler.cache.misses) == (1, 1)


def _run_serial(model, tokenizer, query, path="default", limit=200):
    """:func:`_run` with the executor driven by
    :func:`tests.reference.reference_drive`, the serial loop."""
    from repro.core.executor import Executor

    matches = []
    with expansion_path(path):
        executor = Executor(model, GraphCompiler(tokenizer).compile(query))
        for match in reference_drive(executor):
            matches.append(match)
            if len(matches) >= limit:
                break
    return matches, executor.stats


def _run_scheduled(model, tokenizer, query, path="default", limit=200):
    from repro.core.scheduler import QueryBudget, QueryScheduler

    with expansion_path(path):
        scheduler = QueryScheduler(model, tokenizer, concurrency=1)
        handle = scheduler.submit(query, budget=QueryBudget(max_results=limit))
        scheduler.run()
    return handle.results, handle.stats


class TestSchedulerSerialEquivalence:
    """A single query through the scheduler at concurrency 1 is
    byte-identical to the serial drive loop
    (:func:`tests.reference.reference_drive`) — same matches, same order, same
    log-probabilities, same traversal statistics — for every seeded combo
    in the differential grid, on the vectorized path and on the scalar
    reference (whose scheduled run must in turn equal the vectorized
    serial run: the reference-vs-vectorized grid, through the scheduler)."""

    @pytest.mark.parametrize(
        "name,source,query", COMBOS, ids=[c[0] for c in COMBOS]
    )
    @pytest.mark.parametrize("path", ["arrays", "dict"])
    def test_scheduler_matches_serial_run(
        self, model, tokenizer, env, name, source, query, path
    ):
        m, tok = _world(source, model, tokenizer, env)
        serial, serial_stats = _run_serial(m, tok, query, "arrays")
        sched, sched_stats = _run_scheduled(m, tok, query, path)
        assert len(serial) == len(sched)
        assert len(serial) > 0, f"combo {name} produced no matches"
        for a, b in zip(serial, sched):
            assert a.text == b.text
            assert a.tokens == b.tokens
            # Bit-identical, not approximately equal: the scheduler drives
            # the very same generator, so every float must match exactly.
            assert a.total_logprob == b.total_logprob
            assert a.logprob == b.logprob
            assert a.canonical == b.canonical
        assert serial_stats.lm_calls == sched_stats.lm_calls
        assert serial_stats.lm_batches == sched_stats.lm_batches
        assert serial_stats.tokens_scored == sched_stats.tokens_scored
        assert serial_stats.pruned_edges == sched_stats.pruned_edges
        assert serial_stats.failed_attempts == sched_stats.failed_attempts
        assert serial_stats.logits_hits == sched_stats.logits_hits
        assert serial_stats.logits_misses == sched_stats.logits_misses

    @pytest.mark.parametrize(
        "name,source,query", COMBOS, ids=[c[0] for c in COMBOS]
    )
    def test_warm_pass_runs_no_round(self, model, tokenizer, env, name, source, query):
        """The warm-cache axis: every combo twice over the same logits
        cache.  A round exists only for a miss — cold, every round reaches
        the model; warm, there is none and the model is never called — and
        either way the stream and ``lm_calls`` are the serial run's."""
        from repro.core.scheduler import QueryBudget, QueryScheduler
        from repro.lm.base import CountingModel

        m, tok = _world(source, model, tokenizer, env)
        serial, serial_stats = _run_serial(m, tok, query)
        counting = CountingModel(m)
        cache = LogitsCache(counting, capacity=65536)
        passes = []
        for _ in ("cold", "warm"):
            counting.reset()
            scheduler = QueryScheduler(counting, tok, logits_cache=cache, concurrency=1)
            handle = scheduler.submit(query, budget=QueryBudget(max_results=200))
            scheduler.run()
            passes.append((handle, scheduler.stats.rounds, counting.total_rounds))
        (cold, cold_rounds, cold_calls), (warm, warm_rounds, warm_calls) = passes
        assert cold_rounds == cold_calls > 0  # every round contained a miss
        assert (warm_rounds, warm_calls) == (0, 0)
        assert warm.stats.scheduler_rounds == 0
        assert warm.stats.logits_misses == 0
        assert warm.stats.logits_hits == warm.stats.lm_calls
        for handle in (cold, warm):
            assert handle.results == serial  # bit-identical: dataclass equality
            assert handle.stats.lm_calls == serial_stats.lm_calls
            assert handle.stats.lm_batches == serial_stats.lm_batches
            assert handle.stats.tokens_scored == serial_stats.tokens_scored
        assert cold.stats.logits_misses == serial_stats.logits_misses
        assert cold.stats.logits_hits == serial_stats.logits_hits


class TestSharedLogitsCache:
    def test_shared_cache_across_executors(self, model, tokenizer):
        shared = LogitsCache(model, capacity=4096)
        q = SearchQuery("The ((cat)|(dog))")
        m1, s1 = _run(model, tokenizer, q)
        first = prepare(model, tokenizer, q, logits_cache=shared)
        list(first)
        second = prepare(model, tokenizer, q, logits_cache=shared)
        list(second)
        # The second run is served (mostly) from the first run's entries,
        # and per-session stats are deltas, not cumulative totals.
        assert second.stats.logits_misses == 0
        assert second.stats.logits_hits > 0
        assert second.stats.logits_hit_rate == 1.0
        assert first.stats.logits_hits + first.stats.logits_misses <= shared.hits + shared.misses

    def test_sessions_prepared_together_are_charged_their_own_lookups(
        self, model, tokenizer
    ):
        """Two sessions over one cache, both prepared before either runs:
        each is charged exactly its own lookups, not whatever the cache's
        counters moved by since its construction."""
        shared = LogitsCache(model, capacity=4096)
        a = prepare(model, tokenizer, SearchQuery("the [a-z]{1,3}"), logits_cache=shared)
        b = prepare(model, tokenizer, SearchQuery("The ((cat)|(dog))"), logits_cache=shared)
        list(a)
        list(b)
        for session in (a, b):
            stats = session.stats
            assert stats.lm_calls > 0
            assert stats.logits_hits + stats.logits_misses == stats.lm_calls
        assert shared.hits + shared.misses == a.stats.lm_calls + b.stats.lm_calls
        assert shared.stats()["misses"] == a.stats.logits_misses + b.stats.logits_misses

    def test_session_sharing_a_cache_with_a_scheduler(self, model, tokenizer):
        from repro.core.scheduler import QueryScheduler

        shared = LogitsCache(model, capacity=4096)
        session = prepare(
            model, tokenizer, SearchQuery("The ((cat)|(dog))"), logits_cache=shared
        )
        scheduler = QueryScheduler(model, tokenizer, logits_cache=shared)
        handles = [
            scheduler.submit(SearchQuery(p)) for p in ("the [a-z]{1,3}", "The ((man)|(woman))")
        ]
        scheduler.run()
        list(session)
        everyone = [session.stats] + [h.stats for h in handles]
        for stats in everyone:
            assert stats.lm_calls > 0
            assert stats.logits_hits + stats.logits_misses == stats.lm_calls
        assert shared.hits + shared.misses == sum(s.lm_calls for s in everyone)

    def test_wrong_model_rejected(self, model, tokenizer, env):
        shared = LogitsCache(env.model("small"))
        with pytest.raises(ValueError, match="model"):
            prepare(model, tokenizer, SearchQuery("The cat"), logits_cache=shared)


class TestFingerprintAndTrie:
    def test_fingerprint_stable_and_distinct(self, tokenizer, env):
        assert tokenizer.fingerprint() == tokenizer.fingerprint()
        assert len(tokenizer.fingerprint()) == 16
        assert tokenizer.fingerprint() != env.tokenizer.fingerprint()

    def test_shared_walk_matches_walk_dfa(self, tokenizer):
        from repro.automata.trie import SharedWalk
        from repro.regex import compile_dfa

        trie = GraphCompiler(tokenizer)._trie
        dfa = compile_dfa("The ((cat)|(dog)) sat")
        walk = SharedWalk(trie, dfa.transitions)
        for state in dfa.states:
            # Same rows; insertion order is not compared — the compiler
            # sorts every row by token id.
            assert walk.row(state) == dict(trie.walk_dfa(dfa.transitions, state))


class TestSampleTokenFallback:
    def test_numpy_rng_index_clamped(self, model):
        class OneRng:
            def random(self):
                return 1.0  # forces searchsorted past the final cumsum bin

        tok = model.sample_token([], OneRng())
        assert 0 <= tok < model.vocab_size

    def test_numpy_rng_matches_support(self, model):
        class MidRng:
            def random(self):
                return 0.5

        tok = model.sample_token([], MidRng())
        assert model.logprobs([])[tok] > -np.inf


class TestPrefixCacheDifferential:
    """The 14-combo grid, cache-on vs cache-off, over the transformer.

    Incremental K/V decoding may differ from the full re-forward in the
    last ulp (BLAS reassociation over different matmul shapes), but every
    traversal decision is a comparison (argmax / top-k threshold / heap
    order), so the *match sets* must be bit-identical — same texts, same
    token paths, same traversal statistics — with log-probabilities equal
    to 1e-9.
    """

    @pytest.fixture(scope="class")
    def tmodels(self, tokenizer):
        """Two same-weight transformers: full-forward vs incremental.

        Briefly trained on the tiny corpus so corpus continuations land
        inside small top-k sets — combos like ``shortest_topk`` would
        otherwise have empty languages under a near-uniform model.
        Training runs once and the weights are copied, so both models
        score with literally the same parameters.
        """
        from tests.conftest import TINY_CORPUS

        from repro.lm.transformer import TransformerConfig, TransformerModel

        config = TransformerConfig(
            vocab_size=len(tokenizer), block_size=32,
            n_layer=2, n_head=2, n_embd=32,
        )
        off = TransformerModel(config, eos_id=tokenizer.eos_id, seed=42,
                               kv_cache_mb=None)
        off.fit([tokenizer.encode(line) for line in TINY_CORPUS[:50]],
                steps=60, batch_size=8, seed=42)
        on = TransformerModel(config, eos_id=tokenizer.eos_id, seed=42,
                              kv_cache_mb=16.0)
        on.params = {k: v.copy() for k, v in off.params.items()}
        return off, on

    @pytest.mark.parametrize(
        "name,source,query", COMBOS, ids=[c[0] for c in COMBOS]
    )
    def test_match_sets_identical(self, tokenizer, tmodels, name, source, query):
        off, on = tmodels
        prefix_before = on.prefix_cache.stats()
        got_off, stats_off = _run(off, tokenizer, query, limit=60)
        got_on, stats_on = _run(on, tokenizer, query, limit=60)
        assert len(got_off) == len(got_on)
        assert len(got_off) > 0, f"combo {name} produced no matches"
        for a, b in zip(got_off, got_on):
            assert a.text == b.text
            assert a.tokens == b.tokens
            assert a.canonical == b.canonical
            assert a.total_logprob == pytest.approx(b.total_logprob, abs=1e-9)
            assert a.logprob == pytest.approx(b.logprob, abs=1e-9)
        assert stats_off.pruned_edges == stats_on.pruned_edges
        assert stats_off.lm_calls == stats_on.lm_calls
        assert stats_off.failed_attempts == stats_on.failed_attempts
        # The cache-off model has no prefix cache to touch; the cache-on
        # run's traffic shows on the model's cache, which owns the counters.
        assert off.prefix_cache is None
        prefix_after = on.prefix_cache.stats()
        assert (
            prefix_after["hits"] + prefix_after["misses"]
            > prefix_before["hits"] + prefix_before["misses"]
        )

    def test_scheduler_matches_with_cache_on(self, tokenizer, tmodels):
        """Coalesced rounds over a shared prefix cache produce the same
        per-query streams as cache-off scheduling."""
        from repro.core.scheduler import QueryScheduler

        off, on = tmodels
        queries = [
            SearchQuery("The ((cat)|(dog)|(man)|(woman))", seed=0),
            SearchQuery("The ((cat)|(dog)) ((sat)|(ate))", seed=1),
            SearchQuery("The ((man)|(woman)) was trained in ((art)|(medicine))",
                        top_k=25, seed=2),
        ]
        results = {}
        before = on.prefix_cache.stats()
        for label, model in (("off", off), ("on", on)):
            scheduler = QueryScheduler(model, tokenizer, concurrency=3)
            handles = [scheduler.submit(q) for q in queries]
            scheduler.run()
            results[label] = handles
        for a, b in zip(results["off"], results["on"]):
            assert [m.text for m in a.results] == [m.text for m in b.results]
            assert [m.tokens for m in a.results] == [m.tokens for m in b.results]
            for x, y in zip(a.results, b.results):
                assert x.total_logprob == pytest.approx(y.total_logprob, abs=1e-9)
        assert off.prefix_cache is None
        after = on.prefix_cache.stats()
        hits = after["hits"] - before["hits"]
        misses = after["misses"] - before["misses"]
        assert hits > 0
        # Frontier children are parents + one token: reuse dominates.
        assert hits / (hits + misses) > 0.5
        assert after["bytes"] > 0

    def test_kv_knobs_through_prepare(self, tokenizer, tmodels):
        """The KV knobs live on the model, and so do the cache's counters:
        a session over it shows up in ``model.prefix_cache.stats()`` (and
        nowhere once the model's cache is detached)."""
        _, on = tmodels
        on.enable_prefix_cache(4 << 20)
        session = prepare(on, tokenizer,
                          SearchQuery("The ((cat)|(dog))", seed=3))
        assert on.prefix_cache.max_bytes == 4 << 20
        list(session)
        stats = on.prefix_cache.stats()
        assert stats["hits"] + stats["misses"] > 0
        assert stats["bytes"] > 0
        on.disable_prefix_cache()
        session = prepare(on, tokenizer,
                          SearchQuery("The ((cat)|(dog))", seed=3))
        assert on.prefix_cache is None
        assert list(session)
        on.enable_prefix_cache(16 << 20)  # restore for other tests


class TestMinimizationDifferential:
    """The 14-combo grid: minimized (what the compiler always produces) vs
    a hand-built unminimized compilation.

    Token-automaton minimization merges states and the interval lowering
    changes how rows are stored, but the canonical (sorted) edge order
    makes both invisible to every traversal: the same matches, in the
    same order, with bit-identical log-probabilities and identical
    traversal statistics, on both expansion paths.  The unminimized side is built by hand from the
    compiler's public stage functions (:func:`tests.reference.compile_unminimized`).
    """

    @pytest.mark.parametrize("path", ["arrays", "dict"])
    @pytest.mark.parametrize(
        "name,source,query", COMBOS, ids=[c[0] for c in COMBOS]
    )
    def test_minimize_on_off_bit_identical(
        self, model, tokenizer, env, name, source, query, path
    ):
        m, tok = _world(source, model, tokenizer, env)
        got_off, session_off = _run_session(
            m, tok, query, path, compiler=unminimized_compiler(tok, query)
        )
        got_on, session_on = _run_session(m, tok, query, path)
        stats_off, stats_on = session_off.stats, session_on.stats
        shape_off, shape_on = session_off.compiled.metrics, session_on.compiled.metrics
        assert len(got_off) == len(got_on)
        assert len(got_off) > 0, f"combo {name} produced no matches"
        for a, b in zip(got_off, got_on):
            assert a.text == b.text
            assert a.tokens == b.tokens
            # Bit-identical, not approximately equal: minimization merges
            # states but every surviving row is the sorted union the
            # unminimized machine already had, so all scores are the same
            # floats in the same order.
            assert a.total_logprob == b.total_logprob
            assert a.logprob == b.logprob
            assert a.canonical == b.canonical
        assert stats_off.lm_calls == stats_on.lm_calls
        assert stats_off.tokens_scored == stats_on.tokens_scored
        assert stats_off.failed_attempts == stats_on.failed_attempts
        assert shape_on.minimized_states <= shape_on.token_states
        # The hand-built side really is the unminimized machine.
        assert shape_off.minimized_states == shape_off.token_states == shape_on.token_states


class TestCliCacheCounters:
    def test_query_stats_include_cache_lines(self, capsys):
        from repro.cli import main

        code = main(["query", "The ((cat)|(dog))", "--max-matches", "2"])
        assert code == 0
        err = capsys.readouterr().err
        assert "logits" in err
        assert "compilation" in err

    def test_kv_cache_flags_accepted(self, capsys):
        from repro.cli import main

        code = main([
            "query", "The ((cat)|(dog))", "--max-matches", "2",
            "--no-kv-cache",
        ])
        assert code == 0
        code = main([
            "query", "The ((cat)|(dog))", "--max-matches", "2",
            "--kv-cache-mb", "8",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "The cat" in out or "The dog" in out

    def test_multi_pattern_engages_scheduler(self, capsys):
        from repro.cli import main

        code = main([
            "query", "The ((cat)|(dog))", "The ((man)|(woman))",
            "--max-matches", "2", "--concurrency", "2",
        ])
        assert code == 0
        captured = capsys.readouterr()
        assert "== The ((cat)|(dog))" in captured.out
        assert "== The ((man)|(woman))" in captured.out
        assert "scheduler: rounds=" in captured.err
        assert "lm_calls=" in captured.err
