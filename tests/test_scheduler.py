"""The multi-query scheduler: coalescing, budgets, cancellation, rotation.

The heavyweight guarantee — serial equivalence at concurrency 1 for every
seeded backend combo — lives in ``test_backend_differential.py``; random
multi-query mixes live in ``test_scheduler_properties.py``.  This module
pins the rest of the contract:

* budgets (deadline, LM-call cap, result cap) are honoured at round
  boundaries, yield partial results, and set ``truncated``;
* a cancelled query never issues another LM call;
* :meth:`LogitsCache.logprobs_round` dedupes contexts colliding across a
  coalesced round down to one model dispatch, with exact per-query
  hit/miss attribution;
* the acceptance bar: 8 templated knowledge queries at ``--concurrency 8``
  issue at most 0.35x the model ``logprobs_batch`` rounds of 8 serial
  runs, with bit-identical per-query results;
* duplicate, respelled and subsumed queries cost the model nothing extra:
  the shared logits cache scores each context once, so the scheduler
  plans nothing across queries;
* who joins a capped round rotates round-robin;
* a round is for misses: a fully cached request is answered inline, under
  the same budgets, without starving peers and without stranding a query
  that is ready but not waiting.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import scheduler as scheduler_module
from repro.core.api import prepare, search_many
from repro.core.query import SearchQuery
from repro.core.scheduler import QueryBudget, QueryScheduler
from repro.lm.base import CountingModel, LanguageModel, LogitsCache
from repro.regex.parser import RegexSyntaxError

WIDE = "The ((cat)|(dog)|(man)|(woman))"


class FakeClock:
    """A manually-advanced monotonic clock for deterministic deadlines."""

    def __init__(self) -> None:
        self.now = 0.0

    def __call__(self) -> float:
        return self.now

    def advance(self, dt: float) -> None:
        self.now += dt


class SlowModel(LanguageModel):
    """Wraps a model so every LM dispatch costs *cost* fake seconds."""

    def __init__(self, inner: LanguageModel, clock: FakeClock, cost: float = 1.0) -> None:
        self.inner = inner
        self.clock = clock
        self.cost = cost
        self.vocab_size = inner.vocab_size
        self.eos_id = inner.eos_id
        self.max_sequence_length = inner.max_sequence_length
        self.batch_calls = 0

    def logprobs(self, context):
        self.clock.advance(self.cost)
        return self.inner.logprobs(context)

    def logprobs_batch(self, contexts):
        self.batch_calls += 1
        self.clock.advance(self.cost)
        return self.inner.logprobs_batch(contexts)


def _serial_matches(model, tokenizer, query, limit=200, **kwargs):
    matches = []
    for match in prepare(model, tokenizer, query, **kwargs):
        matches.append(match)
        if len(matches) >= limit:
            break
    return matches


class TestBudgets:
    def test_deadline_truncates_within_one_round(self, model, tokenizer):
        clock = FakeClock()
        slow = SlowModel(model, clock, cost=1.0)
        deep = "The ((man)|(woman)) was trained in ((art)|(medicine)|(engineering)|(computer science))"
        scheduler = QueryScheduler(slow, tokenizer, clock=clock)
        handle = scheduler.submit(
            SearchQuery(deep), budget=QueryBudget(deadline=2.5)
        )
        scheduler.run()
        assert handle.done and handle.truncated
        assert handle.truncated_reason == "deadline"
        # Budgets are checked at round boundaries: the overrun is bounded
        # by the cost of the single round in flight when the deadline hit.
        assert clock.now <= 2.5 + slow.cost
        assert handle.latency == clock.now
        # Partial results are a prefix of the serial stream.
        serial = _serial_matches(model, tokenizer, SearchQuery(deep))
        assert len(handle.results) < len(serial)
        for got, want in zip(handle.results, serial):
            assert got.text == want.text
            assert got.total_logprob == want.total_logprob

    def test_deadline_does_not_starve_peers(self, model, tokenizer):
        clock = FakeClock()
        slow = SlowModel(model, clock, cost=1.0)
        scheduler = QueryScheduler(slow, tokenizer, clock=clock)
        capped = scheduler.submit(
            SearchQuery(WIDE, seed=1), budget=QueryBudget(deadline=1.5)
        )
        free = scheduler.submit(SearchQuery(WIDE, seed=2))
        scheduler.run()
        assert capped.truncated and capped.truncated_reason == "deadline"
        assert free.done and not free.truncated
        serial = _serial_matches(model, tokenizer, SearchQuery(WIDE, seed=2))
        assert [m.text for m in free.results] == [m.text for m in serial]

    def test_max_lm_calls_is_never_exceeded(self, model, tokenizer):
        scheduler = QueryScheduler(model, tokenizer)
        handle = scheduler.submit(
            SearchQuery(WIDE), budget=QueryBudget(max_lm_calls=5)
        )
        scheduler.run()
        assert handle.truncated and handle.truncated_reason == "max_lm_calls"
        # The cap is a hard ceiling: a round that would cross it is not
        # issued at all (not issued-then-regretted).
        assert handle.stats.lm_calls <= 5

    def test_max_results_truncates_mid_advance(self, model, tokenizer):
        scheduler = QueryScheduler(model, tokenizer)
        handle = scheduler.submit(
            SearchQuery(WIDE), budget=QueryBudget(max_results=2)
        )
        scheduler.run()
        assert len(handle.results) == 2
        assert handle.truncated and handle.truncated_reason == "max_results"
        serial = _serial_matches(model, tokenizer, SearchQuery(WIDE), limit=2)
        assert [m.text for m in handle.results] == [m.text for m in serial]

    def test_unbudgeted_query_runs_to_completion(self, model, tokenizer):
        scheduler = QueryScheduler(model, tokenizer)
        handle = scheduler.submit(SearchQuery(WIDE))
        scheduler.run()
        assert handle.done and not handle.truncated
        assert handle.truncated_reason is None
        assert scheduler.stats.queries_completed == 1


class TestCancellation:
    def test_cancelled_query_issues_no_further_lm_calls(self, model, tokenizer):
        counting = CountingModel(model)
        scheduler = QueryScheduler(counting, tokenizer, record_history=True)
        victim = scheduler.submit(SearchQuery(WIDE, seed=1), name="victim")
        peer = scheduler.submit(SearchQuery(WIDE, seed=2), name="peer")
        assert scheduler.step()  # both queries join at least one round
        victim.cancel()
        calls_at_cancel = victim.stats.lm_calls
        results_at_cancel = len(victim.results)
        scheduler.run()
        assert victim.done and victim.truncated
        assert victim.truncated_reason == "cancelled"
        # Frozen exactly where it was cancelled: no later round included it.
        assert victim.stats.lm_calls == calls_at_cancel
        assert len(victim.results) == results_at_cancel
        assert all(names == ("peer",) for names in scheduler.stats.round_members[1:])
        assert peer.done and not peer.truncated
        assert scheduler.stats.queries_cancelled == 1

    def test_cancel_before_first_round(self, model, tokenizer):
        counting = CountingModel(model)
        scheduler = QueryScheduler(counting, tokenizer)
        handle = scheduler.submit(SearchQuery(WIDE))
        handle.cancel()
        scheduler.run()
        assert handle.done and handle.truncated_reason == "cancelled"
        assert handle.stats.lm_calls == 0
        assert counting.total_rounds == 0


class TestCoalescedRoundDedupe:
    """Regression: contexts colliding *across queries* within one coalesced
    round must be scored once, not once per requester."""

    def test_cross_group_collision_is_one_model_dispatch(self, model):
        counting = CountingModel(model)
        cache = LogitsCache(counting)
        groups = [[(1, 2), (3,)], [(1, 2), (4,)], [(3,), (1, 2)]]
        rows, hits, misses = cache.logprobs_round(groups)
        # (1,2) is requested by all three groups and (3,) by two, but the
        # round scores only the three unique contexts, in one dispatch.
        assert counting.batch_rounds == 1
        assert counting.contexts_scored == 3
        # First requester is charged the miss; later occurrences are hits.
        assert misses == [2, 1, 0]
        assert hits == [0, 1, 2]
        assert np.array_equal(rows[0][0], rows[1][0])
        assert np.array_equal(rows[0][0], rows[2][1])
        assert np.array_equal(rows[0][0], model.logprobs((1, 2)))

    def test_warm_round_issues_no_dispatch(self, model):
        counting = CountingModel(model)
        cache = LogitsCache(counting)
        cache.logprobs_round([[(1, 2)], [(3,)]])
        counting.reset()
        rows, hits, misses = cache.logprobs_round([[(1, 2)], [(3,)]])
        assert counting.total_rounds == 0
        assert hits == [1, 1] and misses == [0, 0]

    def test_within_batch_duplicates_deduped(self, model):
        counting = CountingModel(model)
        cache = LogitsCache(counting)
        rows = cache.logprobs_batch([(1, 2), (1, 2), (3,)])
        assert counting.batch_rounds == 1
        assert counting.contexts_scored == 2  # (1,2) scored once
        assert len(rows) == 3
        assert np.array_equal(rows[0], rows[1])

    def test_eviction_mid_round_keeps_rows_available(self, model):
        counting = CountingModel(model)
        cache = LogitsCache(counting, capacity=1)
        groups = [[(1,), (2,), (3,)], [(1,), (2,)]]
        rows, hits, misses = cache.logprobs_round(groups)
        # Capacity 1 evicts (1,) and (2,) before group 1 reads them, but
        # the round overlay still serves the scores it already paid for.
        assert counting.batch_rounds == 1
        assert counting.contexts_scored == 3
        assert misses == [3, 0]
        assert hits == [0, 2]
        assert np.array_equal(rows[0][0], rows[1][0])

    def test_precached_key_evicted_mid_round_served_from_snapshot(self, model):
        # Regression: a key cached *before* the round is not in the missing
        # set, so if this round's inserts LRU-evict it before it is read,
        # only the detection-pass snapshot can serve it (this used to raise
        # KeyError in the overlay, also breaking logprobs_batch).
        counting = CountingModel(model)
        cache = LogitsCache(counting, capacity=4)
        cache.logprobs((99,))
        counting.reset()
        rows, hits, misses = cache.logprobs_round(
            [[(0,), (1,), (2,), (3,), (4,), (5,), (99,)]]
        )
        # Only the six uncached contexts are scored; the pre-cached (99,) is
        # served from the snapshot and counts as a hit.
        assert counting.batch_rounds == 1
        assert counting.contexts_scored == 6
        assert misses == [6] and hits == [1]
        assert np.array_equal(rows[0][-1], model.logprobs((99,)))


class TestKnowledgeAcceptance:
    """The PR's acceptance bar: 8 templated knowledge queries at
    concurrency 8 issue <= 0.35x the model rounds of 8 serial runs, with
    per-query results bit-identical to serial execution."""

    TOP_N = 5

    def _queries(self):
        from repro.experiments.knowledge import (
            FACTS,
            birthdate_query,
            knowledge_world,
            month_query,
        )

        world = knowledge_world()
        # Two templated shapes per subject: the full Figure 1c date query
        # and a month-only variant — 4 subjects x 2 shapes = 8 queries.
        queries = [birthdate_query(subject) for subject, _ in FACTS]
        queries += [month_query(subject) for subject, _ in FACTS]
        return world, queries

    def test_coalesced_rounds_below_035x_serial(self):
        world, queries = self._queries()
        assert len(queries) == 8
        counting = CountingModel(world.model("xl"))

        serial_results = []
        for query in queries:
            # Fresh caches per serial run: each query pays its own rounds.
            serial_results.append(
                _serial_matches(
                    counting, world.tokenizer, query,
                    limit=self.TOP_N, compiler=world.compiler,
                )
            )
        serial_rounds = counting.batch_rounds
        assert serial_rounds > 0

        counting.reset()
        scheduler = QueryScheduler(counting, world.tokenizer,
                                   compiler=world.compiler, concurrency=8)
        handles = [
            scheduler.submit(q, budget=QueryBudget(max_results=self.TOP_N))
            for q in queries
        ]
        scheduler.run()
        coalesced_rounds = counting.batch_rounds

        ratio = coalesced_rounds / serial_rounds
        assert ratio <= 0.35, (coalesced_rounds, serial_rounds)
        # Bit-identical per-query results, not just "same matches".
        for handle, serial in zip(handles, serial_results):
            assert len(handle.results) == len(serial)
            for got, want in zip(handle.results, serial):
                assert got.text == want.text
                assert got.tokens == want.tokens
                assert got.logprob == want.logprob
                assert got.total_logprob == want.total_logprob

    def test_structured_query_batch_matches_single(self):
        from repro.experiments.knowledge import (
            FACTS,
            knowledge_world,
            structured_query,
            structured_query_batch,
        )

        world = knowledge_world()
        subjects = tuple(subject for subject, _ in FACTS[:2])
        batched = structured_query_batch(world, subjects, top_n=3)
        for subject in subjects:
            assert batched[subject] == structured_query(world, subject, top_n=3)


class TestDuplicateQueries:
    """Why the scheduler plans nothing across queries: a duplicate (or
    respelled, or subsumed) query only asks for contexts its twin also asks
    for, and the shared logits cache scores each context once — so running
    a portfolio twice over costs the model exactly what running it once
    does.  The assertions read the model's own counters: ``stats.rounds``
    also counts the all-hit rounds a parked duplicate joins."""

    #: An exact duplicate pair, a respelling (language-equal), a strict
    #: subset, a superset of all of them, and an unrelated pattern.
    SPECS = [
        ("dup-a", "The ((cat)|(dog))"),
        ("dup-b", "The ((cat)|(dog))"),
        ("respelled", "The ((dog)|(cat))"),
        ("sub", "The cat"),
        ("wide", WIDE),
        ("other", "My phone number"),
    ]

    @staticmethod
    def _query(pattern):
        return SearchQuery(pattern, sequence_length=8)

    def _run(self, counting, tokenizer, copies, concurrency, cache=None):
        scheduler = QueryScheduler(
            counting, tokenizer, concurrency=concurrency, logits_cache=cache
        )
        handles = [
            (pattern, scheduler.submit(self._query(pattern), name=f"{name}/{copy}"))
            for copy in range(copies)
            for name, pattern in self.SPECS
        ]
        scheduler.run()
        return scheduler, handles

    @pytest.mark.parametrize("concurrency", [1, 12])
    def test_doubling_the_portfolio_costs_the_model_nothing(
        self, model, tokenizer, concurrency
    ):
        # ``MatchResult`` equality is field-wise: tokens, text, both
        # log-probabilities, ``canonical`` and ``prefix_text``.
        serial = {
            pattern: list(prepare(model, tokenizer, self._query(pattern)))
            for _, pattern in self.SPECS
        }
        traffic = {}
        for copies in (1, 2):
            counting = CountingModel(model)  # cold: a private cache per run
            _, handles = self._run(counting, tokenizer, copies, concurrency)
            for pattern, handle in handles:
                assert handle.done and not handle.truncated
                assert handle.results == serial[pattern]
            traffic[copies] = (counting.contexts_scored, counting.batch_rounds)
        assert traffic[1][0] > 0
        assert traffic[2][0] == traffic[1][0]
        assert traffic[2][1] <= traffic[1][1]

    def test_second_pass_over_the_same_cache_runs_no_round(self, model, tokenizer):
        counting = CountingModel(model)
        cache = LogitsCache(counting, capacity=65536)
        _, cold = self._run(counting, tokenizer, 2, 12, cache=cache)
        counting.reset()
        scheduler, warm = self._run(counting, tokenizer, 2, 12, cache=cache)
        assert scheduler.stats.rounds == 0
        assert counting.contexts_scored == 0 and counting.total_rounds == 0
        for (_, before), (_, after) in zip(cold, warm):
            assert after.results == before.results


class TestFairness:
    def test_round_robin_rotates_at_concurrency_one(self, model, tokenizer):
        scheduler = QueryScheduler(model, tokenizer, concurrency=1, record_history=True)
        for name in ("a", "b", "c"):
            scheduler.submit(SearchQuery(WIDE, seed=ord(name)), name=name)
        scheduler.run()
        members = [names[0] for names in scheduler.stats.round_members]
        # While all three are runnable, service strictly rotates.
        assert members[:6] == ["a", "b", "c", "a", "b", "c"]
        assert all(len(names) == 1 for names in scheduler.stats.round_members)


#: Thousands of encodings behind four strings: with ``max_expansions`` it
#: is a query that needs ~2 500 contexts and yields its matches early.
LONG = "The ((man)|(woman)) was trained in ((art)|(medicine))"
LONG_EXPANSIONS = 3000


class TickingClock:
    """A clock that advances one second every time it is read."""

    def __init__(self) -> None:
        self.now = 0.0

    def __call__(self) -> float:
        self.now += 1.0
        return self.now


class TestInlineAnswers:
    """Fully cached requests are answered inline: a warm query runs no
    round, and the budget, cancel, hand-back and drive-loop contracts hold
    for inline answers exactly as they do for rounds."""

    PORTFOLIO = [
        (SearchQuery(WIDE), {}),
        (SearchQuery(LONG), {"max_expansions": 300}),
        (SearchQuery("The ((cat)|(dog))", prefix="The "), {}),
    ]

    @pytest.fixture()
    def warm(self, model):
        """A counting model and a cache holding every context the
        portfolio and the long query need."""
        counting = CountingModel(model)
        cache = LogitsCache(counting, capacity=65536)
        return counting, cache

    def _warm_up(self, counting, cache, tokenizer, submissions):
        scheduler = QueryScheduler(counting, tokenizer, logits_cache=cache)
        handles = [scheduler.submit(q, **kw) for q, kw in submissions]
        scheduler.run()
        assert scheduler.stats.rounds > 0
        counting.reset()
        return handles

    def test_warm_max_lm_calls_truncates_like_cold(self, model, tokenizer, warm):
        counting, cache = warm
        self._warm_up(counting, cache, tokenizer, [(SearchQuery(WIDE), {})])
        budget = QueryBudget(max_lm_calls=5)
        cold_scheduler = QueryScheduler(model, tokenizer)
        cold = cold_scheduler.submit(SearchQuery(WIDE), budget=budget)
        cold_scheduler.run()
        scheduler = QueryScheduler(counting, tokenizer, logits_cache=cache)
        handle = scheduler.submit(SearchQuery(WIDE), budget=budget)
        scheduler.run()
        assert scheduler.stats.rounds == 0 and counting.total_rounds == 0
        assert handle.truncated and handle.truncated_reason == "max_lm_calls"
        assert handle.stats.lm_calls == cold.stats.lm_calls <= 5
        assert handle.results == cold.results

    def test_warm_deadline_truncates(self, model, tokenizer, warm):
        counting, cache = warm
        full = self._warm_up(counting, cache, tokenizer, [(SearchQuery(WIDE), {})])[0]
        scheduler = QueryScheduler(
            counting, tokenizer, logits_cache=cache, clock=TickingClock()
        )
        handle = scheduler.submit(SearchQuery(WIDE), budget=QueryBudget(deadline=10.0))
        scheduler.run()
        assert scheduler.stats.rounds == 0 and counting.total_rounds == 0
        assert handle.truncated and handle.truncated_reason == "deadline"
        # One clock read per inline answer: the deadline stops it mid-way.
        assert 0 < handle.stats.lm_calls < full.stats.lm_calls
        assert handle.results == full.results[: len(handle.results)]

    def test_cancel_between_steps_stops_within_a_quantum(self, tokenizer, warm):
        counting, cache = warm
        long = (SearchQuery(LONG), {"max_expansions": LONG_EXPANSIONS})
        self._warm_up(counting, cache, tokenizer, [long])
        scheduler = QueryScheduler(counting, tokenizer, logits_cache=cache)
        handle = scheduler.submit(long[0], **long[1])
        assert scheduler.step() and not handle.done
        handle.cancel()
        calls_at_cancel = handle.stats.lm_calls
        assert scheduler.step() is False
        assert handle.done and handle.truncated_reason == "cancelled"
        assert handle.stats.lm_calls == calls_at_cancel
        assert scheduler.stats.queries_cancelled == 1
        assert scheduler.stats.rounds == 0 and counting.total_rounds == 0

    def test_long_warm_query_is_handed_back_every_quantum(self, tokenizer, warm):
        counting, cache = warm
        long = (SearchQuery(LONG), {"max_expansions": LONG_EXPANSIONS})
        short = (SearchQuery(WIDE), {})
        self._warm_up(counting, cache, tokenizer, [long, short])
        scheduler = QueryScheduler(counting, tokenizer, logits_cache=cache)
        handles = [scheduler.submit(q, **kw) for q, kw in (long, short)]

        def progress(handle):
            return handle.stats.lm_calls, len(handle.results), handle.done

        steps = []
        more = True
        while more:
            before = [progress(h) for h in handles]
            running = [not h.done for h in handles]
            more = scheduler.step()
            after = [progress(h) for h in handles]
            # Every query that could run did advance in this turn.
            assert [a != b for a, b in zip(after, before)] == running
            steps.append(after[0][0] - before[0][0])
        assert scheduler.stats.rounds == 0 and counting.total_rounds == 0
        assert handles[0].stats.lm_calls > 2000
        assert max(steps) == scheduler_module._INLINE_QUANTUM
        # The short query finished while the long one still had work left.
        assert handles[1].stats.lm_calls < sum(steps[: len(steps) // 2])

    @pytest.mark.parametrize("workers", [None, 2], ids=["plain", "pool"])
    def test_ready_queries_are_never_stranded(self, model, tokenizer, warm, workers):
        """Over warm caches nobody is ever *waiting*, so ``run()`` must
        keep going for queries that are merely ready — with and without a
        worker pool attached."""
        from repro.core.parallel import WorkerPool

        counting, cache = warm
        self._warm_up(counting, cache, tokenizer, self.PORTFOLIO)
        serial = [
            _serial_matches(model, tokenizer, q, **kw) for q, kw in self.PORTFOLIO
        ]
        pool = WorkerPool(counting, workers, min_shard_size=1) if workers else None
        try:
            scheduler = QueryScheduler(
                counting, tokenizer, logits_cache=cache, worker_pool=pool
            )
            handles = [scheduler.submit(q, **kw) for q, kw in self.PORTFOLIO]
            scheduler.run()
            dispatched = pool.stats()["shards_dispatched"] if pool else 0
        finally:
            if pool is not None:
                pool.shutdown()
        assert all(h.done and not h.truncated for h in handles)
        assert [h.results for h in handles] == serial
        assert scheduler.stats.rounds == 0
        assert counting.total_rounds == 0 and dispatched == 0

    def test_executor_run_attribution_on_a_shared_cache(
        self, model, tokenizer, monkeypatch
    ):
        """``Executor.run`` takes the probe first; per-session hits and
        misses and the cache's own counters are what the round path alone
        charges."""
        queries = [SearchQuery(WIDE), SearchQuery(WIDE, top_k=5), SearchQuery(LONG)]

        def run_all():
            cache = LogitsCache(model, capacity=65536)
            stats = []
            for query in queries:
                session = prepare(
                    model, tokenizer, query, logits_cache=cache, max_expansions=200
                )
                list(session)
                stats.append(
                    (session.stats.lm_calls, session.stats.logits_hits,
                     session.stats.logits_misses)
                )
            return stats, (cache.hits, cache.misses, list(cache._store))

        with_probe = run_all()
        monkeypatch.setattr(LogitsCache, "cached_rows", lambda self, contexts: None)
        rounds_only = run_all()
        assert with_probe == rounds_only
        (_, _, cold_misses), (calls, hits, misses), (_, long_hits, _) = with_probe[0]
        assert cold_misses > 0 and (hits, misses) == (calls, 0) and long_hits > 0


class TestCompileErrors:
    """A query that does not compile never strands the sweep."""

    BAD = "The ((cat"
    GOOD = ["The ((cat)|(dog))", "The ((man)|(woman))"]

    def test_eager_submit_raises_with_nothing_registered(self, model, tokenizer):
        scheduler = QueryScheduler(model, tokenizer)
        good = scheduler.submit(SearchQuery(self.GOOD[0]))
        with pytest.raises(RegexSyntaxError):
            scheduler.submit(SearchQuery(self.BAD), name="bad")
        assert scheduler.queries == [good]
        assert scheduler.stats.queries_submitted == 1
        assert scheduler.run() == [good]
        assert good.done and not good.truncated
        assert scheduler.stats.queries_completed == 1
        assert scheduler.step() is False
        # The failed submit did not even reserve its name.
        assert scheduler.submit(SearchQuery(self.GOOD[1]), name="bad").name == "bad"


class TestSchedulerSurface:
    def test_constructor_validation(self, model, tokenizer, env):
        with pytest.raises(ValueError, match="concurrency"):
            QueryScheduler(model, tokenizer, concurrency=0)
        with pytest.raises(ValueError, match="checkpoint_every"):
            QueryScheduler(model, tokenizer, checkpoint_every=0)
        with pytest.raises(ValueError, match="model"):
            QueryScheduler(
                model, tokenizer, logits_cache=LogitsCache(env.model("small"))
            )

    def test_scheduler_stats_as_dict(self, model, tokenizer):
        scheduler = QueryScheduler(model, tokenizer, record_history=True)
        scheduler.submit(SearchQuery("The ((cat)|(dog))"))
        scheduler.run()
        stats = scheduler.stats.as_dict()
        assert stats["rounds"] == len(scheduler.stats.round_sizes)
        assert stats["queries_submitted"] == 1
        assert stats["queries_completed"] == 1
        assert stats["mean_round_size"] > 0
        assert set(stats["per_query_latency"]) == {"q0"}

    def test_history_recording_is_off_by_default(self, model, tokenizer):
        # A long-lived scheduler must not retain every match (merged) or a
        # per-round log forever; aggregates still report round shape.
        scheduler = QueryScheduler(model, tokenizer)
        scheduler.submit(SearchQuery(WIDE))
        scheduler.run()
        assert scheduler.merged == []
        assert scheduler.stats.round_sizes == []
        assert scheduler.stats.round_members == []
        assert scheduler.stats.rounds > 0
        assert scheduler.stats.mean_round_size > 0
        assert scheduler.stats.max_round_size > 0

    def test_duplicate_names_get_distinct_latency_entries(self, model, tokenizer):
        scheduler = QueryScheduler(model, tokenizer)
        first = scheduler.submit(SearchQuery(WIDE, seed=1), name="dup")
        second = scheduler.submit(SearchQuery(WIDE, seed=2), name="dup")
        scheduler.run()
        assert first.name == "dup" and second.name != "dup"
        assert len(scheduler.stats.per_query_latency) == 2
        assert scheduler.stats.per_query_latency[second.name] == second.latency

    def test_submit_records_compile_source(self, model, tokenizer):
        scheduler = QueryScheduler(model, tokenizer)
        first = scheduler.submit(SearchQuery("The cat"))
        second = scheduler.submit(SearchQuery("The cat"))
        assert first.compiled.metrics.source == "cold"
        assert second.compiled.metrics.source == "memory"
        assert scheduler.compiler.cache.stats()["hits"] == 1

    def test_search_many_api(self, model, tokenizer):
        queries = [SearchQuery(WIDE, seed=i) for i in range(2)]
        handles = search_many(
            model, tokenizer, queries,
            budget=QueryBudget(max_results=3), concurrency=2,
        )
        assert [h.name for h in handles] == ["q0", "q1"]
        for handle, query in zip(handles, queries):
            serial = _serial_matches(model, tokenizer, query, limit=3)
            assert [m.text for m in handle.results] == [m.text for m in serial]

    def test_merged_stream_is_permutation_of_per_query(self, model, tokenizer):
        scheduler = QueryScheduler(model, tokenizer, concurrency=2, record_history=True)
        handles = [
            scheduler.submit(SearchQuery(WIDE, seed=i), name=f"q{i}")
            for i in range(3)
        ]
        scheduler.run()
        per_query = {
            h.name: [m for n, m in scheduler.merged if n == h.name]
            for h in handles
        }
        for h in handles:
            assert per_query[h.name] == h.results
        assert len(scheduler.merged) == sum(len(h.results) for h in handles)
