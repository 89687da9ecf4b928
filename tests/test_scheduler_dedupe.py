"""Differential tests for scheduler dedupe/subsume planning.

The contract (the PR's acceptance gate): on a query set seeded with exact
duplicates and strict-subset pairs, ``dedupe=True`` must return
**bit-identical per-query results** to a plain ``dedupe=False`` run while
issuing **strictly fewer LM calls** (``SchedulerStats.contexts_serviced``)
— on the vectorized expansion path and on the scalar reference (see
:mod:`tests.reference`), each compared to the *reference's* plain run, and
workers ∈ {1, 2}.  Safety rails ride
along: a truncated canonical releases its mirrors to run normally, an
exhausted analysis budget disables planning without ever changing
results, and unseeded random-sampling queries are never mirrored.
"""

from __future__ import annotations

import pytest

from repro.core.analyze_set import QuerySetAnalyzer
from repro.core.query import QuerySearchStrategy, SearchQuery
from repro.core.scheduler import QueryBudget, QueryScheduler
from tests.reference import expansion_path

#: Seeded set: an exact duplicate pair (mirrorable), a respelled
#: equivalent (RLM007 fires, but mirroring demands *exact* query equality
#: so it must run or be subsumed — never copied), a strict subset, a
#: superset-of-everything, and an unrelated pattern.  Every query pins
#: ``sequence_length`` so shortest-path enumeration is bounded.
SPECS = [
    ("dup-a", "The ((cat)|(dog))"),
    ("dup-b", "The ((cat)|(dog))"),
    ("respelled", "The ((dog)|(cat))"),
    ("sub", "The cat"),
    ("wide", "The ((cat)|(dog)|(man)|(woman))"),
    ("other", "My phone number"),
]

_SEQ_LEN = 8


def _queries():
    return [(name, SearchQuery(pattern, sequence_length=_SEQ_LEN)) for name, pattern in SPECS]


def _match_key(m):
    return (m.tokens, m.text, m.logprob, m.total_logprob, m.canonical, m.prefix_text)


def _run(model, tokenizer, *, pool=None, path="arrays", **sched_kwargs):
    with expansion_path(path):
        scheduler = QueryScheduler(model, tokenizer, worker_pool=pool, **sched_kwargs)
        handles = {name: scheduler.submit(q, name=name) for name, q in _queries()}
        scheduler.run()
    results = {
        name: [_match_key(m) for m in handle.results] for name, handle in handles.items()
    }
    flags = {name: (handle.done, handle.truncated) for name, handle in handles.items()}
    return results, flags, scheduler.stats


@pytest.fixture(scope="module")
def pool(model):
    from repro.core.parallel import WorkerPool

    pool = WorkerPool(model, 2, min_shard_size=1)
    yield pool
    pool.shutdown()


@pytest.fixture(scope="module")
def baseline(model, tokenizer):
    """One plain run per expansion path (workers don't change the stream
    — the parallel grid in test_backend_differential pins that
    separately).  The scalar reference's results are *the* expected
    results; the vectorized plain run must already agree with them."""
    runs = {path: _run(model, tokenizer, path=path) for path in ("arrays", "dict")}
    assert runs["arrays"][:2] == runs["dict"][:2]
    return runs


class TestDedupeDifferential:
    @pytest.mark.parametrize("path", ["arrays", "dict"])
    @pytest.mark.parametrize("workers", [1, 2])
    def test_bit_identical_with_fewer_lm_calls(
        self, model, tokenizer, pool, baseline, path, workers
    ):
        base_results, base_flags, _ = baseline["dict"]
        base_stats = baseline[path][2]
        results, flags, stats = _run(
            model,
            tokenizer,
            path=path,
            pool=pool if workers == 2 else None,
            dedupe=True,
            subsume=True,
        )
        assert results == base_results
        assert flags == base_flags
        assert all(done and not truncated for done, truncated in flags.values())
        # Strictly fewer LM calls: the mirrored duplicate and the filtered
        # subset never issue their own rounds.
        assert stats.contexts_serviced < base_stats.contexts_serviced
        assert stats.queries_deduped == 1
        assert stats.per_query_dedupe == {"dup-b": "dup-a"}
        assert stats.queries_subsumed >= 1
        assert "sub" in stats.per_query_subsumed
        # The respelling was answered (identically) but never by mirroring.
        assert "respelled" not in stats.per_query_dedupe
        assert stats.set_analysis_ms > 0
        assert stats.queries_completed == len(SPECS)

    def test_dedupe_without_subsume(self, model, tokenizer, baseline):
        base_results, _, base_stats = baseline["arrays"]
        results, _, stats = _run(model, tokenizer, dedupe=True)
        assert results == base_results
        assert stats.queries_deduped == 1
        assert stats.queries_subsumed == 0
        assert stats.contexts_serviced < base_stats.contexts_serviced


class TestSafetyRails:
    def test_truncated_canonical_releases_mirror(self, model, tokenizer):
        # Both copies carry the same 1-result cap (mirroring requires equal
        # budgets); the canonical truncates, so the mirror must fall back
        # to running itself rather than inheriting a partial stream.
        def run(dedupe):
            scheduler = QueryScheduler(model, tokenizer, dedupe=dedupe)
            budget = QueryBudget(max_results=1)
            a = scheduler.submit(
                SearchQuery("The ((cat)|(dog))", sequence_length=_SEQ_LEN),
                name="a",
                budget=budget,
            )
            b = scheduler.submit(
                SearchQuery("The ((cat)|(dog))", sequence_length=_SEQ_LEN),
                name="b",
                budget=budget,
            )
            scheduler.run()
            return a, b, scheduler.stats

        base_a, base_b, _ = run(dedupe=False)
        a, b, stats = run(dedupe=True)
        assert [_match_key(m) for m in a.results] == [_match_key(m) for m in base_a.results]
        assert [_match_key(m) for m in b.results] == [_match_key(m) for m in base_b.results]
        assert a.truncated and b.truncated
        # The canonical's truncation voided the copy: no dedupe counted.
        assert stats.queries_deduped == 0

    def test_exhausted_analysis_budget_never_wrong(self, model, tokenizer, baseline):
        base_results, base_flags, _ = baseline["arrays"]
        results, flags, stats = _run(
            model,
            tokenizer,
            dedupe=True,
            subsume=True,
            set_analyzer=QuerySetAnalyzer(state_budget=1),
        )
        assert results == base_results
        assert flags == base_flags
        assert stats.queries_deduped == 0
        assert stats.queries_subsumed == 0

    def test_unseeded_random_sampling_never_mirrored(self, model, tokenizer):
        def submit_pair(scheduler, seed):
            kwargs = dict(
                strategy=QuerySearchStrategy.RANDOM_SAMPLING,
                sequence_length=_SEQ_LEN,
                num_samples=3,
                seed=seed,
            )
            scheduler.submit(SearchQuery("The ((cat)|(dog))", **kwargs), name="r1")
            scheduler.submit(SearchQuery("The ((cat)|(dog))", **kwargs), name="r2")

        unseeded = QueryScheduler(model, tokenizer, dedupe=True)
        submit_pair(unseeded, seed=None)
        unseeded.run()
        assert unseeded.stats.queries_deduped == 0

        seeded = QueryScheduler(model, tokenizer, dedupe=True)
        submit_pair(seeded, seed=7)
        handles = seeded.run()
        assert seeded.stats.queries_deduped == 1
        streams = [[_match_key(m) for m in h.results] for h in handles]
        assert streams[0] == streams[1]

    @pytest.mark.parametrize("planning", ["dedupe", "subsume"])
    def test_query_submitted_after_planning_is_scheduled(
        self, model, tokenizer, baseline, planning
    ):
        """Regression: admission ranks are assigned once, when planning
        runs before the first round; a query submitted after that had no
        rank and the capped round-robin selection raised ``KeyError``.
        A late submission keeps its submit index as its position."""
        base_results = baseline["arrays"][0]
        scheduler = QueryScheduler(model, tokenizer, concurrency=2, **{planning: True})
        queries = _queries()
        handles = {name: scheduler.submit(q, name=name) for name, q in queries[:4]}
        assert scheduler.step()  # plans, then services the first capped round
        for name, q in queries[4:]:
            handles[name] = scheduler.submit(q, name=name)
        scheduler.run()
        assert all(h.done and not h.truncated for h in handles.values())
        results = {n: [_match_key(m) for m in h.results] for n, h in handles.items()}
        assert results == base_results
