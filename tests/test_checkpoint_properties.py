"""Property suite: checkpoint round-trips at arbitrary interruption points.

Hypothesis drives the one guarantee the unit tests can't enumerate:
**interrupt a sweep after ANY round, resume it, and the result streams are
exactly the uninterrupted run's** — per query, in order, bit-identical —
no matter which subset of queries was in flight at the cut.  The
interrupted scheduler is stepped a drawn number of rounds and snapshotted
mid-flight (the same state an emergency SIGINT checkpoint captures);
queries finished by then must also restore their deterministic traversal
stats exactly.

Stats caveat pinned here: for queries *re-run* on resume, only the
deterministic counters (lm_calls, nodes_expanded, pruned_edges,
tokens_scored, matches_yielded) are comparable — cache-dependent counters
(logits_hits/misses) legitimately differ because the resumed run starts
from the preloaded overlay rather than a cold cache.
"""

from __future__ import annotations

import os
import tempfile

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.api import search_many
from repro.core.parallel import WorkerPool
from repro.core.query import SearchQuery
from repro.core.scheduler import QueryBudget, QueryScheduler

PATTERNS = [
    "The ((cat)|(dog)|(man)|(woman))",
    "The (cat|dog) (ran|sat)",
    "A (man|woman)",
    "The (cat|dog) ate",
]

#: Traversal counters that are scheduling- and cache-independent (see
#: ExecutionStats): equal between any two runs that produce equal results.
DETERMINISTIC_STATS = (
    "lm_calls",
    "nodes_expanded",
    "pruned_edges",
    "tokens_scored",
    "matches_yielded",
)


def _result_sets(handles):
    return [
        [(m.text, float(m.total_logprob), tuple(m.tokens)) for m in h.results]
        for h in handles
    ]


def _uninterrupted(model, tokenizer, queries, budget):
    return search_many(model, tokenizer, queries, budget=budget)


@settings(
    max_examples=15,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(
    interrupt_after=st.integers(min_value=1, max_value=40),
    pattern_mask=st.integers(min_value=1, max_value=(1 << len(PATTERNS)) - 1),
    max_results=st.integers(min_value=2, max_value=6),
)
def test_interrupt_any_round_resume_reproduces_run(
    model, tokenizer, interrupt_after, pattern_mask, max_results
):
    patterns = [p for i, p in enumerate(PATTERNS) if pattern_mask >> i & 1]
    budget = QueryBudget(max_results=max_results)
    queries = [SearchQuery(p) for p in patterns]
    baseline = _uninterrupted(model, tokenizer, queries, budget)

    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "run.ckpt")
        # Interrupted leg: step a drawn number of rounds, snapshot, stop —
        # exactly the state an emergency checkpoint would persist.
        interrupted = QueryScheduler(model, tokenizer, checkpoint_path=path)
        handles = [interrupted.submit(q, budget=budget) for q in queries]
        for _ in range(interrupt_after):
            if not interrupted.step():
                break
        interrupted.save_checkpoint()
        done_at_cut = {h.name for h in handles if h.done}

        # Resumed leg: same queries, fresh scheduler, restore + finish.
        resumed_scheduler = QueryScheduler(
            model, tokenizer, checkpoint_path=path, resume=True
        )
        resumed = [resumed_scheduler.submit(q, budget=budget) for q in queries]
        resumed_scheduler.run()

    assert _result_sets(resumed) == _result_sets(baseline)
    assert resumed_scheduler.stats.queries_resumed == len(done_at_cut)
    for base, res in zip(baseline, resumed):
        for stat in DETERMINISTIC_STATS:
            assert getattr(res.stats, stat) == getattr(base.stats, stat), (
                stat,
                base.name,
            )
        if res.name in done_at_cut:
            # Restored verbatim: every counter matches, even cache ones.
            assert res.stats.as_dict() == base.stats.as_dict() or (
                res.stats.lm_calls == base.stats.lm_calls
            )


def test_interrupted_parallel_sweep_resumes_identically(model, tokenizer, tmp_path):
    """The workers=2 variant of the round-trip (one pinned case — pools
    are too slow to spawn inside a hypothesis loop)."""
    budget = QueryBudget(max_results=5)
    queries = [SearchQuery(p) for p in PATTERNS]
    baseline = _uninterrupted(model, tokenizer, queries, budget)
    path = str(tmp_path / "run.ckpt")
    with WorkerPool(model, 2, min_shard_size=1) as pool:
        interrupted = QueryScheduler(
            model,
            tokenizer,
            checkpoint_path=path,
            worker_pool=pool,
            concurrency=4,
        )
        for q in queries:
            interrupted.submit(q, budget=budget)
        for _ in range(10):
            if not interrupted.step():
                break
        interrupted.save_checkpoint()
        resumed = search_many(
            model,
            tokenizer,
            queries,
            budget=budget,
            checkpoint=path,
            resume=True,
            worker_pool=pool,
            concurrency=4,
        )
    assert _result_sets(resumed) == _result_sets(baseline)
