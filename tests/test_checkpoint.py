"""Unit tests for checkpoint serialization and scheduler resume.

:mod:`repro.core.checkpoint` mechanics — atomic writes, version guards,
fingerprint matching — plus the :class:`QueryScheduler` integration:
cadence, cache dump/preload budgets, restoring completed queries, and the
CLI flags.  The full interrupt-at-a-random-round property lives in
``test_checkpoint_properties.py``; the SIGINT path in ``test_faults.py``.
"""

from __future__ import annotations

import os
import pickle

import numpy as np
import pytest

from repro.core.api import search_many
from repro.core.checkpoint import (
    CHECKPOINT_VERSION,
    QuerySnapshot,
    RunCheckpoint,
    load_checkpoint,
    query_fingerprint,
    save_checkpoint,
)
from repro.core.query import SearchQuery
from repro.core.scheduler import QueryBudget, QueryScheduler
from repro.lm.base import LogitsCache

WIDE = "The ((cat)|(dog)|(man)|(woman))"
PATTERNS = [WIDE, "The (cat|dog) (ran|sat)", "A (man|woman)"]


def _result_sets(handles):
    return [
        [(m.text, float(m.total_logprob), tuple(m.tokens)) for m in h.results]
        for h in handles
    ]


class TestSerialization:
    def test_round_trip(self, tmp_path):
        path = str(tmp_path / "run.ckpt")
        ckpt = RunCheckpoint(
            rounds_completed=7,
            queries=[
                QuerySnapshot(
                    name="q0", fingerprint="ab" * 8, done=True, latency=1.25
                )
            ],
            cache_rows=[((1, 2), np.arange(4.0))],
        )
        save_checkpoint(path, ckpt)
        loaded = load_checkpoint(path)
        assert loaded.rounds_completed == 7
        assert loaded.queries[0].name == "q0" and loaded.queries[0].done
        key, row = loaded.cache_rows[0]
        assert key == (1, 2) and np.array_equal(row, np.arange(4.0))

    def test_write_is_atomic_no_temp_residue(self, tmp_path):
        path = str(tmp_path / "run.ckpt")
        save_checkpoint(path, RunCheckpoint())
        save_checkpoint(path, RunCheckpoint(rounds_completed=1))  # overwrite
        assert load_checkpoint(path).rounds_completed == 1
        assert os.listdir(tmp_path) == ["run.ckpt"]  # no .ckpt-*.tmp left

    def test_rejects_non_checkpoint_pickle(self, tmp_path):
        path = str(tmp_path / "bogus.ckpt")
        with open(path, "wb") as fh:
            pickle.dump({"not": "a checkpoint"}, fh)
        with pytest.raises(ValueError, match="not a scheduler checkpoint"):
            load_checkpoint(path)

    def test_rejects_version_mismatch(self, tmp_path):
        path = str(tmp_path / "old.ckpt")
        stale = RunCheckpoint(version=CHECKPOINT_VERSION + 1)
        save_checkpoint(path, stale)
        with pytest.raises(ValueError, match="version"):
            load_checkpoint(path)

    def test_fingerprint_tracks_query_content(self):
        a = SearchQuery(WIDE)
        b = SearchQuery(WIDE)
        c = SearchQuery(WIDE, seed=7)
        assert query_fingerprint(a) == query_fingerprint(b)
        assert query_fingerprint(a) != query_fingerprint(c)
        assert len(query_fingerprint(a)) == 16


class TestCacheDumpPreload:
    def test_dump_unbounded_then_preload_is_lossless(self, model):
        cache = LogitsCache(model, capacity=64)
        ctxs = [[1, 2, i] for i in range(10)]
        cache.logprobs_batch(ctxs)
        rows = cache.dump_rows()
        assert len(rows) == 10
        restored = LogitsCache(model, capacity=64)
        restored.preload(rows)
        assert restored.hits == 0 and restored.misses == 0
        before = (restored.hits, restored.misses)
        restored.logprobs_batch(ctxs)
        assert restored.hits == before[0] + 10  # everything served hot

    def test_dump_budget_keeps_newest(self, model):
        cache = LogitsCache(model, capacity=64)
        cache.logprobs_batch([[1, 2, i] for i in range(10)])
        row_bytes = next(iter(cache._store.values())).nbytes
        rows = cache.dump_rows(max_bytes=3 * row_bytes)
        assert len(rows) == 3
        # Newest three, oldest-first: contexts 7, 8, 9.
        assert [key[-1] for key, _ in rows] == [7, 8, 9]

    def test_dump_tiny_budget_still_yields_one_row(self, model):
        cache = LogitsCache(model, capacity=64)
        cache.logprobs_batch([[1, 2, 3]])
        assert len(cache.dump_rows(max_bytes=1)) == 1


class TestSchedulerCheckpointing:
    def test_cadence_counts_writes(self, model, tokenizer, tmp_path):
        path = str(tmp_path / "run.ckpt")
        scheduler = QueryScheduler(
            model, tokenizer, checkpoint_path=path, checkpoint_every=4
        )
        for p in PATTERNS:
            scheduler.submit(SearchQuery(p), budget=QueryBudget(max_results=4))
        scheduler.run()
        # one write per 4 completed rounds, plus the final flush.
        expected = scheduler.stats.rounds // 4 + 1
        assert scheduler.stats.checkpoints_written in (expected, expected + 1)
        assert os.path.exists(path)

    def test_resume_requires_path(self, model, tokenizer):
        with pytest.raises(ValueError, match="requires a checkpoint_path"):
            QueryScheduler(model, tokenizer, resume=True)

    def test_bad_cadence_rejected(self, model, tokenizer):
        with pytest.raises(ValueError, match="checkpoint_every"):
            QueryScheduler(
                model, tokenizer, checkpoint_path="x.ckpt", checkpoint_every=0
            )

    def test_resume_with_missing_file_is_fresh_run(self, model, tokenizer, tmp_path):
        path = str(tmp_path / "never-written.ckpt")
        handles = search_many(
            model,
            tokenizer,
            [SearchQuery(p) for p in PATTERNS],
            budget=QueryBudget(max_results=4),
            checkpoint=path,
            resume=True,
        )
        assert all(h.done for h in handles)
        assert os.path.exists(path)  # the fresh run then checkpoints itself

    def test_resumed_queries_restore_results_stats_latency(
        self, model, tokenizer, tmp_path
    ):
        budget = QueryBudget(max_results=4)
        clean = search_many(
            model, tokenizer, [SearchQuery(p) for p in PATTERNS], budget=budget
        )
        path = str(tmp_path / "run.ckpt")
        search_many(
            model,
            tokenizer,
            [SearchQuery(p) for p in PATTERNS],
            budget=budget,
            checkpoint=path,
        )
        resumed = search_many(
            model,
            tokenizer,
            [SearchQuery(p) for p in PATTERNS],
            budget=budget,
            checkpoint=path,
            resume=True,
        )
        assert _result_sets(resumed) == _result_sets(clean)
        for c, r in zip(clean, resumed):
            # Restored from snapshot: deterministic traversal stats match
            # the original run exactly, and zero new LM work was issued.
            assert r.stats.lm_calls == c.stats.lm_calls
            assert r.stats.matches_yielded == c.stats.matches_yielded
            assert r.latency is not None

    def test_fully_resumed_run_issues_no_model_rounds(self, tokenizer, model, tmp_path):
        from repro.lm.base import CountingModel

        budget = QueryBudget(max_results=4)
        path = str(tmp_path / "run.ckpt")
        queries = [SearchQuery(p) for p in PATTERNS]
        search_many(model, tokenizer, queries, budget=budget, checkpoint=path)
        counter = CountingModel(model)
        scheduler = QueryScheduler(
            counter, tokenizer, checkpoint_path=path, resume=True
        )
        for q in queries:
            scheduler.submit(q, budget=budget)
        scheduler.run()
        assert scheduler.stats.queries_resumed == len(PATTERNS)
        assert counter.batch_rounds == 0 and counter.single_calls == 0

    def test_resumes_a_checkpoint_carrying_since_removed_stats_fields(
        self, model, tokenizer, tmp_path
    ):
        """Checkpoints written before the mirrored stats fields were
        deleted carry extra per-query keys and a ``scheduler_stats``
        payload; both are ignored and the sweep resumes identically."""
        budget = QueryBudget(max_results=4)
        path = str(tmp_path / "run.ckpt")
        queries = [SearchQuery(p) for p in PATTERNS]
        clean = search_many(model, tokenizer, queries, budget=budget, checkpoint=path)
        old = load_checkpoint(path)
        for snap in old.queries:
            snap.stats.update(workers=2, prefix_hits=7, compilation_cache_hits=1, compile_ms=3.5)
        old.scheduler_stats = {"rounds": old.rounds_completed, "workers": 2}
        save_checkpoint(path, old)
        resumed = search_many(
            model, tokenizer, queries, budget=budget, checkpoint=path, resume=True
        )
        assert _result_sets(resumed) == _result_sets(clean)
        for c, r in zip(clean, resumed):
            assert r.stats.as_dict() == c.stats.as_dict()
            assert not hasattr(r.stats, "prefix_hits")

    def test_unrecognized_queries_run_fresh_alongside_resumed(
        self, model, tokenizer, tmp_path
    ):
        budget = QueryBudget(max_results=4)
        path = str(tmp_path / "run.ckpt")
        search_many(
            model,
            tokenizer,
            [SearchQuery(WIDE)],
            budget=budget,
            checkpoint=path,
        )
        extended = search_many(
            model,
            tokenizer,
            [SearchQuery(WIDE), SearchQuery("A (man|woman)")],
            budget=budget,
            checkpoint=path,
            resume=True,
        )
        assert all(h.done for h in extended)
        assert len(extended[1].results) > 0


class TestCLI:
    def test_resume_without_checkpoint_errors(self, capsys):
        from repro.cli import main

        rc = main(["query", WIDE, "--resume", "--scale", "test"])
        assert rc == 2
        assert "--resume requires --checkpoint" in capsys.readouterr().err

    def test_checkpoint_flags_roundtrip(self, tmp_path, capsys):
        from repro.cli import main

        path = str(tmp_path / "cli.ckpt")
        args = [
            "query",
            WIDE,
            "--scale",
            "test",
            "--max-matches",
            "4",
            "--checkpoint",
            path,
            "--checkpoint-every",
            "8",
        ]
        assert main(args) == 0
        first = capsys.readouterr()
        assert os.path.exists(path)
        assert "# checkpoint:" in first.err
        assert main(args + ["--resume"]) == 0
        second = capsys.readouterr()
        assert "resumed=1" in second.err
        assert first.out == second.out

    def test_inject_fault_flag_builds_plan(self, capsys):
        from repro.cli import main

        rc = main(
            [
                "query",
                WIDE,
                "--scale",
                "test",
                "--max-matches",
                "3",
                "--workers",
                "2",
                "--inject-fault",
                "error:0:0",
                "--max-retries",
                "1",
            ]
        )
        assert rc == 0
        # Rounds are tiny at concurrency 1, so the pool may never shard —
        # the flag contract here is parse + clean completion either way.
        assert "matches" in capsys.readouterr().err
