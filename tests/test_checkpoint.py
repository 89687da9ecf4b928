"""Unit tests for checkpoint serialization and scheduler resume.

:mod:`repro.core.checkpoint` mechanics — atomic writes, version guards,
fingerprint matching — plus the :class:`QueryScheduler` integration:
cadence, cache dump/preload budgets, restoring completed queries, the
CLI flags, and the deferred-SIGINT path: an interrupt mid-sweep finishes
the round in flight, checkpoints, raises ``KeyboardInterrupt``, and the
resumed run reproduces the uninterrupted results — in-process and, end to
end, in a subprocess interrupted by a real SIGINT.  The full
interrupt-at-a-random-round property lives in
``test_checkpoint_properties.py``.
"""

from __future__ import annotations

import os
import pickle
import signal
import subprocess
import sys
import time

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


SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")


class _InterruptingScheduler(QueryScheduler):
    """Delivers a real SIGINT to this process after N completed rounds —
    deterministic, unlike a timer, because the signal fires inside
    :meth:`_round` and run()'s deferred handler sees it at the next
    round boundary."""

    def __init__(self, *args, interrupt_after: int = 3, **kwargs):
        super().__init__(*args, **kwargs)
        self._interrupt_after = interrupt_after

    def _round(self, chosen):
        super()._round(chosen)
        if self.stats.rounds == self._interrupt_after:
            os.kill(os.getpid(), signal.SIGINT)


class TestInterruptAndResume:
    def test_sigint_checkpoints_and_resumes(self, model, tokenizer, tmp_path):
        """Interrupt mid-sweep -> the round in flight finishes, a
        checkpoint is on disk, ``KeyboardInterrupt`` reaches the caller;
        resuming reproduces the uninterrupted sweep bit-identically."""
        budget = QueryBudget(max_results=6)
        clean = search_many(
            model, tokenizer, [SearchQuery(p) for p in PATTERNS], budget=budget
        )
        path = str(tmp_path / "sweep.ckpt")
        scheduler = _InterruptingScheduler(
            model, tokenizer, concurrency=3, checkpoint_path=path, interrupt_after=3
        )
        for p in PATTERNS:
            scheduler.submit(SearchQuery(p), budget=budget)
        with pytest.raises(KeyboardInterrupt):
            scheduler.run()
        assert scheduler.stats.rounds == 3
        assert os.path.exists(path)
        assert scheduler.stats.checkpoints_written >= 1
        resumed = search_many(
            model,
            tokenizer,
            [SearchQuery(p) for p in PATTERNS],
            budget=budget,
            checkpoint=path,
            resume=True,
        )
        assert _result_sets(resumed) == _result_sets(clean)

    def test_interrupt_without_checkpoint_still_cleans_up(self, model, tokenizer):
        """Without a checkpoint path the interrupt still stops the sweep at
        the round boundary and puts the caller's SIGINT handler back."""
        before = signal.getsignal(signal.SIGINT)
        scheduler = _InterruptingScheduler(
            model, tokenizer, concurrency=3, interrupt_after=2
        )
        for p in PATTERNS:
            scheduler.submit(SearchQuery(p), budget=QueryBudget(max_results=6))
        with pytest.raises(KeyboardInterrupt):
            scheduler.run()
        assert scheduler.stats.rounds == 2
        assert scheduler.stats.checkpoints_written == 0
        assert any(not sq.done for sq in scheduler.queries)
        assert signal.getsignal(signal.SIGINT) is before


_DRIVER = """\
import sys
import time

sys.path.insert(0, {src!r})

from repro.core.api import search_many
from repro.core.query import SearchQuery
from repro.core.scheduler import QueryBudget
from repro.lm.base import LanguageModel
from tests.conftest import build_model, build_tokenizer  # noqa: E402


class SlowModel(LanguageModel):
    # Sleeps before every model call, stretching the sweep so the parent's
    # SIGINT lands mid-run.  A proxy holding the real model as ``.inner``
    # keys and widens rounds as that model does, so streams are unchanged.

    def __init__(self, inner, seconds):
        self.inner = inner
        self.seconds = seconds
        self.vocab_size = inner.vocab_size
        self.eos_id = inner.eos_id
        self.max_sequence_length = inner.max_sequence_length

    def logprobs(self, context):
        return self.logprobs_batch([context])[0]

    def logprobs_batch(self, contexts):
        time.sleep(self.seconds)
        return self.inner.logprobs_batch(contexts)


mode, ckpt = sys.argv[1], sys.argv[2]
tokenizer = build_tokenizer()
model = SlowModel(build_model(tokenizer), 0.05)
patterns = {patterns!r}
kwargs = dict(budget=QueryBudget(max_results=6), concurrency=3)
if mode != "clean":
    kwargs.update(checkpoint=ckpt, checkpoint_every=2, resume=(mode == "resume"))
try:
    handles = search_many(
        model, tokenizer, [SearchQuery(p) for p in patterns], **kwargs
    )
except KeyboardInterrupt:
    sys.exit(130)
for handle in handles:
    for m in handle.results:
        print(f"{{handle.name}}\\t{{m.total_logprob!r}}\\t{{m.text}}")
"""


class TestEndToEndInterrupt:
    """The acceptance scenario: a ``search_many`` sweep in a subprocess is
    SIGINTed mid-run; resuming from the checkpoint must reproduce the
    uninterrupted run's sorted result set byte-for-byte."""

    def _run(self, script, mode, ckpt, timeout=300):
        env = dict(os.environ)
        env["PYTHONPATH"] = SRC + os.pathsep + os.path.dirname(SRC)
        return subprocess.run(
            [sys.executable, script, mode, ckpt],
            capture_output=True,
            text=True,
            timeout=timeout,
            env=env,
            cwd=os.path.dirname(SRC),
        )

    def test_sigint_then_resume_is_byte_identical(self, tmp_path):
        script = str(tmp_path / "driver.py")
        ckpt = str(tmp_path / "sweep.ckpt")
        with open(script, "w") as fh:
            fh.write(_DRIVER.format(src=SRC, patterns=PATTERNS))
        env = dict(os.environ)
        env["PYTHONPATH"] = SRC + os.pathsep + os.path.dirname(SRC)

        clean = self._run(script, "clean", ckpt)
        assert clean.returncode == 0, clean.stderr

        proc = subprocess.Popen(
            [sys.executable, script, "interrupted", ckpt],
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            text=True,
            env=env,
            cwd=os.path.dirname(SRC),
        )
        try:
            deadline = time.monotonic() + 240.0
            while not os.path.exists(ckpt) and time.monotonic() < deadline:
                if proc.poll() is not None:
                    break
                time.sleep(0.02)
            assert os.path.exists(ckpt), "sweep never wrote a checkpoint"
            if proc.poll() is None:
                proc.send_signal(signal.SIGINT)
            _, err = proc.communicate(timeout=120)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.communicate()
        # 130 = interrupted mid-run (the designed scenario); 0 means the
        # sweep finished before SIGINT landed — resume still must work.
        assert proc.returncode in (130, 0), err

        resumed = self._run(script, "resume", ckpt)
        assert resumed.returncode == 0, resumed.stderr
        assert sorted(resumed.stdout.splitlines()) == sorted(clean.stdout.splitlines())
        assert clean.stdout.strip(), "clean run produced no matches"
