"""Chaos suite: fault injection, worker supervision, interrupt + resume.

The contract under test is the resilience layer's core promise: **failures
change wall-clock, never results**.  Every test drives a fault plan
(:mod:`repro.core.faults`) through the supervised :class:`WorkerPool` or
the :class:`QueryScheduler` and asserts the output is bit-identical to the
no-fault serial run.

* fault matrix — {crash, hang, slow} × {first shard, last shard,
  every-Nth round} × workers {2, 4}, at the pool level;
* worker-error recovery and the degraded in-process fallback;
* scheduler sweeps under injected crashes;
* deferred SIGINT: an interrupt mid-sweep checkpoints, unlinks every
  pooled shared-memory segment, raises ``KeyboardInterrupt``, and the
  resumed run reproduces the uninterrupted results;
* the acceptance scenario, end-to-end in a subprocess: one worker
  SIGKILLed by a fault, then the parent SIGINTed, then ``resume`` — the
  sorted result set must be byte-identical to an uninterrupted run.
"""

from __future__ import annotations

import os
import signal
import subprocess
import sys
import time

import numpy as np
import pytest

from repro.core.api import search_many
from repro.core.faults import FaultPlan, FaultSpec, InjectedFault
from repro.core.parallel import WorkerPool
from repro.core.query import SearchQuery
from repro.core.scheduler import QueryBudget, QueryScheduler

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")


def _contexts(n, depth=3, vocab=300):
    return [[(7 * i + 3 * t) % (vocab - 1) + 1 for t in range(depth)] for i in range(n)]


def _match_key(m):
    return (m.text, float(m.total_logprob), tuple(m.tokens))


def _result_sets(handles):
    return [[_match_key(m) for m in h.results] for h in handles]


class TestFaultSpec:
    def test_rejects_unknown_kind(self):
        with pytest.raises(ValueError, match="unknown fault kind"):
            FaultSpec("explode")

    def test_parse_forms(self):
        spec = FaultSpec.parse("crash:1:0")
        assert (spec.kind, spec.round_index, spec.shard) == ("crash", 1, 0)
        spec = FaultSpec.parse("slow:*/2:-1:0.25")
        assert (spec.kind, spec.every, spec.shard, spec.seconds) == ("slow", 2, -1, 0.25)
        spec = FaultSpec.parse("hang:*:0")
        assert spec.round_index is None and spec.every is None
        with pytest.raises(ValueError, match="KIND:ROUND:SHARD"):
            FaultSpec.parse("crash:1")

    def test_matching_rules(self):
        first = FaultSpec("error", round_index=2, shard=0)
        assert first.matches(2, 0, 4, attempt=0)
        assert not first.matches(3, 0, 4, attempt=0)
        assert not first.matches(2, 0, 4, attempt=1)  # retry runs clean
        last = FaultSpec("error", every=3, shard=-1)
        assert last.matches(0, 3, 4, attempt=0)
        assert last.matches(3, 1, 2, attempt=0)
        assert not last.matches(1, 3, 4, attempt=0)

    def test_plan_first_match_wins(self):
        plan = FaultPlan.of(
            FaultSpec("crash", round_index=0, shard=0),
            FaultSpec("error", every=1, shard=0),
        )
        assert plan.directive(0, 0, 2, 0).kind == "crash"
        assert plan.directive(1, 0, 2, 0).kind == "error"
        assert plan.directive(1, 1, 2, 0) is None

    def test_error_fault_raises_injected(self):
        with pytest.raises(InjectedFault):
            FaultSpec("error").execute()


# One spec template per matrix axis value; ``seconds`` only matters for
# hang (sleeps past the deadline) and slow (returns late but in time).
_KIND_ARGS = {
    "crash": {},
    "hang": {"seconds": 30.0},
    "slow": {"seconds": 0.15},
}
_PLACEMENTS = {
    "first_shard": {"round_index": 1, "shard": 0},
    "last_shard": {"round_index": 1, "shard": -1},
    "every_2nd_round": {"every": 2, "shard": 0},
}


class TestFaultMatrix:
    """{crash, hang, slow} × {first, last, every-Nth} × workers {2, 4}:
    every combination recovers and stays bit-identical to serial."""

    @pytest.mark.parametrize("workers", [2, 4])
    @pytest.mark.parametrize("placement", sorted(_PLACEMENTS))
    @pytest.mark.parametrize("kind", sorted(_KIND_ARGS))
    def test_rows_identical_under_fault(self, model, kind, placement, workers):
        ctxs = _contexts(12, vocab=model.vocab_size)
        serial = model.logprobs_batch(ctxs)
        plan = FaultPlan.of(FaultSpec(kind, **_KIND_ARGS[kind], **_PLACEMENTS[placement]))
        with WorkerPool(
            model,
            workers,
            min_shard_size=1,
            backoff_base=0.01,
            # A deadline is only needed to detect the hang; crash is caught
            # by process death and slow simply returns.  Arming it for the
            # other kinds makes the test timing-sensitive on loaded
            # machines (a busy respawn can miss the deadline and degrade —
            # correct behavior, but not what this matrix pins).
            shard_timeout=2.0 if kind == "hang" else None,
            fault_plan=plan,
        ) as pool:
            for round_index in range(4):
                rows = pool.logprobs_batch(ctxs)
                for a, b in zip(serial, rows):
                    assert np.array_equal(a, b), (kind, placement, workers, round_index)
            assert pool.faults_injected >= 1
            # hang and crash kill the delivery -> the supervisor must have
            # respawned; slow just returns late and needs no recovery.
            if kind in ("crash", "hang"):
                assert pool.respawns >= 1 and pool.retries >= 1
            if kind == "crash":
                # No deadline in play: the one injected crash is retried
                # deterministically and must succeed without degrading.
                assert pool.degraded_shards == 0
            if kind == "slow":
                assert pool.respawns == 0 and pool.retries == 0

    def test_worker_error_recovers(self, model):
        """An in-worker exception (clean "error" message, process alive)
        is retried like a crash and stays bit-identical."""
        ctxs = _contexts(10, vocab=model.vocab_size)
        serial = model.logprobs_batch(ctxs)
        plan = FaultPlan.of(FaultSpec("error", round_index=0, shard=0))
        with WorkerPool(
            model, 2, min_shard_size=1, backoff_base=0.01, fault_plan=plan
        ) as pool:
            rows = pool.logprobs_batch(ctxs)
            assert all(np.array_equal(a, b) for a, b in zip(serial, rows))
            assert pool.retries >= 1

    def test_persistent_crash_degrades_to_in_process(self, model):
        """A shard whose every delivery crashes exhausts ``max_retries``
        and is evaluated in-process — slow, never wrong."""
        ctxs = _contexts(8, vocab=model.vocab_size)
        serial = model.logprobs_batch(ctxs)
        plan = FaultPlan.of(
            FaultSpec("crash", round_index=0, shard=0, attempts=tuple(range(8)))
        )
        with WorkerPool(
            model, 2, min_shard_size=1, max_retries=2, backoff_base=0.01, fault_plan=plan
        ) as pool:
            rows = pool.logprobs_batch(ctxs)
            assert all(np.array_equal(a, b) for a, b in zip(serial, rows))
            assert pool.degraded_shards == 1 and pool.degraded_rounds == 1
            assert pool.respawns >= 3  # every failed delivery respawned
            # The pool is NOT broken: the next round runs normally.
            rows = pool.logprobs_batch(ctxs)
            assert all(np.array_equal(a, b) for a, b in zip(serial, rows))

    def test_stale_late_answer_discarded(self, model):
        """A worker that answers *after* blowing the deadline must not
        poison the retried shard (its message is stale and dropped)."""
        ctxs = _contexts(8, vocab=model.vocab_size)
        serial = model.logprobs_batch(ctxs)
        plan = FaultPlan.of(FaultSpec("slow", round_index=0, shard=0, seconds=1.0))
        with WorkerPool(
            model,
            2,
            min_shard_size=1,
            backoff_base=0.01,
            shard_timeout=0.3,
            fault_plan=plan,
        ) as pool:
            for _ in range(3):
                rows = pool.logprobs_batch(ctxs)
                assert all(np.array_equal(a, b) for a, b in zip(serial, rows))
            assert pool.retries >= 1


WIDE = "The ((cat)|(dog)|(man)|(woman))"
PATTERNS = [WIDE, "The (cat|dog) (ran|sat)", "A (man|woman)"]


class TestSchedulerUnderFaults:
    """search_many sweeps with injected failures match fault-free serial
    sweeps exactly."""

    @pytest.fixture(scope="class")
    def serial(self, model, tokenizer):
        handles = search_many(
            model,
            tokenizer,
            [SearchQuery(p) for p in PATTERNS],
            budget=QueryBudget(max_results=6),
        )
        return _result_sets(handles)

    @pytest.mark.parametrize(
        "plan",
        [
            FaultPlan.of(FaultSpec("crash", round_index=0, shard=0)),
            FaultPlan.of(FaultSpec("error", every=2, shard=-1)),
            FaultPlan.of(
                FaultSpec("crash", round_index=0, shard=0, attempts=(0, 1, 2, 3))
            ),
        ],
        ids=["crash_once", "error_every_2nd", "crash_until_degraded"],
    )
    def test_sweep_identical_under_faults(self, model, tokenizer, serial, plan):
        with WorkerPool(
            model, 2, min_shard_size=1, backoff_base=0.01, fault_plan=plan
        ) as pool:
            handles = search_many(
                model,
                tokenizer,
                [SearchQuery(p) for p in PATTERNS],
                budget=QueryBudget(max_results=6),
                concurrency=3,
                worker_pool=pool,
            )
        assert _result_sets(handles) == serial

    def test_supervision_counters_surface_in_stats(self, model, tokenizer):
        plan = FaultPlan.of(FaultSpec("crash", round_index=0, shard=0))
        with WorkerPool(
            model, 2, min_shard_size=1, backoff_base=0.01, fault_plan=plan
        ) as pool:
            scheduler = QueryScheduler(model, tokenizer, concurrency=3, worker_pool=pool)
            for p in PATTERNS:
                scheduler.submit(SearchQuery(p), budget=QueryBudget(max_results=4))
            scheduler.run()
            stats = pool.stats()
            assert stats["retries"] >= 1
            assert stats["respawns"] >= 1
            assert stats["degraded_rounds"] == 0
            assert stats["faults_injected"] == 1


class _InterruptingScheduler(QueryScheduler):
    """Delivers a real SIGINT to this process after N completed rounds —
    deterministic, unlike a timer, because the signal fires inside
    :meth:`_round` and run()'s deferred handler sees it at the next
    round boundary.  ``segment_names`` records the pool's shared-memory
    segments alive at that moment (a shut-down pool forgets its names)."""

    def __init__(self, *args, interrupt_after: int = 3, **kwargs):
        super().__init__(*args, **kwargs)
        self._interrupt_after = interrupt_after
        self.segment_names: list[str] = []

    def _round(self, chosen):
        super()._round(chosen)
        if self.stats.rounds == self._interrupt_after:
            self.segment_names = self._pool.segment_names()
            os.kill(os.getpid(), signal.SIGINT)


class TestInterruptAndResume:
    def test_sigint_checkpoints_releases_segments_and_resumes(
        self, model, tokenizer, tmp_path
    ):
        """The SIGINT-leak fix and the resume contract in one scenario:
        interrupt mid-sweep -> KeyboardInterrupt raised through the
        caller's ``with WorkerPool`` block, checkpoint on disk, zero leaked
        shared-memory segments; resuming reproduces the uninterrupted
        sweep bit-identically."""
        from tests.test_parallel import _segment_exists

        budget = QueryBudget(max_results=6)
        clean = search_many(
            model, tokenizer, [SearchQuery(p) for p in PATTERNS], budget=budget
        )
        path = str(tmp_path / "sweep.ckpt")
        with pytest.raises(KeyboardInterrupt):
            with WorkerPool(model, 2, min_shard_size=1) as pool:
                scheduler = _InterruptingScheduler(
                    model,
                    tokenizer,
                    concurrency=3,
                    worker_pool=pool,
                    checkpoint_path=path,
                    interrupt_after=3,
                )
                for p in PATTERNS:
                    scheduler.submit(SearchQuery(p), budget=budget)
                scheduler.run()
        names = scheduler.segment_names
        assert names and not pool.segment_names()
        assert pool.closed
        assert not any(_segment_exists(n) for n in names), "leaked segments"
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
        from tests.test_parallel import _segment_exists

        with pytest.raises(KeyboardInterrupt):
            with WorkerPool(model, 2, min_shard_size=1) as pool:
                scheduler = _InterruptingScheduler(
                    model,
                    tokenizer,
                    concurrency=3,
                    worker_pool=pool,
                    interrupt_after=2,
                )
                for p in PATTERNS:
                    scheduler.submit(SearchQuery(p), budget=QueryBudget(max_results=6))
                scheduler.run()
        assert pool.closed
        assert scheduler.segment_names
        assert not any(_segment_exists(n) for n in scheduler.segment_names)


_DRIVER = """\
import sys

sys.path.insert(0, {src!r})

from repro.core.api import search_many
from repro.core.faults import FaultPlan, FaultSpec
from repro.core.parallel import WorkerPool
from repro.core.query import SearchQuery
from repro.core.scheduler import QueryBudget
from tests.conftest import build_model, build_tokenizer  # noqa: E402


class RecordingPool(WorkerPool):
    # Reports, on stderr, the segments it held when it was shut down.

    def shutdown(self):
        if not self.closed:
            print("# segments: " + ",".join(self.segment_names()), file=sys.stderr)
        super().shutdown()


mode, ckpt = sys.argv[1], sys.argv[2]
tokenizer = build_tokenizer()
model = build_model(tokenizer)
patterns = {patterns!r}
kwargs = dict(budget=QueryBudget(max_results=6), concurrency=3)
# round 1's first shard crashes its worker (a real SIGKILL), and every
# parallel round's last shard returns late — stretching the sweep so
# the parent's SIGINT lands mid-run deterministically.
plan = FaultPlan.of(
    FaultSpec("crash", round_index=1, shard=0),
    FaultSpec("slow", every=1, shard=-1, seconds=0.05),
)
if mode != "clean":
    kwargs.update(checkpoint=ckpt, checkpoint_every=2, resume=(mode == "resume"))
try:
    with RecordingPool(
        model, 2, min_shard_size=1, backoff_base=0.01, fault_plan=plan
    ) as pool:
        handles = search_many(
            model, tokenizer, [SearchQuery(p) for p in patterns],
            worker_pool=pool, **kwargs,
        )
except KeyboardInterrupt:
    sys.exit(130)
for handle in handles:
    for m in handle.results:
        print(f"{{handle.name}}\\t{{m.total_logprob!r}}\\t{{m.text}}")
"""


class TestEndToEndChaos:
    """The acceptance scenario: a ``search_many`` sweep loses a worker to
    SIGKILL, then the parent process to SIGINT; resuming from the
    checkpoint must reproduce the uninterrupted run's sorted result set
    byte-for-byte."""

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

    def test_sigkill_then_sigint_then_resume_is_byte_identical(self, tmp_path):
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
        # Either way the caller's ``with`` block shut the pool down before
        # the process exited: none of its segments may outlive it.
        from tests.test_parallel import _segment_exists

        reported = [ln for ln in err.splitlines() if ln.startswith("# segments: ")]
        assert reported, err
        names = [n for n in reported[-1][len("# segments: "):].split(",") if n]
        assert names, "the sweep never sharded a round"
        assert not any(_segment_exists(n) for n in names), "leaked segments"

        resumed = self._run(script, "resume", ckpt)
        assert resumed.returncode == 0, resumed.stderr
        assert sorted(resumed.stdout.splitlines()) == sorted(clean.stdout.splitlines())
        assert clean.stdout.strip(), "clean run produced no matches"
