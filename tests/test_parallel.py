"""Unit tests for the process-parallel evaluation engine.

:class:`WorkerPool` mechanics — sharded rounds bit-identical to serial
evaluation, the adaptive inline fallback, supervision settings checked
before any process starts, and shared-memory segment lifecycle (pooled
reuse while open, every segment unlinked at shutdown, worker crashes
included) — plus :class:`~repro.lm.base.ModelSpec` pickling and the
batch-dedupe guarantee of ``logprobs_batch``.  Supervised recovery from
crashes, hangs and errors is ``tests/test_faults.py``'s subject.
"""

from __future__ import annotations

import multiprocessing as mp
import os
import signal
import time

import numpy as np
import pytest

from repro.core.parallel import WorkerPool
from repro.lm.base import LanguageModel, LogitsCache, ModelSpec


def _contexts(n, depth=3, vocab=300):
    return [[(7 * i + 3 * t) % (vocab - 1) + 1 for t in range(depth)] for i in range(n)]


class _ExplodingModel(LanguageModel):
    """Builds fine in a worker, then fails every batched evaluation.

    Module-level so :meth:`LanguageModel.spec` can pickle it.
    """

    def __init__(self, vocab_size: int = 64) -> None:
        self.vocab_size = vocab_size
        self.eos_id = 0

    def logprobs(self, context):
        return np.full(self.vocab_size, -np.log(self.vocab_size))

    def logprobs_batch(self, contexts):
        raise ValueError(f"boom on {len(contexts)} contexts")


def _segment_exists(name: str) -> bool:
    from multiprocessing import shared_memory

    try:
        shm = shared_memory.SharedMemory(name=name)
    except FileNotFoundError:
        return False
    shm.close()
    return True


class TestShardedRounds:
    @pytest.fixture(scope="class")
    def pool(self, model):
        with WorkerPool(model, 2, min_shard_size=1) as pool:
            yield pool

    def test_rows_bit_identical_to_serial(self, model, pool):
        ctxs = _contexts(17, vocab=model.vocab_size)
        serial = model.logprobs_batch(ctxs)
        parallel = pool.logprobs_batch(ctxs)
        assert len(parallel) == len(serial)
        for a, b in zip(serial, parallel):
            # The n-gram scores each row independently, so sharding must be
            # exact — not allclose.
            assert np.array_equal(a, b)

    def test_counters_and_shard_sizes(self, model, pool):
        assert pool._shard_sizes(10) == [5, 5]
        before = (pool.rounds, pool.parallel_rounds, pool.shards_dispatched)
        pool.logprobs_batch(_contexts(10, vocab=model.vocab_size))
        assert pool.rounds == before[0] + 1
        assert pool.parallel_rounds == before[1] + 1
        assert pool.shards_dispatched == before[2] + 2

    def test_segments_pooled_not_leaked(self, model, pool):
        """Steady-state rounds reuse segments instead of allocating."""
        for _ in range(5):
            pool.logprobs_batch(_contexts(10, vocab=model.vocab_size))
        grown = len(pool.segment_names())
        for _ in range(10):
            pool.logprobs_batch(_contexts(10, vocab=model.vocab_size))
        assert len(pool.segment_names()) == grown


class TestInlineFallback:
    def test_small_rounds_stay_in_process(self, model):
        with WorkerPool(model, 2, min_shard_size=8) as pool:
            assert pool._shard_sizes(9) is None  # 9 // 8 == 1 shard -> inline
            rows = pool.logprobs_batch(_contexts(9, vocab=model.vocab_size))
            assert pool.inline_rounds == 1 and pool.parallel_rounds == 0
            for a, b in zip(model.logprobs_batch(_contexts(9, vocab=model.vocab_size)), rows):
                assert np.array_equal(a, b)
            assert pool._shard_sizes(16) == [8, 8]
            pool.logprobs_batch(_contexts(16, vocab=model.vocab_size))
            assert pool.parallel_rounds == 1 and pool.shards_dispatched == 2

    def test_workers_1_is_a_passthrough(self, model):
        pool = WorkerPool(model, 1)
        assert pool.workers == 1
        rows = pool.logprobs_batch(_contexts(20, vocab=model.vocab_size))
        assert pool.parallel_rounds == 0 and pool.inline_rounds == 1
        assert len(rows) == 20
        assert pool.segment_names() == []
        pool.shutdown()


class TestLifecycle:
    def test_shutdown_releases_every_segment(self, model):
        with WorkerPool(model, 2, min_shard_size=1) as pool:
            pool.logprobs_batch(_contexts(12, vocab=model.vocab_size))
            names = pool.segment_names()
            assert names and all(_segment_exists(n) for n in names)
        assert pool.closed
        assert not any(_segment_exists(n) for n in names)

    def test_shutdown_idempotent_and_dispatch_after_raises(self, model):
        pool = WorkerPool(model, 2, min_shard_size=1)
        pool.shutdown()
        pool.shutdown()  # no-op
        with pytest.raises(RuntimeError, match="closed"):
            pool.logprobs_batch(_contexts(4, vocab=model.vocab_size))

    def test_worker_side_evaluation_error_propagates(self):
        """A shard that fails on its worker and again in-process raises
        (with no retries: straight to the in-process fallback) and marks
        the pool broken."""
        bad = _ExplodingModel()
        with WorkerPool(bad, 2, min_shard_size=1, max_retries=0) as pool:
            with pytest.raises(RuntimeError, match="worker evaluation failed"):
                pool.logprobs_batch(_contexts(8, vocab=bad.vocab_size))
            with pytest.raises(RuntimeError, match="broken"):
                pool.logprobs_batch(_contexts(8, vocab=bad.vocab_size))

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"shard_timeout": 0},
            {"shard_timeout": -1},
            {"shard_timeout": float("nan")},
            {"max_retries": -1},
        ],
        ids=["timeout-zero", "timeout-negative", "timeout-nan", "retries-negative"],
    )
    def test_invalid_supervision_settings_raise_before_spawning(self, model, kwargs):
        """A non-positive ``shard_timeout`` would declare every shard hung
        on arrival, turning each sharded round into a respawn loop; a
        negative ``max_retries`` has no meaning.  Both are refused before
        any worker process starts."""
        before = len(mp.active_children())
        with pytest.raises(ValueError, match=next(iter(kwargs))):
            WorkerPool(model, 2, min_shard_size=1, **kwargs)
        assert len(mp.active_children()) == before

    def test_shutdown_idempotent_after_worker_sigkill(self, model):
        """Regression: shutdown after a worker crash used to re-raise from
        the dead worker's queue teardown.  Both the double-call and the
        shutdown-after-crash must be silent no-ops."""
        pool = WorkerPool(model, 2, min_shard_size=1)
        pool.logprobs_batch(_contexts(8, vocab=model.vocab_size))
        os.kill(pool._procs[0].pid, signal.SIGKILL)
        deadline = time.monotonic() + 10.0
        while pool._procs[0].is_alive() and time.monotonic() < deadline:
            time.sleep(0.01)
        names = pool.segment_names()
        pool.shutdown()
        pool.shutdown()  # second call: still a no-op, still no raise
        assert pool.closed
        assert not any(_segment_exists(n) for n in names)


class TestModelSpec:
    def test_ngram_roundtrip_bit_identical(self, model):
        spec = model.spec()
        assert isinstance(spec, ModelSpec)
        rebuilt = spec.build()
        assert rebuilt.vocab_size == model.vocab_size
        assert rebuilt.eos_id == model.eos_id
        for ctx in _contexts(5, vocab=model.vocab_size):
            assert np.array_equal(rebuilt.logprobs(ctx), model.logprobs(ctx))

    def test_ngram_lru_cache_not_shipped(self, model):
        model.logprobs([1, 2])  # warm the model's private LRU
        rebuilt = model.spec().build()
        assert len(rebuilt._cache) == 0

    def test_transformer_strips_optimizer_keeps_kv_budget(self, tokenizer):
        from repro.lm.transformer import TransformerConfig, TransformerModel

        config = TransformerConfig(
            vocab_size=len(tokenizer), block_size=16, n_layer=1, n_head=2, n_embd=16
        )
        m = TransformerModel(config, eos_id=tokenizer.eos_id, seed=0, kv_cache_mb=4.0)
        m.fit([list(range(1, 25))], steps=2, batch_size=1, seed=0)
        assert m._adam_t > 0
        rebuilt = m.spec().build()
        assert rebuilt._adam_t == 0 and rebuilt._adam_m == {}
        assert rebuilt.prefix_cache is not None
        assert rebuilt.prefix_cache.max_bytes == m.prefix_cache.max_bytes
        # A replica scores exactly like its source (same weights, and its
        # own empty prefix cache does not change full-forward results).
        got = rebuilt.logprobs_batch([[1, 2, 3]])
        want = m.logprobs_batch([[1, 2, 3]])
        assert np.allclose(got[0], want[0], atol=1e-12)


class TestBatchDedupe:
    class _Counting(LanguageModel):
        def __init__(self, vocab_size=32):
            self.vocab_size = vocab_size
            self.eos_id = 0
            self.calls = 0

        def logprobs(self, context):
            self.calls += 1
            row = np.full(self.vocab_size, -np.log(self.vocab_size))
            return row

    def test_default_batch_scores_each_unique_context_once(self):
        m = self._Counting()
        rows = m.logprobs_batch([[1, 2], [3], [1, 2], [3], [1, 2]])
        assert m.calls == 2  # two unique contexts, five rows
        assert len(rows) == 5
        assert rows[0] is rows[2] is rows[4]  # duplicates share the row

    def test_logits_cache_batch_dedupes_before_the_model(self):
        m = self._Counting()
        cache = LogitsCache(m, capacity=64)
        cache.logprobs_batch([[1], [2], [1], [2], [1]])
        assert m.calls == 2
        assert cache.misses == 2 and cache.hits == 3


class TestSchedulerOwnership:
    """The caller owns the pool: schedulers and sessions only borrow it."""

    def test_injected_pool_survives_scheduler_close(self, model, tokenizer):
        """A scheduler has no ``close`` and never shuts a pool down: one
        pool serves several schedulers, each finished and dropped."""
        from repro.core.query import SearchQuery
        from repro.core.scheduler import QueryScheduler

        with WorkerPool(model, 2, min_shard_size=1) as pool:
            for _ in range(2):
                scheduler = QueryScheduler(model, tokenizer, worker_pool=pool)
                scheduler.submit(SearchQuery("The ((cat)|(dog))"))
                scheduler.run()
                assert pool.stats()["workers"] == 2
                assert not hasattr(scheduler, "close")
                del scheduler
                assert not pool.closed
        assert pool.closed

    def test_search_many_pool_context_manager_reclaims_segments(self, model, tokenizer):
        """A single query reaches the pool the one way any query does,
        ``worker_pool=``; the pool's own context manager reclaims
        processes and segments afterwards."""
        from repro.core.api import search_many
        from repro.core.query import SearchQuery

        with WorkerPool(model, 2, min_shard_size=1) as pool:
            (handle,) = search_many(
                model, tokenizer, [SearchQuery("The ((cat)|(dog))")], concurrency=1,
                worker_pool=pool, batch_size=4,
            )
            assert sorted(m.text for m in handle.results) == ["The cat", "The dog"]
            assert pool.parallel_rounds > 0 and pool.shards_dispatched > 0
            names = pool.segment_names()
        assert pool.closed
        assert not any(_segment_exists(n) for n in names)

    def test_shared_cache_for_another_model_is_rejected(self, model, tokenizer):
        """A shared logits cache answers for the model it wraps; one built
        over another model would silently serve the wrong rows."""
        from repro.core.api import SearchSession
        from repro.core.query import SearchQuery
        from repro.core.scheduler import QueryScheduler
        from repro.lm.base import CountingModel

        other = CountingModel(model)
        with pytest.raises(ValueError, match="different model"):
            SearchSession(
                model, tokenizer, SearchQuery("The cat"), logits_cache=LogitsCache(other)
            )
        with pytest.raises(ValueError, match="different model"):
            QueryScheduler(model, tokenizer, logits_cache=LogitsCache(other))
        session = SearchSession(
            model, tokenizer, SearchQuery("The cat"), logits_cache=LogitsCache(model)
        )
        assert [m.text for m in session] == ["The cat"]
