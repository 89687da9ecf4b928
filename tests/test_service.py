"""Validation-as-a-service acceptance tests (PR 10).

The headline claims, from the issue:

* a warm server answers a repeat query with **zero recompiles** and
  strictly fewer LM calls than a cold one-shot run (pinned with
  :class:`~repro.lm.base.CountingModel`);
* protocol fuzz — malformed frames, oversized payloads, mid-stream
  disconnects — never crashes the server or strands the engine thread;
* SIGTERM during an in-flight round checkpoints, and a restarted server
  resumes bit-identical results (subprocess test, real signal).

Plus the mechanics underneath: bit-identical float round-trips over the
NDJSON wire, windowed backpressure with stall accounting, cancellation
mid-stream, per-client quotas, and graceful in-process drain/resume.
"""

from __future__ import annotations

import asyncio
import contextlib
import json
import os
import signal
import subprocess
import sys
import time

import pytest

from repro import SearchQuery
from repro.core.api import search
from repro.core.compiler import CompilationCache, GraphCompiler
from repro.core.scheduler import QueryBudget, QueryScheduler
from repro.lm.base import CountingModel, LanguageModel
from repro.service import (
    SchedulerService,
    ServiceClient,
    ServiceError,
    ValidationServer,
    protocol,
)

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")


class SlowModel(LanguageModel):
    """Delay every model dispatch: makes 'mid-flight' deterministic."""

    def __init__(self, inner: LanguageModel, delay: float) -> None:
        self.inner = inner
        self.delay = delay
        self.vocab_size = inner.vocab_size
        self.eos_id = inner.eos_id
        self.max_sequence_length = inner.max_sequence_length

    def logprobs(self, context):
        time.sleep(self.delay)
        return self.inner.logprobs(context)

    def logprobs_batch(self, contexts):
        time.sleep(self.delay)
        return self.inner.logprobs_batch(contexts)


@contextlib.asynccontextmanager
async def serving(model, tokenizer, *, max_frame_bytes=None, **service_kwargs):
    """An in-process server on a random port; always drained on exit."""
    service = SchedulerService(model, tokenizer, **service_kwargs)
    kwargs = {} if max_frame_bytes is None else {"max_frame_bytes": max_frame_bytes}
    server = ValidationServer(service, **kwargs)
    await server.start()
    try:
        yield server, service
    finally:
        await server.shutdown()
        assert service.join(timeout=10.0), "engine thread stranded after shutdown"


async def raw_connect(host, port):
    """A bare-socket client (for fuzzing below the typed client)."""
    reader, writer = await asyncio.open_connection(host, port)
    hello = json.loads(await asyncio.wait_for(reader.readline(), 10.0))
    assert hello["type"] == "hello"
    return reader, writer, hello


async def read_frames_until(reader, predicate, *, timeout=20.0):
    """Read frames off a raw connection until *predicate* says stop."""
    seen = []
    deadline = time.monotonic() + timeout
    while True:
        remaining = deadline - time.monotonic()
        assert remaining > 0, f"timed out waiting for frame; saw {seen}"
        line = await asyncio.wait_for(reader.readline(), remaining)
        assert line, f"connection closed early; saw {seen}"
        frame = json.loads(line)
        seen.append(frame)
        if predicate(frame):
            return seen


# ---------------------------------------------------------------------------
class TestStreaming:
    def test_matches_bit_identical_to_in_process(self, model, tokenizer):
        """Floats survive the JSON wire: streamed results == serial search."""
        query = SearchQuery("The ((cat)|(dog))")
        reference = list(search(model, tokenizer, query))
        assert reference

        async def scenario():
            async with serving(model, tokenizer) as (server, _service):
                async with await ServiceClient.connect(server.host, server.port) as client:
                    stream = await client.submit(query)
                    got = await stream.collect()
                    assert stream.status == "ok"
                    return got

        got = asyncio.run(scenario())
        assert got == reference  # full dataclass equality, logprobs included

    def test_concurrent_clients_each_get_their_own_stream(self, model, tokenizer):
        patterns = ["The cat", "The dog", "the [a-z]{1,3}"]
        references = {
            p: list(search(model, tokenizer, SearchQuery(p)))[:4] for p in patterns
        }

        async def one_client(host, port, pattern):
            async with await ServiceClient.connect(host, port) as client:
                stream = await client.submit(SearchQuery(pattern), max_results=4)
                return await stream.collect()

        async def scenario():
            async with serving(model, tokenizer) as (server, service):
                results = await asyncio.gather(
                    *(one_client(server.host, server.port, p) for p in patterns)
                )
                stats = service.stats_snapshot()
                assert stats["sessions_opened"] == 3
                assert stats["queries_admitted"] == 3
                return dict(zip(patterns, results))

        results = asyncio.run(scenario())
        for pattern in patterns:
            assert results[pattern] == references[pattern]

    def test_progress_frames_and_done_stats(self, model, tokenizer):
        async def scenario():
            async with serving(model, tokenizer, progress_every=1) as (server, _service):
                async with await ServiceClient.connect(server.host, server.port) as client:
                    stream = await client.submit(
                        SearchQuery("the( [a-z]{1,3}){1,4}"), max_results=6
                    )
                    await stream.collect()
                    assert stream.status == "truncated"
                    assert stream.reason == "max_results"
                    assert stream.progress is not None
                    assert stream.progress["rounds"] >= 1
                    assert stream.stats["lm_calls"] > 0
                    assert stream.latency_ms is not None

        asyncio.run(scenario())


# ---------------------------------------------------------------------------
class TestWarmServer:
    def test_repeat_query_zero_recompiles_strictly_fewer_lm_calls(self, model, tokenizer):
        """The acceptance pin: warm repeat beats a cold one-shot on both
        compiles (zero) and LM traffic (strictly fewer model contexts)."""
        query = SearchQuery("the [a-z]{1,4}")
        counting = CountingModel(model)
        cold_compiler = GraphCompiler(tokenizer, cache=CompilationCache(max_entries=64))
        cold_reference = list(search(counting, tokenizer, query, compiler=cold_compiler))
        cold_contexts = counting.contexts_scored
        assert cold_contexts > 0

        async def scenario():
            counting.reset()
            async with serving(counting, tokenizer) as (server, service):
                async with await ServiceClient.connect(server.host, server.port) as client:
                    first = await (await client.submit(query)).collect()
                    contexts_after_first = counting.contexts_scored
                    compile_misses = service.compiler.cache.misses
                    second = await (await client.submit(query)).collect()
                    repeat_contexts = counting.contexts_scored - contexts_after_first
                    recompiles = service.compiler.cache.misses - compile_misses
                    return first, second, repeat_contexts, recompiles

        first, second, repeat_contexts, recompiles = asyncio.run(scenario())
        assert first == cold_reference
        assert second == cold_reference
        assert recompiles == 0
        assert repeat_contexts < cold_contexts

    def test_fresh_service_on_warm_disk_cache_recompiles_nothing(self, model, tokenizer, tmp_path):
        """Restart story: a new service over the same --compile-cache dir
        serves the same query from disk — zero fresh compilations."""
        cache_dir = str(tmp_path / "cc")
        query = SearchQuery("the [a-z]{1,4}")

        async def run_once():
            compiler = GraphCompiler(tokenizer, disk_cache=cache_dir)
            async with serving(model, tokenizer, compiler=compiler) as (server, service):
                async with await ServiceClient.connect(server.host, server.port) as client:
                    await (await client.submit(query)).collect()
                return service.compiler.disk_cache.stats()

        cold = asyncio.run(run_once())
        assert cold["misses"] >= 1 and cold["writes"] >= 1
        warm = asyncio.run(run_once())  # brand-new compiler, same dir
        assert warm["misses"] == 0
        assert warm["hits"] >= 1


# ---------------------------------------------------------------------------
class TestWarmQueries:
    """Queries the warm caches answer without a single scheduler round."""

    WIDE = "The ((cat)|(dog)|(man)|(woman))"
    #: Thousands of encodings behind four strings (bounded by the
    #: service-wide ``max_expansions`` below): ~2 500 contexts, 4 matches.
    LONG = "The ((man)|(woman)) was trained in ((art)|(medicine))"

    @staticmethod
    async def _ask(server, query, **kwargs):
        async with await ServiceClient.connect(server.host, server.port) as client:
            stream = await client.submit(query, **kwargs)
            await stream.collect()
            return stream

    def test_resumed_is_recorded_not_guessed(self, model, tokenizer, tmp_path):
        """A repeated warm query finishes in zero rounds and is *not*
        resumed; a query a checkpoint answers after a restart is."""
        query = SearchQuery(self.WIDE)
        ckpt = str(tmp_path / "service.ckpt")

        async def first_life():
            async with serving(model, tokenizer, checkpoint_path=ckpt) as (server, _service):
                cold = await self._ask(server, query, max_results=3)
                warm = await self._ask(server, query, max_results=3)
                return cold, warm

        cold, warm = asyncio.run(first_life())
        assert cold.stats["scheduler_rounds"] > 0 and cold.stats["resumed"] is False
        assert warm.matches == cold.matches
        assert warm.stats["scheduler_rounds"] == 0
        assert warm.stats["logits_misses"] == 0
        assert warm.stats["lm_calls"] == cold.stats["lm_calls"] > 0
        assert warm.stats["resumed"] is False
        assert warm.progress is None  # three matches: too few turns to report
        written = os.stat(ckpt).st_mtime_ns

        async def second_life():
            async with serving(
                model, tokenizer, checkpoint_path=ckpt, resume=True
            ) as (server, service):
                stream = await self._ask(server, query, max_results=3)
                return stream, service.compiler.cache.misses

        restored, compiles = asyncio.run(second_life())
        assert restored.stats["resumed"] is True
        assert restored.status == "truncated" and restored.reason == "max_results"
        assert restored.matches == cold.matches
        assert compiles == 1  # the service compiles at submit; the traversal never ran
        # A generation that only replayed the checkpoint leaves it alone.
        assert os.stat(ckpt).st_mtime_ns == written

    def test_zero_round_generation_still_checkpoints(self, model, tokenizer, tmp_path):
        from repro.core.checkpoint import load_checkpoint
        from repro.lm.base import LogitsCache

        query = SearchQuery(self.WIDE)
        cache = LogitsCache(model, capacity=65536)
        list(search(model, tokenizer, query, logits_cache=cache))  # warm every context
        ckpt = str(tmp_path / "service.ckpt")

        async def scenario():
            async with serving(
                model, tokenizer, logits_cache=cache, checkpoint_path=ckpt
            ) as (server, service):
                stream = await self._ask(server, query)
                return stream, service.stats_snapshot()

        stream, stats = asyncio.run(scenario())
        assert stream.status == "ok" and stream.stats["scheduler_rounds"] == 0
        assert stats["rounds"] == 0 and stats["checkpoints_written"] == 1
        saved = load_checkpoint(ckpt)
        assert [(q.done, len(q.results)) for q in saved.queries] == [(True, len(stream.matches))]
        assert saved.rounds_completed == 0 and saved.cache_rows

    def test_long_warm_query_still_reports_progress(self, model, tokenizer):
        from repro.lm.base import LogitsCache

        query = SearchQuery(self.LONG)
        counting = CountingModel(model)
        cache = LogitsCache(counting, capacity=65536)
        reference = list(
            search(counting, tokenizer, query, logits_cache=cache, max_expansions=3000)
        )
        counting.reset()

        async def scenario():
            async with serving(
                counting, tokenizer, logits_cache=cache, max_expansions=3000
            ) as (server, _service):
                return await self._ask(server, query)

        stream = asyncio.run(scenario())
        assert stream.matches == reference and counting.total_rounds == 0
        assert stream.stats["scheduler_rounds"] == 0 and stream.stats["lm_calls"] > 2000
        # Dozens of inline quanta, not one round: still not silent.
        assert stream.progress is not None
        assert stream.progress["rounds"] == 0
        assert 0 < stream.progress["lm_calls"] <= stream.stats["lm_calls"]


class FlakyModel(LanguageModel):
    """Raise on one chosen model dispatch, answer every other one."""

    def __init__(self, inner: LanguageModel, fail_on: int) -> None:
        self.inner = inner
        self.fail_on = fail_on
        self.dispatches = 0
        self.vocab_size = inner.vocab_size
        self.eos_id = inner.eos_id
        self.max_sequence_length = inner.max_sequence_length

    def logprobs(self, context):
        return self.logprobs_batch([context])[0]

    def logprobs_batch(self, contexts):
        self.dispatches += 1
        if self.dispatches == self.fail_on:
            raise RuntimeError("flaky accelerator")
        return self.inner.logprobs_batch(contexts)


class TestWarmScheduler:
    """One scheduler serves a service's whole life."""

    QUERIES = ("The cat", "The dog", "The ((cat)|(dog))")

    @staticmethod
    async def _ask_each(server, queries):
        streams = []
        async with await ServiceClient.connect(server.host, server.port) as client:
            for query in queries:  # one at a time: each query is a wave
                stream = await client.submit(SearchQuery(query))
                await stream.collect()
                streams.append(stream)
        return streams

    def test_a_life_builds_one_scheduler_and_forgets_finished_queries(
        self, model, tokenizer, monkeypatch
    ):
        from repro.service import sessions

        built = []

        class CountingScheduler(QueryScheduler):
            def __init__(self, *args, **kwargs):
                built.append(self)
                super().__init__(*args, **kwargs)

        monkeypatch.setattr(sessions, "QueryScheduler", CountingScheduler)

        async def scenario():
            async with serving(model, tokenizer) as (server, service):
                streams = await self._ask_each(server, self.QUERIES)
                return streams, service.stats_snapshot()

        streams, stats = asyncio.run(scenario())
        assert [s.status for s in streams] == ["ok"] * len(self.QUERIES)
        assert len(built) == 1
        assert stats["generations"] == len(self.QUERIES)
        sched = built[0]
        assert sched.queries == [] and sched.stats.queries_submitted == len(self.QUERIES)
        assert stats["rounds"] == sched.stats.rounds > 0
        assert stats["compile_ms"] == sched.stats.compile_ms > 0

    def test_stats_snapshot_keys_are_unchanged(self, model, tokenizer):
        """The ``# service:`` line and the ``stats`` frame read these."""
        service = SchedulerService(model, tokenizer)
        assert set(service.stats_snapshot()) == {
            "sessions_opened", "sessions_closed", "queries_submitted",
            "queries_admitted", "queries_completed", "queries_truncated",
            "queries_cancelled", "queries_rejected", "queries_interrupted",
            "matches_streamed", "backpressure_stalls", "frames_malformed",
            "generations", "rounds", "contexts_serviced", "lm_wall_ms",
            "compile_ms", "checkpoints_written", "queries_resumed",
            "compile_memory_hits", "compile_memory_misses",
            "logits_hits", "logits_misses", "draining",
        }

    @pytest.mark.filterwarnings("ignore:service engine round failed")
    def test_failed_round_interrupts_and_the_next_submit_is_answered(
        self, model, tokenizer
    ):
        """A model that raises mid-round stops the query as ``interrupted``
        (the client cancelled nothing); the service keeps serving."""
        pattern = "The ((cat)|(dog))"
        reference = list(search(model, tokenizer, SearchQuery(pattern)))
        flaky = FlakyModel(model, fail_on=1)

        async def scenario():
            async with serving(flaky, tokenizer) as (server, service):
                broken, after = await self._ask_each(server, [pattern, pattern])
                return broken, after, service.stats_snapshot()

        broken, after, stats = asyncio.run(scenario())
        assert broken.status == "interrupted"
        assert broken.reason == "engine: flaky accelerator"
        assert after.status == "ok" and after.matches == reference
        assert stats["queries_interrupted"] == 1 and stats["queries_cancelled"] == 0
        assert stats["queries_completed"] == 1


# ---------------------------------------------------------------------------
class TestBudgetValidation:
    #: Budgets ``json.loads`` accepts but no query can honour: each once
    #: yielded a match past a cap of zero or ran unbounded.
    UNSATISFIABLE = [
        b'{"deadline": NaN}',
        b'{"deadline": Infinity}',
        b'{"deadline": 0}',
        b'{"max_results": 0}',
        b'{"max_results": -1}',
        b'{"max_lm_calls": 0}',
        b'{"deadline": NaN, "max_results": 0}',
    ]

    def test_validate_submit_refuses_unsatisfiable_budgets(self):
        for budget in self.UNSATISFIABLE:
            frame = json.loads(
                b'{"type": "submit", "id": "b", "query": {"pattern": "The cat"}, '
                b'"budget": ' + budget + b"}"
            )
            with pytest.raises(protocol.ProtocolError):
                protocol.validate_submit(frame)
        _, _, budget = protocol.validate_submit(
            {"type": "submit", "id": "b", "query": {"pattern": "a"},
             "budget": {"deadline": 2.5, "max_results": 1, "max_lm_calls": 3.0}}
        )
        assert budget == QueryBudget(deadline=2.5, max_lm_calls=3, max_results=1)

    #: Query fields the wire parses but no query can run with, and the
    #: word each one's error names: the decision rules' own checks, and
    #: the deleted beam traversal.
    UNRUNNABLE = [
        (b'"top_k": 0', "top_k"),
        (b'"top_k": -3', "top_k"),
        (b'"top_p": 0', "top_p"),
        (b'"top_p": 1.5', "top_p"),
        (b'"temperature": 0', "temperature"),
        (b'"temperature": -1', "temperature"),
        (b'"strategy": "beam"', "strategy"),
    ]

    def test_validate_submit_refuses_unrunnable_queries(self):
        for field, word in self.UNRUNNABLE:
            frame = json.loads(
                b'{"type": "submit", "id": "q", "query": {"pattern": "The cat", '
                + field + b"}}"
            )
            with pytest.raises(protocol.ProtocolError, match=word):
                protocol.validate_submit(frame)

    def test_unsatisfiable_budget_draws_an_error_frame_and_the_connection_survives(
        self, model, tokenizer
    ):
        """A bad budget or an unrunnable query spec is that frame's
        ``error`` (carrying its id), never a later ``rejected``; the
        connection keeps serving."""
        budget_fields = ("deadline", "max_results", "max_lm_calls")
        bad = [
            (b'{"pattern": "The ((cat)|(dog))"}', budget, budget_fields)
            for budget in self.UNSATISFIABLE
        ] + [
            (b'{"pattern": "The ((cat)|(dog))", ' + field + b"}", b"{}", (word,))
            for field, word in self.UNRUNNABLE
        ]

        async def scenario():
            async with serving(model, tokenizer) as (server, service):
                reader, writer, _ = await raw_connect(server.host, server.port)
                for i, (query, budget, _) in enumerate(bad):
                    writer.write(
                        b'{"type": "submit", "id": "bad%d", "query": ' % i
                        + query + b', "budget": ' + budget + b"}\n"
                    )
                writer.write(protocol.encode_frame({
                    "type": "submit", "id": "good",
                    "query": protocol.query_to_wire(SearchQuery("The ((cat)|(dog))")),
                    "budget": {"max_results": 1},
                }))
                await writer.drain()
                frames = await read_frames_until(
                    reader, lambda f: f["type"] == "done" and f["id"] == "good"
                )
                writer.close()
                return frames, service.stats.frames_malformed

        frames, malformed = asyncio.run(scenario())
        errors = [f for f in frames if f["type"] == "error"]
        assert [f["id"] for f in errors] == [f"bad{i}" for i in range(len(bad))]
        for frame, (_, _, words) in zip(errors, bad):
            assert any(word in frame["message"] for word in words), frame
        assert malformed == len(bad)
        # No bad submit reached the engine: not one match or done for it.
        assert all(f.get("id") == "good" for f in frames if f["type"] in ("match", "done"))
        matches = [f for f in frames if f["type"] == "match"]
        assert len(matches) == 1


# ---------------------------------------------------------------------------
class TestBackpressure:
    def test_windowed_delivery_stalls_and_resumes(self, model, tokenizer):
        async def scenario():
            async with serving(model, tokenizer) as (server, service):
                async with await ServiceClient.connect(server.host, server.port) as client:
                    stream = await client.submit(
                        SearchQuery("the [a-z]{1,4}"),
                        max_results=8,
                        window=3,
                        auto_grant=False,
                    )
                    got = []
                    async for match in stream:
                        got.append(match)
                        if len(got) == 3:
                            # Exactly the window was delivered; the rest is
                            # held server-side (in the handle, not copied).
                            for _ in range(50):
                                if service.stats.backpressure_stalls:
                                    break
                                await asyncio.sleep(0.05)
                            stats = await client.stats()
                            assert stats["matches_streamed"] == 3
                            assert stats["backpressure_stalls"] >= 1
                            await stream.grant(100)
                    assert len(got) == 8
                    assert stream.status == "truncated"  # max_results budget

        asyncio.run(scenario())


class TestCancel:
    def test_cancel_mid_stream(self, model, tokenizer):
        async def scenario():
            async with serving(model, tokenizer) as (server, service):
                async with await ServiceClient.connect(server.host, server.port) as client:
                    stream = await client.submit(
                        SearchQuery("[a-z ]{1,30}"),
                        max_results=100_000,
                        window=1,
                        auto_grant=False,
                    )
                    first = await asyncio.wait_for(stream.__anext__(), 30.0)
                    assert first.text
                    await stream.cancel()
                    with pytest.raises(StopAsyncIteration):
                        while True:
                            await asyncio.wait_for(stream.__anext__(), 30.0)
                    assert stream.status == "cancelled"
                    assert service.stats.queries_cancelled == 1

        asyncio.run(scenario())

    def test_cancel_after_natural_completion_sends_one_done(self, model, tokenizer):
        """A query that finished on its own before the client's cancel
        landed: its undelivered tail is dropped, exactly one ``done``
        (``cancelled``, counting what was delivered) is sent, and the
        engine thread goes idle instead of spinning on the cancelled
        ticket."""
        frames = []
        service = SchedulerService(model, tokenizer).start()
        try:
            session = service.open_session(frames.append)
            session.submit(
                "q", SearchQuery("The ((cat)|(dog)|(man)|(woman))"), QueryBudget(), window=1
            )

            def wait_for(predicate):
                deadline = time.monotonic() + 10.0
                while not predicate():
                    assert time.monotonic() < deadline, f"timed out; frames: {frames}"
                    time.sleep(0.01)

            ticket = session._tickets["q"]
            wait_for(
                lambda: ticket.handle is not None
                and ticket.handle.done
                and any(f["type"] == "match" for f in frames)
            )
            assert len(ticket.handle.results) == 4
            session.cancel("q")
            wait_for(lambda: any(f["type"] == "done" for f in frames))
            time.sleep(0.2)  # room for a second, wrong terminal frame
            done = [f for f in frames if f["type"] == "done"]
            assert len(done) == 1
            assert done[0]["status"] == "cancelled"
            assert done[0]["matches"] == 1
            assert [f["type"] for f in frames if f["type"] != "progress"] == ["match", "done"]
            with service._cond:
                assert service._active == []
                assert not service._work_available()
        finally:
            service.close()
            assert service.join(timeout=10.0)


class TestQuotas:
    def test_inflight_quota_rejects_second_query(self, model, tokenizer):
        slow = SlowModel(model, 0.02)

        async def scenario():
            async with serving(
                slow, tokenizer, max_inflight=1, progress_every=1
            ) as (server, _service):
                async with await ServiceClient.connect(server.host, server.port) as client:
                    running = await client.submit(
                        SearchQuery("the( [a-z]{1,3}){1,8}"), max_results=50
                    )
                    # Wait until the first query is demonstrably in flight.
                    for _ in range(200):
                        if running.progress is not None:
                            break
                        await asyncio.sleep(0.02)
                    assert running.progress is not None
                    rejected = await client.submit(SearchQuery("The cat"))
                    with pytest.raises(StopAsyncIteration):
                        await asyncio.wait_for(rejected.__anext__(), 30.0)
                    assert rejected.status == "rejected"
                    assert rejected.reason == "quota_inflight"
                    await running.cancel()
                    await running.collect()

        asyncio.run(scenario())

    def test_lm_rate_quota_rejects_after_burst(self, model, tokenizer):
        async def scenario():
            async with serving(
                model, tokenizer, lm_calls_per_minute=1
            ) as (server, _service):
                async with await ServiceClient.connect(server.host, server.port) as client:
                    first = await client.submit(SearchQuery("The cat"))
                    await first.collect()
                    assert first.status == "ok"
                    assert first.stats["lm_calls"] >= 1
                    second = await client.submit(SearchQuery("The dog"))
                    with pytest.raises(StopAsyncIteration):
                        await asyncio.wait_for(second.__anext__(), 30.0)
                    assert second.status == "rejected"
                    assert second.reason == "quota_lm_rate"

        asyncio.run(scenario())

    def test_static_admission_cost_rejection(self, model, tokenizer):
        async def scenario():
            async with serving(
                model, tokenizer, admission_max_cost=1
            ) as (server, _service):
                async with await ServiceClient.connect(server.host, server.port) as client:
                    stream = await client.submit(SearchQuery("the [a-z]{1,8}"))
                    with pytest.raises(StopAsyncIteration):
                        await asyncio.wait_for(stream.__anext__(), 30.0)
                    assert stream.status == "rejected"

        asyncio.run(scenario())


class TestSettings:
    @pytest.mark.parametrize(
        "kwargs", [{"concurrency": 0}, {"checkpoint_every": 0}, {"admission_max_cost": -1}]
    )
    def test_scheduler_settings_refused_at_construction(self, model, tokenizer, kwargs):
        """A setting the scheduler refuses is refused when the service is
        built, with the scheduler's message — not on the engine thread at
        the first submit, which would die without a ``done`` frame."""
        with pytest.raises(ValueError) as scheduler_error:
            QueryScheduler(model, tokenizer, **kwargs)
        with pytest.raises(ValueError) as service_error:
            SchedulerService(model, tokenizer, **kwargs)
        assert str(service_error.value) == str(scheduler_error.value)

    @pytest.mark.parametrize("kwargs", [{"progress_every": 0}, {"lm_calls_per_minute": 0}])
    def test_service_settings_refused_at_construction(self, model, tokenizer, kwargs):
        """``progress_every=0`` would send a progress frame on every engine
        turn and ``lm_calls_per_minute=0`` would reject every query."""
        (name,) = kwargs
        with pytest.raises(ValueError, match=f"{name} must be >= 1"):
            SchedulerService(model, tokenizer, **kwargs)


# ---------------------------------------------------------------------------
class TestCompileErrors:
    def test_syntax_error_is_rejected_and_service_keeps_serving(self, model, tokenizer):
        """A pattern that does not compile is a terminal ``rejected`` —
        nothing is left in the scheduler to spin on — and the service
        compiles each query exactly once (``compile_source`` is honest)."""
        good = SearchQuery("The ((cat)|(dog))")
        reference = list(search(model, tokenizer, good))

        async def scenario():
            async with serving(model, tokenizer) as (server, service):
                async with await ServiceClient.connect(server.host, server.port) as client:
                    bad = await client.submit(SearchQuery("The ((cat"))
                    assert await bad.collect() == []
                    assert bad.status == "rejected"
                    assert bad.reason.startswith("compile: ")
                    assert bad.stats is None  # never reached the scheduler
                    lookups = service.compiler.cache.stats()
                    first = await client.submit(good)
                    assert await first.collect() == reference
                    assert first.status == "ok"
                    assert first.stats["compile_source"] == "cold"
                    second = await client.submit(good)
                    assert await second.collect() == reference
                    assert second.stats["compile_source"] == "memory"
                    stats = await client.stats()
                after = service.compiler.cache.stats()
                # One compile per service query: two lookups, not four.
                assert after["misses"] - lookups["misses"] == 1
                assert after["hits"] - lookups["hits"] == 1
                return stats

        stats = asyncio.run(scenario())
        assert stats["queries_rejected"] == 1
        assert stats["queries_completed"] == 2
        assert stats["queries_admitted"] == 2
        assert not any(key.startswith("compile_cache_") for key in stats)


# ---------------------------------------------------------------------------
class TestProtocolFuzz:
    GARBAGE = [
        b"\xff\xfe\x00garbage\n",
        b"not json at all\n",
        b"[1, 2, 3]\n",
        b'"just a string"\n',
        b"{}\n",
        b'{"type": 42}\n',
        b'{"type": "frobnicate"}\n',
        b'{"type": "match"}\n',  # server-only frame from a client
        b'{"type": "submit"}\n',  # no id
        b'{"type": "submit", "id": "x", "query": "nope"}\n',
        b'{"type": "submit", "id": "x", "query": {"pattern": 7}}\n',
        b'{"type": "submit", "id": "x", "query": {"pattern": "a("}}\n',  # syntax
        b'{"type": "submit", "id": "y", "query": {"pattern": "a", "strategy": "psychic"}}\n',
        b'{"type": "submit", "id": "z", "query": {"pattern": "a"},'
        b' "budget": {"max_lm_calls": "lots"}}\n',
        b'{"type": "cancel", "id": "ghost"}\n',
        b'{"type": "window", "id": "ghost", "n": 5}\n',
        b'{"type": "window", "id": "ghost", "n": "all"}\n',
    ]

    def test_malformed_frames_answered_not_fatal(self, model, tokenizer):
        """Every piece of garbage gets an error frame (or a rejected done
        for the well-formed-but-uncompilable submit); the session survives
        all of it, dies only on a version-mismatch hello, and the server
        serves the next client normally."""

        async def scenario():
            async with serving(model, tokenizer) as (server, service):
                reader, writer, _ = await raw_connect(server.host, server.port)
                for chunk in self.GARBAGE:
                    writer.write(chunk)
                await writer.drain()
                # 16 garbage lines draw error frames; the compilable-shape
                # submit with the bad regex draws an async rejected done.
                frames = await read_frames_until(
                    reader,
                    lambda _f, seen=[]: (
                        seen.append(_f)
                        or (sum(1 for f in seen if f["type"] == "error") >= 16
                            and any(f["type"] == "done" for f in seen))
                    ),
                )
                kinds = [f["type"] for f in frames]
                assert kinds.count("error") == 16
                dones = [f for f in frames if f["type"] == "done"]
                assert len(dones) == 1
                assert dones[0]["status"] == "rejected"
                assert "compile" in dones[0]["reason"]
                assert service.stats.frames_malformed >= 16

                # A version-mismatch hello is fatal: error, then close.
                writer.write(b'{"type": "hello", "version": 999}\n')
                await writer.drain()
                fatal = json.loads(await asyncio.wait_for(reader.readline(), 20.0))
                assert fatal["type"] == "error"
                assert "version" in fatal["message"]
                tail = await asyncio.wait_for(reader.readline(), 20.0)
                assert tail == b""  # server hung up
                writer.close()

                # server is still healthy: a fresh client round-trips
                async with await ServiceClient.connect(server.host, server.port) as client:
                    stream = await client.submit(SearchQuery("The cat"))
                    got = await stream.collect()
                    assert [m.text for m in got] == ["The cat"]

        asyncio.run(scenario())

    def test_oversized_frame_resync(self, model, tokenizer):
        """A frame past the limit is discarded up to the newline and the
        stream resyncs: the next valid frame still works."""

        async def scenario():
            async with serving(model, tokenizer, max_frame_bytes=2048) as (server, _service):
                reader, writer, hello = await raw_connect(server.host, server.port)
                assert hello["max_frame_bytes"] == 2048
                # Over the protocol limit but under the socket buffer limit.
                writer.write(b'{"type": "stats", "pad": "' + b"x" * 3000 + b'"}\n')
                # Far over the socket read limit: exercises LimitOverrun resync.
                writer.write(b"y" * 20000 + b"\n")
                writer.write(protocol.encode_frame({"type": "stats"}))
                await writer.drain()
                frames = await read_frames_until(reader, lambda f: f["type"] == "stats")
                kinds = [f["type"] for f in frames]
                assert kinds.count("error") == 2
                assert kinds[-1] == "stats"
                writer.close()

        asyncio.run(scenario())

    def test_mid_stream_disconnect_cancels_and_serves_on(self, model, tokenizer):
        slow = SlowModel(model, 0.02)

        async def scenario():
            async with serving(slow, tokenizer, progress_every=1) as (server, service):
                client = await ServiceClient.connect(server.host, server.port)
                stream = await client.submit(
                    SearchQuery("the( [a-z]{1,3}){1,8}"), max_results=50
                )
                for _ in range(200):
                    if stream.progress is not None:
                        break
                    await asyncio.sleep(0.02)
                assert stream.progress is not None
                # Abrupt drop: no bye, no cancel, just a dead socket.
                client._writer.transport.abort()
                client._reader_task.cancel()
                # The engine notices the closed session and cancels its work.
                for _ in range(200):
                    if service.stats.sessions_closed == 1 and not service._active:
                        break
                    await asyncio.sleep(0.05)
                assert service.stats.sessions_closed == 1
                # A new client is served normally afterwards.
                async with await ServiceClient.connect(server.host, server.port) as c2:
                    got = await (await c2.submit(SearchQuery("The dog"))).collect()
                    assert [m.text for m in got] == ["The dog"]

        asyncio.run(scenario())


# ---------------------------------------------------------------------------
class TestDrainAndResume:
    QUERY = "the( [a-z]{1,3}){1,6}"
    MAX_RESULTS = 25

    def reference(self, model, tokenizer):
        scheduler = QueryScheduler(model, tokenizer)
        handle = scheduler.submit(
            SearchQuery(self.QUERY), budget=QueryBudget(max_results=self.MAX_RESULTS)
        )
        scheduler.run()
        return handle.results

    def test_drain_checkpoints_inflight_and_resume_is_bit_identical(
        self, model, tokenizer, tmp_path
    ):
        reference = self.reference(model, tokenizer)
        assert len(reference) == self.MAX_RESULTS
        ckpt = str(tmp_path / "service.ckpt")
        slow = SlowModel(model, 0.02)

        async def interrupted():
            async with serving(
                slow, tokenizer, checkpoint_path=ckpt, progress_every=1
            ) as (server, service):
                async with await ServiceClient.connect(server.host, server.port) as client:
                    stream = await client.submit(
                        SearchQuery(self.QUERY), max_results=self.MAX_RESULTS
                    )
                    for _ in range(200):
                        if stream.progress is not None:
                            break
                        await asyncio.sleep(0.02)
                    assert stream.progress is not None
                    service.drain()  # SIGTERM semantics, in-process
                    with pytest.raises(StopAsyncIteration):
                        while True:
                            await asyncio.wait_for(stream.__anext__(), 30.0)
                    assert stream.status == "interrupted"
                    assert stream.reason == "draining"

        asyncio.run(interrupted())
        assert os.path.exists(ckpt)

        async def resumed():
            async with serving(
                model, tokenizer, checkpoint_path=ckpt, resume=True
            ) as (server, _service):
                async with await ServiceClient.connect(server.host, server.port) as client:
                    stream = await client.submit(
                        SearchQuery(self.QUERY), max_results=self.MAX_RESULTS
                    )
                    return await stream.collect()

        assert asyncio.run(resumed()) == reference

    def test_restart_keeps_a_snapshot_past_fresh_queries(self, model, tokenizer, tmp_path):
        """Life 1 runs B; life 2 runs a fresh A first, then B: B is still
        answered from life 1's checkpoint."""
        ckpt = str(tmp_path / "service.ckpt")
        a, b = "The ((cat)|(dog))", "The ((man)|(woman))"

        async def life(queries, **kwargs):
            async with serving(model, tokenizer, checkpoint_path=ckpt, **kwargs) as (server, _):
                return await TestWarmScheduler._ask_each(server, queries)

        (first_b,) = asyncio.run(life([b]))
        fresh_a, resumed_b = asyncio.run(life([a, b], resume=True))
        assert first_b.stats["resumed"] is False
        assert fresh_a.status == "ok" and fresh_a.stats["resumed"] is False
        assert resumed_b.stats["resumed"] is True
        assert resumed_b.matches == first_b.matches

    def test_resume_reads_the_checkpoint_once(self, model, tokenizer, tmp_path, monkeypatch):
        from repro.core import checkpoint as ckpt_mod

        ckpt = str(tmp_path / "service.ckpt")
        queries = TestWarmScheduler.QUERIES

        async def life(**kwargs):
            async with serving(model, tokenizer, checkpoint_path=ckpt, **kwargs) as (server, service):
                streams = await TestWarmScheduler._ask_each(server, queries)
                return streams, service.stats_snapshot()

        asyncio.run(life())
        loads = []
        real_load = ckpt_mod.load_checkpoint

        def counting_load(path):
            loads.append(path)
            return real_load(path)

        monkeypatch.setattr(ckpt_mod, "load_checkpoint", counting_load)
        streams, stats = asyncio.run(life(resume=True))
        assert stats["generations"] == len(queries)
        assert loads == [ckpt]
        # The checkpoint holds the last wave: finished queries are forgotten,
        # so what a long-lived service persists stays bounded.
        assert [s.stats["resumed"] for s in streams] == [False, False, True]

    def test_drain_without_checkpoint_finishes_inflight(self, model, tokenizer):
        reference = self.reference(model, tokenizer)
        slow = SlowModel(model, 0.01)

        async def scenario():
            async with serving(slow, tokenizer, progress_every=1) as (server, service):
                async with await ServiceClient.connect(server.host, server.port) as client:
                    stream = await client.submit(
                        SearchQuery(self.QUERY), max_results=self.MAX_RESULTS
                    )
                    for _ in range(200):
                        if stream.progress is not None:
                            break
                        await asyncio.sleep(0.02)
                    service.drain()
                    got = await stream.collect()
                    assert stream.status == "truncated"  # ran to its budget
                    assert got == reference
                    # and new submissions during the drain are refused
                    late = await client.submit(SearchQuery("The cat"))
                    with pytest.raises(StopAsyncIteration):
                        await asyncio.wait_for(late.__anext__(), 30.0)
                    assert late.status == "rejected"
                    assert late.reason == "draining"

        asyncio.run(scenario())


# ---------------------------------------------------------------------------
_SIGTERM_DRIVER = """\
import asyncio, sys, time
sys.path.insert(0, {src!r})
sys.path.insert(0, {root!r})
from tests.conftest import build_model, build_tokenizer
from repro.lm.base import LanguageModel
from repro.service import SchedulerService, run_server

class SlowModel(LanguageModel):
    def __init__(self, inner, delay):
        self.inner = inner
        self.delay = delay
        self.vocab_size = inner.vocab_size
        self.eos_id = inner.eos_id
        self.max_sequence_length = inner.max_sequence_length
    def logprobs(self, context):
        time.sleep(self.delay)
        return self.inner.logprobs(context)
    def logprobs_batch(self, contexts):
        time.sleep(self.delay)
        return self.inner.logprobs_batch(contexts)

checkpoint, resume, delay = sys.argv[1], bool(int(sys.argv[2])), float(sys.argv[3])
tokenizer = build_tokenizer()
model = SlowModel(build_model(tokenizer), delay)
service = SchedulerService(
    model, tokenizer, checkpoint_path=checkpoint, resume=resume, progress_every=1
)

def ready(host, port):
    print(f"# listening {{host}}:{{port}}", file=sys.stderr, flush=True)

asyncio.run(run_server(service, "127.0.0.1", 0, ready=ready))
stats = service.stats_snapshot()
print(f"# service: interrupted={{stats['queries_interrupted']}} "
      f"checkpoints={{stats['checkpoints_written']}}", file=sys.stderr, flush=True)
"""


class TestSigterm:
    """The real signal path, end-to-end in a subprocess."""

    QUERY = "the( [a-z]{1,3}){1,6}"
    MAX_RESULTS = 25

    def _spawn(self, tmp_path, ckpt, resume, delay):
        script = tmp_path / "driver.py"
        script.write_text(
            _SIGTERM_DRIVER.format(src=SRC, root=os.path.dirname(SRC))
        )
        env = os.environ.copy()
        env["PYTHONPATH"] = SRC + os.pathsep + os.path.dirname(SRC)
        proc = subprocess.Popen(
            [sys.executable, str(script), ckpt, str(int(resume)), str(delay)],
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            env=env,
            cwd=os.path.dirname(SRC),
        )
        port = None
        deadline = time.monotonic() + 120
        while time.monotonic() < deadline:
            line = proc.stderr.readline().decode()
            if line.startswith("# listening"):
                port = int(line.rsplit(":", 1)[1])
                break
            assert proc.poll() is None, "server died before listening"
        assert port is not None, "server never announced its port"
        return proc, port

    def test_sigterm_checkpoints_and_restart_resumes_bit_identical(
        self, model, tokenizer, tmp_path
    ):
        reference = TestDrainAndResume().reference(model, tokenizer)
        ckpt = str(tmp_path / "sigterm.ckpt")

        # Round 1: slow server, SIGTERM lands mid-flight.
        proc, port = self._spawn(tmp_path, ckpt, resume=False, delay=0.03)
        try:

            async def interrupted():
                async with await ServiceClient.connect("127.0.0.1", port) as client:
                    stream = await client.submit(
                        SearchQuery(self.QUERY), max_results=self.MAX_RESULTS
                    )
                    for _ in range(400):
                        if stream.progress is not None:
                            break
                        await asyncio.sleep(0.02)
                    assert stream.progress is not None
                    os.kill(proc.pid, signal.SIGTERM)
                    try:
                        while True:
                            await asyncio.wait_for(stream.__anext__(), 60.0)
                    except (StopAsyncIteration, ServiceError):
                        pass
                    return stream.status

            status = asyncio.run(interrupted())
            assert status == "interrupted"
        finally:
            _out, err = proc.communicate(timeout=120)
        assert proc.returncode == 0, err.decode()
        assert os.path.exists(ckpt)
        assert "interrupted=1" in err.decode()

        # Round 2: fast server resumes off the checkpoint; results must be
        # bit-identical to an uninterrupted run.
        proc, port = self._spawn(tmp_path, ckpt, resume=True, delay=0.0)
        try:

            async def resumed():
                async with await ServiceClient.connect("127.0.0.1", port) as client:
                    stream = await client.submit(
                        SearchQuery(self.QUERY), max_results=self.MAX_RESULTS
                    )
                    return await stream.collect()

            got = asyncio.run(resumed())
        finally:
            os.kill(proc.pid, signal.SIGTERM)
            _out, err = proc.communicate(timeout=120)
        assert proc.returncode == 0, err.decode()
        assert got == reference


# ---------------------------------------------------------------------------
class TestProtocolUnit:
    def test_query_wire_round_trip(self):
        query = SearchQuery(
            "a[bc]{1,3}",
            prefix="a",
            top_k=5,
            strategy=__import__("repro").QuerySearchStrategy.RANDOM_SAMPLING,
            num_samples=7,
            require_eos=True,
            seed=3,
        )
        assert protocol.query_from_wire(protocol.query_to_wire(query)) == query

    def test_query_wire_defaults_are_elided(self):
        spec = protocol.query_to_wire(SearchQuery("ab"))
        assert spec == {"pattern": "ab", "strategy": "shortest", "tokenization": "all"}

    def test_decode_frame_rejections(self):
        for raw in (b"", b"\xff\n", b"nope\n", b"[]\n", b'{"type":"zap"}\n'):
            with pytest.raises(protocol.ProtocolError):
                protocol.decode_frame(raw)
        with pytest.raises(protocol.ProtocolError):
            protocol.decode_frame(b"x" * 100, max_bytes=10)

    def test_match_wire_round_trip_is_lossless(self, model, tokenizer):
        query = SearchQuery("The ((cat)|(dog))")
        for match in search(model, tokenizer, query):
            wired = json.loads(json.dumps(protocol.match_to_wire(match)))
            assert protocol.match_from_wire(wired) == match
