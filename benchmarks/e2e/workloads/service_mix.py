"""``service_mix`` — the validation daemon in steady state: an in-process
``ValidationServer`` + ``SchedulerService`` (n-gram XL) on port 0, driven
closed-loop by :data:`CONNECTIONS` ``ServiceClient`` connections, each
submitting :data:`QUERIES_PER_CONNECTION` queries one after the other,
drawn Zipf(1) by seed from a pool of :data:`POOL_SIZE` templated patterns.

The one workload that is deliberately warm: the pool is run through the
server once before timing and the server stays up across repetitions, so
compile and logits caches are read-mostly.  What it measures is the wire,
the ``service`` layer and ``core.scheduler`` — protocol or session
changes show only here.
"""

from __future__ import annotations

import asyncio
import random
import re
import socket
import threading
from dataclasses import dataclass
from types import SimpleNamespace
from typing import Any

from harness import LOGITS_CACHE_ROWS, Digest, Repetition, clock, percentile, shm_segments
from layers import counters, engine_layers
from repro.core.compiler import CompilationCache
from repro.core.query import SearchQuery
from repro.core.results import MatchResult
from repro.core.scheduler import QueryBudget, QueryScheduler
from repro.datasets.lexicon import FIRST_NAMES, GENDERS, NOUNS, PROFESSIONS, VERBS_PAST
from repro.service.client import ServiceClient, ServiceError
from repro.service.protocol import decode_frame, encode_frame
from repro.service.server import ValidationServer
from repro.service.sessions import ClientSession, SchedulerService
from tracing import TimingCompiler, TimingLogitsCache, TimingModel, Tracer
from workloads import common

#: Frozen counts.  One op = one query iterated to its ``done`` frame.
POOL_SIZE = 256
CONNECTIONS = 2
QUERIES_PER_CONNECTION = 400
MAX_RESULTS = 3

#: Every pool pattern has at least this many strings — more than
#: ``MAX_RESULTS``, or the query would silently enumerate every encoding
#: of a language it has already exhausted.
MIN_LANGUAGE_SIZE = 6

ENGINE_THREAD_NAME = "relm-service-engine"


def _alternation(words: list[str] | tuple[str, ...]) -> str:
    return "(" + "|".join(f"({word})" for word in words) + ")"


def pattern_pool(rng: random.Random, size: int) -> list[str]:
    """*size* distinct templated patterns in two shapes: the bias template
    over a gender slot and a profession subset, and subject/verb sentences
    over name and verb subsets.  Patterns use only literals, groups and
    ``|``, so they read the same under Python ``re`` (the output oracle).
    """
    pool: list[str] = []
    seen: set[str] = set()
    while len(pool) < size:
        if len(pool) % 2 == 0:
            genders = rng.choice([("man",), ("woman",), GENDERS])
            professions = rng.sample(PROFESSIONS, rng.randint(3, 5))
            strings = len(genders) * len(professions)
            pattern = (
                f"The {_alternation(genders)} was trained in {_alternation(professions)}"
            )
        else:
            names = rng.sample(FIRST_NAMES, rng.randint(2, 3))
            verbs = rng.sample(VERBS_PAST, rng.randint(2, 3))
            strings = len(names) * len(verbs)
            pattern = f"{_alternation(names)} {_alternation(verbs)} the {rng.choice(NOUNS)}"
        if strings >= MIN_LANGUAGE_SIZE and pattern not in seen:
            seen.add(pattern)
            pool.append(pattern)
    return pool


@dataclass
class QueryRecord:
    """What one submitted query came back with (client side)."""

    connection: int
    sequence: int
    pattern: str
    matches: list[MatchResult]
    status: str | None
    reason: str | None
    first_ms: float | None
    done_ms: float

    @property
    def failed(self) -> bool:
        # Each query ends on its own result budget; anything else —
        # rejected, interrupted, error, short stream — is a failure.
        return not (
            self.status == "truncated"
            and self.reason == "max_results"
            and len(self.matches) == MAX_RESULTS
        )


class RecordingService(SchedulerService):
    """``SchedulerService`` that keeps every frame handed to a session's
    delivery callback — exactly the frames the server then encodes and
    writes — via the public ``open_session`` hook."""

    def __init__(self, *args: Any, **kwargs: Any) -> None:
        super().__init__(*args, **kwargs)
        self.frames: list[dict[str, Any]] = []

    def open_session(self, deliver: Any) -> ClientSession:
        def recording(frame: dict[str, Any]) -> None:
            self.frames.append(frame)
            deliver(frame)

        return super().open_session(recording)


class Daemon:
    """One warm server: service, listening socket, and (when traced) the
    engine-shaped view :func:`layers.engine_layers` reads counters from."""

    def __init__(self, model: Any, tokenizer: Any, tracer: Tracer | None) -> None:
        if tracer is None:
            self.service = SchedulerService(model, tokenizer)
            self.engine = None
        else:
            timed = TimingModel(model, tracer)
            # The service's own defaults, as timing stand-ins.
            compiler = TimingCompiler(
                tokenizer, tracer, cache=CompilationCache(max_entries=512)
            )
            cache = TimingLogitsCache(timed, tracer, LOGITS_CACHE_ROWS)
            self.service = RecordingService(
                timed, tokenizer, compiler=compiler, logits_cache=cache
            )
            self.engine = SimpleNamespace(
                model=timed, cache=cache, compiler=compiler, tokenizer=tokenizer
            )
        self.server = ValidationServer(self.service)


class ServiceMix(common.EnvironmentWorkload):
    name = "service_mix"

    def __init__(
        self,
        seed: int,
        pool_size: int = POOL_SIZE,
        queries_per_connection: int = QUERIES_PER_CONNECTION,
    ) -> None:
        super().__init__(seed)
        self.pool_size = pool_size
        self.per_connection = queries_per_connection
        self.loop = asyncio.new_event_loop()
        self.daemon: Daemon | None = None
        self.traced_daemon: Daemon | None = None

    # -- set-up / teardown -----------------------------------------------------------
    def setup(self, stages: dict[str, float]) -> None:
        self.shm_before = shm_segments()
        self.build_environment(stages)
        rng = random.Random(self.seed)
        self.pool = pattern_pool(rng, self.pool_size)
        weights = [1.0 / (rank + 1) for rank in range(len(self.pool))]
        self.sequences = [
            rng.choices(self.pool, weights=weights, k=self.per_connection)
            for _ in range(CONNECTIONS)
        ]
        self.daemon = self._start_daemon(None, stages)

    def _start_daemon(self, tracer: Tracer | None, stages: dict[str, float]) -> Daemon:
        started = clock()
        daemon = Daemon(self.spec.build(), self.env.tokenizer, tracer)
        self.loop.run_until_complete(daemon.server.start())
        stages["server_start_s"] = clock() - started
        started = clock()
        # Untimed warm-up: one pass over the pool, the state a daemon serves from.
        warm = self.loop.run_until_complete(self._drive(daemon, [self.pool]))
        stages["warmup_s"] = clock() - started
        bad = [record.pattern for record in warm if record.failed]
        if bad:
            raise RuntimeError(f"warm-up pass failed on {len(bad)} patterns, e.g. {bad[0]!r}")
        return daemon

    def teardown(self) -> list[str]:
        problems = []
        for daemon in (self.daemon, self.traced_daemon):
            if daemon is None:
                continue
            port = daemon.server.port
            self.loop.run_until_complete(daemon.server.shutdown())
            try:
                socket.create_connection(("127.0.0.1", port), timeout=1.0).close()
                problems.append(f"port {port} still accepts connections after shutdown")
            except OSError:
                pass
        self.daemon = self.traced_daemon = None
        self.loop.run_until_complete(self.loop.shutdown_asyncgens())
        self.loop.close()
        alive = [t.name for t in threading.enumerate() if t.name == ENGINE_THREAD_NAME]
        if alive:
            problems.append(f"{len(alive)} engine thread(s) survived shutdown")
        leaked = shm_segments() - self.shm_before
        if leaked:
            problems.append(f"new /dev/shm segments: {sorted(leaked)}")
        return problems

    # -- load generation -------------------------------------------------------------
    async def _drive(self, daemon: Daemon, sequences: list[list[str]]) -> list[QueryRecord]:
        """One closed-loop connection per sequence; returns the records
        ordered by connection, then sequence index."""
        per_connection = await asyncio.gather(
            *(
                self._connection(daemon.server.port, index, patterns)
                for index, patterns in enumerate(sequences)
            )
        )
        return [record for records in per_connection for record in records]

    @staticmethod
    async def _connection(port: int, index: int, patterns: list[str]) -> list[QueryRecord]:
        records = []
        async with await ServiceClient.connect("127.0.0.1", port) as client:
            for sequence, pattern in enumerate(patterns):
                submitted = clock()
                first = None
                stream = await client.submit(SearchQuery(pattern), max_results=MAX_RESULTS)
                try:
                    async for _ in stream:
                        if first is None:
                            first = (clock() - submitted) * 1e3
                except ServiceError:
                    pass  # the stream records status "error"; counted as failed
                records.append(
                    QueryRecord(
                        connection=index,
                        sequence=sequence,
                        pattern=pattern,
                        matches=stream.matches,
                        status=stream.status,
                        reason=stream.reason if stream.status != "error" else "error frame",
                        first_ms=first,
                        done_ms=(clock() - submitted) * 1e3,
                    )
                )
            if client.errors:
                raise RuntimeError(f"protocol-level error frames: {client.errors[:3]}")
        return records

    # -- repetitions -----------------------------------------------------------------
    def run(self, tracer: Tracer | None) -> Repetition:
        if tracer is not None and self.traced_daemon is None:
            # A second warm server built from the timing stand-ins, so the
            # untraced repetitions of a traced run stay truly untraced.
            self.traced_daemon = self._start_daemon(tracer, {})
        daemon = self.daemon if tracer is None else self.traced_daemon
        assert daemon is not None
        service = daemon.service
        before = service.stats_snapshot()
        base = counters(daemon.engine) if tracer is not None else None
        frames_before = len(service.frames) if tracer is not None else 0
        span = common.RepetitionSpan(tracer)
        started = clock()
        records = self.loop.run_until_complete(self._drive(daemon, self.sequences))
        wall = clock() - started
        profile = span.close()
        after = service.stats_snapshot()

        digest = Digest()
        for record in records:
            digest.add(record.connection, record.sequence, record.status)
            for match in record.matches:
                digest.add(match.text, match.logprob)
        failed = sum(record.failed for record in records)
        # Exactly one terminal outcome per submit, by the service's own books.
        submitted = after["queries_submitted"] - before["queries_submitted"]
        ended = sum(
            after[key] - before[key]
            for key in ("queries_completed", "queries_truncated", "queries_cancelled",
                        "queries_rejected", "queries_interrupted")
        )
        if submitted != len(records) or ended != len(records):
            failed = len(records)
        rep = Repetition(
            wall_s=wall,
            ops=len(records),
            failed=failed,
            first_match_ms=[r.first_ms for r in records if r.first_ms is not None],
            digest=digest.hexdigest(),
            outputs=records,
        )
        if tracer is not None:
            # Executor counters stay inside the service; only the match
            # count is visible from the client side.
            rep.layers = engine_layers(profile, daemon.engine, [], rep.ops, base)
            rep.layers.update(
                {
                    "executor.matches_yielded": sum(len(r.matches) for r in records),
                    "scheduler.rounds": after["rounds"] - before["rounds"],
                    "scheduler.contexts_serviced": (
                        after["contexts_serviced"] - before["contexts_serviced"]
                    ),
                    "service.first_match_ms_p99": percentile(rep.first_match_ms, 0.99),
                    "service.done_ms_p50": percentile([r.done_ms for r in records], 0.50),
                    "service.frames_out": len(service.frames) - frames_before,
                    "service.generations": after["generations"] - before["generations"],
                    "service.backpressure_stalls": (
                        after["backpressure_stalls"] - before["backpressure_stalls"]
                    ),
                    "service.queries_rejected": (
                        after["queries_rejected"] - before["queries_rejected"]
                    ),
                    "executor.first_match_ms": percentile(rep.first_match_ms, 0.50),
                }
            )
            self.traced_first_p50 = percentile(rep.first_match_ms, 0.50)
            self.traced_frames = service.frames[frames_before:]
        return rep

    def replay_layers(self, tracer: Tracer) -> dict[str, float | None]:
        out: dict[str, float | None] = {}
        frames = self.traced_frames
        started = clock()
        lines = [encode_frame(frame) for frame in frames]
        out["protocol.encode_us_per_frame"] = (clock() - started) * 1e6 / len(frames)
        started = clock()
        for line in lines:
            decode_frame(line)
        out["protocol.decode_us_per_frame"] = (clock() - started) * 1e6 / len(frames)
        out["service.bytes_out"] = sum(len(line) for line in lines)

        # The same query sequence through an in-process scheduler over the
        # server's own warm compiler and caches: what is left is the wire.
        daemon = self.traced_daemon
        assert daemon is not None and daemon.engine is not None
        latencies = []
        for pattern in (p for sequence in self.sequences for p in sequence):
            scheduler = QueryScheduler(
                daemon.engine.model, self.env.tokenizer,
                compiler=daemon.engine.compiler, logits_cache=daemon.engine.cache,
            )
            at = clock()
            handle = scheduler.submit(
                SearchQuery(pattern), budget=QueryBudget(max_results=MAX_RESULTS)
            )
            latencies += common.drive_scheduler(scheduler, [(handle, at)])
        out["service.wire_overhead_ms"] = self.traced_first_p50 - percentile(latencies, 0.50)
        return out

    def check(self, rep: Repetition) -> list[str]:
        problems = []
        records: list[QueryRecord] = rep.outputs
        oracles = {pattern: re.compile(pattern) for pattern in self.pool}
        if len(records) != CONNECTIONS * self.per_connection:
            problems.append(f"{len(records)} query records, wanted "
                            f"{CONNECTIONS * self.per_connection}")
        for record in records:
            where = f"connection {record.connection} query {record.sequence}"
            if record.failed:
                problems.append(
                    f"{where}: status {record.status!r} ({record.reason}), "
                    f"{len(record.matches)} matches"
                )
                break
            off = [m.text for m in record.matches
                   if oracles[record.pattern].fullmatch(m.text) is None]
            if off:
                problems.append(f"{where}: {off[0]!r} does not match {record.pattern!r}")
                break
        return problems
