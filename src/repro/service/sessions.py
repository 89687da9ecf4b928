"""Session layer: bridging the synchronous scheduler to async clients.

:class:`SchedulerService` holds the warm state a long-lived validation
daemon exists to keep: one :class:`~repro.core.compiler.GraphCompiler`
(in-memory compilation cache, optionally a persistent
:class:`~repro.core.compile_cache.CompileDiskCache`), one shared
:class:`~repro.lm.base.LogitsCache`, the model's prefix-state (KV)
cache.  A dedicated **engine thread** drives :class:`~repro.core.scheduler.QueryScheduler`
rounds over that state; queries arrive from any number of client
sessions and leave as per-client delivery callbacks (the asyncio server
wraps them in ``loop.call_soon_threadsafe``).

One scheduler serves the whole life of the service, over caches that
stay warm, which is the entire point.  Queries arrive in *waves*: a wave
ends when no query is unfinished.  There the service checkpoints the
wave (when it ran a query of its own) and the scheduler forgets the
wave's finished handles (:meth:`~repro.core.scheduler.QueryScheduler.forget_finished`),
so a long-lived service never accumulates dead query handles, while the
scheduler's counters run on.

**Backpressure** is windowed, not buffered: every query carries a credit
count (initially the client's requested window), each streamed match
spends one credit, and the client grants more as it consumes
(``window`` frames).  A slow consumer's matches stay exactly where the
scheduler already keeps them — the handle's ``results`` list, bounded by
the query's own ``max_results`` budget — so the service never builds a
second unbounded copy per client.  Stalls are counted in
``ServiceStats.backpressure_stalls``.

**Admission control** happens twice: the scheduler's static-analyzer
pass (error-level findings, ``admission_max_cost`` over the EXPLAIN
LM-call bound) and the service's per-client quotas — ``max_inflight``
concurrent queries per session and a sliding-window ``lm_calls_per_minute``
rate measured from per-query stats deltas.  Rejections are terminal
``done`` frames with status ``"rejected"``; they never issue an LM call.

**Drain** (SIGTERM) stops admission, then either finishes the in-flight
rounds or — when a ``checkpoint_path`` is configured — snapshots them at
the next round boundary via :mod:`repro.core.checkpoint` and tells the
affected clients ``done(status="interrupted", reason="draining")``.  A
restarted service with ``resume=True`` answers a re-submitted query from
the snapshot (completed queries verbatim, interrupted ones re-run
against the preloaded logits cache), reproducing results bit-identically.
"""

from __future__ import annotations

import threading
import time
import warnings
from collections import deque
from dataclasses import asdict, dataclass
from typing import Any, Callable

from repro.core.compiler import CompilationCache, GraphCompiler
from repro.core.query import SimpleSearchQuery
from repro.core.scheduler import QueryBudget, QueryScheduler, ScheduledQuery
from repro.lm.base import LanguageModel, LogitsCache
from repro.service import protocol
from repro.tokenizers.bpe import BPETokenizer

__all__ = ["ServiceStats", "ClientSession", "SchedulerService"]

#: How ``truncated_reason`` maps onto wire ``done`` statuses.
_STATUS_BY_REASON = {
    None: "ok",
    "cancelled": "cancelled",
    "rejected": "rejected",
    "rejected_cost": "rejected",
    "deadline": "truncated",
    "max_lm_calls": "truncated",
    "max_results": "truncated",
}


@dataclass
class ServiceStats:
    """Counters the service itself increments (the ``# service:`` line /
    ``stats`` frame).  ``generations`` counts the waves drained.

    :meth:`SchedulerService.stats_snapshot` adds the scheduler's own
    round, compile and checkpoint counters and the shared caches' counters
    on top; none of them is copied here.
    """

    sessions_opened: int = 0
    sessions_closed: int = 0
    queries_submitted: int = 0
    queries_admitted: int = 0
    queries_completed: int = 0
    queries_truncated: int = 0
    queries_cancelled: int = 0
    queries_rejected: int = 0
    queries_interrupted: int = 0
    matches_streamed: int = 0
    backpressure_stalls: int = 0
    frames_malformed: int = 0
    generations: int = 0

    def as_dict(self) -> dict[str, Any]:
        """Plain-dict view (what the ``stats`` frame carries)."""
        return asdict(self)


@dataclass
class _Ticket:
    """One submitted query's service-side state."""

    session: "ClientSession"
    wire_id: str
    name: str
    query: SimpleSearchQuery
    budget: QueryBudget
    credit: int
    handle: ScheduledQuery | None = None
    cursor: int = 0
    seq: int = 0
    lm_seen: int = 0
    #: Drive-loop turns in which the query advanced (a round or an inline
    #: quantum) since its last ``progress`` frame, and the ``lm_calls``
    #: reading that told the last such turn apart from an idle one.
    progress_turns: int = 0
    progress_lm_calls: int = 0
    stalled: bool = False
    cancelled: bool = False
    #: Why a failed engine round stopped the query (``"engine: ..."``).
    failure: str | None = None
    done_sent: bool = False


class ClientSession:
    """One connected client's view of the service.

    All methods are called from the transport (the asyncio server's
    loop); the engine thread only reads tickets under the service lock
    and calls :attr:`deliver` (which the transport made thread-safe).
    ``submit``/``cancel``/``grant`` raise
    :class:`~repro.service.protocol.ProtocolError` on client mistakes —
    the server answers those with an ``error`` frame and keeps the
    session alive.
    """

    def __init__(
        self,
        service: "SchedulerService",
        session_id: int,
        deliver: Callable[[dict[str, Any]], None],
    ) -> None:
        self.service = service
        self.session_id = session_id
        self._deliver = deliver
        self.closed = False
        self._tickets: dict[str, _Ticket] = {}
        #: Sliding window of (monotonic_time, lm_calls) usage deltas for
        #: the per-minute rate quota.
        self.lm_usage: deque[tuple[float, int]] = deque()

    def deliver(self, frame: dict[str, Any]) -> None:
        """Push *frame* to the client (no-op once the session closed)."""
        if not self.closed:
            self._deliver(frame)

    def submit(
        self,
        wire_id: str,
        query: SimpleSearchQuery,
        budget: QueryBudget,
        window: int | None = None,
    ) -> None:
        """Enqueue a query; terminal outcome always arrives as ``done``."""
        if wire_id in self._tickets:
            raise protocol.ProtocolError(f"duplicate query id {wire_id!r}")
        if window is None:
            window = self.service.default_window
        if window < 1:
            raise protocol.ProtocolError("'window' must be >= 1")
        ticket = _Ticket(
            session=self,
            wire_id=wire_id,
            name=f"c{self.session_id}/{wire_id}",
            query=query,
            budget=budget,
            credit=window,
        )
        self._tickets[wire_id] = ticket
        self.service._enqueue(ticket)

    def cancel(self, wire_id: str) -> None:
        """Stop query *wire_id* at the next scheduling boundary."""
        ticket = self._tickets.get(wire_id)
        if ticket is None:
            raise protocol.ProtocolError(f"cancel for unknown query id {wire_id!r}")
        self.service._cancel(ticket)

    def grant(self, wire_id: str, n: int) -> None:
        """Add *n* match-delivery credits to query *wire_id*."""
        if n < 1:
            raise protocol.ProtocolError("'n' must be >= 1")
        ticket = self._tickets.get(wire_id)
        if ticket is None:
            raise protocol.ProtocolError(f"window for unknown query id {wire_id!r}")
        self.service._grant(ticket, n)

    def close(self) -> None:
        """Tear the session down: cancel in-flight queries, stop delivery."""
        self.service._close_session(self)


class SchedulerService:
    """The engine behind the daemon: warm caches + a scheduler thread.

    Construct once per process, :meth:`start` the engine thread, hand
    :meth:`open_session` to each accepted connection, and :meth:`close`
    on shutdown.  ``compiler``/``logits_cache`` default to fresh warm
    instances; pass prebuilt ones to share with in-process callers (a
    compiler built with ``disk_cache=`` keeps compilations across
    restarts).  ``checkpoint_path`` (+ ``resume``) wires the scheduler's
    checkpoint/resume machinery through drain and restart.
    ``progress_every`` is how many drive-loop turns in
    which a query advanced — a model round, or a quantum of answers the
    warm logits cache gave inline — pass between its ``progress`` frames.
    ``clock`` is injectable for deterministic quota tests.  One
    :class:`~repro.core.scheduler.QueryScheduler`, built here, serves the
    service's whole life.
    """

    def __init__(
        self,
        model: LanguageModel,
        tokenizer: BPETokenizer,
        *,
        compiler: GraphCompiler | None = None,
        logits_cache: LogitsCache | None = None,
        concurrency: int = 8,
        admission_max_cost: int | None = None,
        max_inflight: int = 8,
        lm_calls_per_minute: int | None = None,
        default_window: int = 64,
        progress_every: int = 4,
        checkpoint_path: str | None = None,
        checkpoint_every: int = 1,
        resume: bool = False,
        clock: Callable[[], float] = time.monotonic,
        **executor_defaults: Any,
    ) -> None:
        if max_inflight < 1:
            raise ValueError("max_inflight must be >= 1")
        if default_window < 1:
            raise ValueError("default_window must be >= 1")
        if progress_every < 1:
            raise ValueError("progress_every must be >= 1")
        if lm_calls_per_minute is not None and lm_calls_per_minute < 1:
            raise ValueError("lm_calls_per_minute must be >= 1")
        if compiler is None:
            compiler = GraphCompiler(tokenizer, cache=CompilationCache(max_entries=512))
        # The scheduler checks the settings it shares with the service.
        self._scheduler = QueryScheduler(
            model,
            tokenizer,
            compiler=compiler,
            logits_cache=logits_cache,
            concurrency=concurrency,
            admission_max_cost=admission_max_cost,
            checkpoint_path=checkpoint_path,
            checkpoint_every=checkpoint_every,
            resume=resume,
            clock=clock,
            **executor_defaults,
        )
        self.model = model
        self.compiler = compiler
        self.logits_cache = self._scheduler.logits_cache
        self.executor_defaults = executor_defaults
        self.max_inflight = max_inflight
        self.lm_calls_per_minute = lm_calls_per_minute
        self.default_window = default_window
        self.progress_every = progress_every
        self.checkpoint_path = checkpoint_path
        self.clock = clock
        #: Whether the scheduler's last turn left a query unfinished.
        self._unfinished = False
        self.stats = ServiceStats()
        self._cond = threading.Condition()
        self._pending: deque[_Ticket] = deque()
        self._active: list[_Ticket] = []
        self._draining = False
        self._stop_requested = False
        self._stopped = threading.Event()
        self._next_session = 0
        self._thread: threading.Thread | None = None

    # -- lifecycle ----------------------------------------------------------------
    def start(self) -> "SchedulerService":
        """Launch the engine thread (idempotent); returns ``self``."""
        if self._thread is None:
            self._thread = threading.Thread(
                target=self._run, name="relm-service-engine", daemon=True
            )
            self._thread.start()
        return self

    @property
    def draining(self) -> bool:
        """True once drain/shutdown began (new submits are rejected)."""
        with self._cond:
            return self._draining

    def drain(self) -> None:
        """Begin graceful shutdown: stop admitting, finish or checkpoint
        in-flight work, emit terminal frames.  Returns immediately; use
        :meth:`join`/:meth:`close` to wait."""
        with self._cond:
            self._draining = True
            self._stop_requested = True
            self._cond.notify_all()

    def join(self, timeout: float | None = None) -> bool:
        """Wait for the engine thread to finish draining."""
        if self._thread is None:
            return True
        self._thread.join(timeout)
        return not self._thread.is_alive()

    def close(self, timeout: float | None = 60.0) -> None:
        """Drain and wait for the engine thread to finish."""
        self.drain()
        if not self.join(timeout):  # pragma: no cover - defensive
            warnings.warn("service engine thread did not drain in time", RuntimeWarning)

    def __enter__(self) -> "SchedulerService":
        return self.start()

    def __exit__(self, *exc_info: Any) -> None:
        self.close()

    # -- session plumbing (called from the transport) -------------------------------
    def open_session(self, deliver: Callable[[dict[str, Any]], None]) -> ClientSession:
        """Register a connected client; *deliver* must be thread-safe."""
        with self._cond:
            self._next_session += 1
            session = ClientSession(self, self._next_session, deliver)
            self.stats.sessions_opened += 1
        return session

    def note_malformed(self) -> None:
        """Count one malformed/oversized frame (transport-level)."""
        with self._cond:
            self.stats.frames_malformed += 1

    def _enqueue(self, ticket: _Ticket) -> None:
        with self._cond:
            self.stats.queries_submitted += 1
            if self._draining:
                # "Stop admitting" takes effect at the door — and once the
                # engine thread has exited nobody would ever drain pending.
                self._emit_done(ticket, "rejected", "draining")
                return
            self._pending.append(ticket)
            self._cond.notify_all()

    def _cancel(self, ticket: _Ticket) -> None:
        with self._cond:
            ticket.cancelled = True
            if ticket.handle is not None:
                ticket.handle.cancel()
            self._cond.notify_all()

    def _grant(self, ticket: _Ticket, n: int) -> None:
        with self._cond:
            ticket.credit += n
            self._cond.notify_all()

    def _close_session(self, session: ClientSession) -> None:
        with self._cond:
            if session.closed:
                return
            session.closed = True
            self.stats.sessions_closed += 1
            for ticket in session._tickets.values():
                ticket.cancelled = True
                if ticket.handle is not None and not ticket.handle.done:
                    ticket.handle.cancel()
            self._cond.notify_all()

    # -- stats ----------------------------------------------------------------------
    def stats_snapshot(self) -> dict[str, Any]:
        """Service counters plus the scheduler's and the shared caches'."""
        sched = self._scheduler.stats
        with self._cond:
            snapshot = self.stats.as_dict()
        snapshot.update(
            rounds=sched.rounds,
            contexts_serviced=sched.contexts_serviced,
            lm_wall_ms=sched.lm_wall_ms,
            compile_ms=sched.compile_ms,
            checkpoints_written=sched.checkpoints_written,
            queries_resumed=sched.queries_resumed,
        )
        cache = self.compiler.cache
        if cache is not None:
            snapshot["compile_memory_hits"] = cache.hits
            snapshot["compile_memory_misses"] = cache.misses
        disk = self.compiler.disk_cache
        if disk is not None:
            snapshot["compile_disk"] = disk.stats()
        snapshot["logits_hits"] = self.logits_cache.hits
        snapshot["logits_misses"] = self.logits_cache.misses
        prefix = getattr(self.model, "prefix_cache", None)
        if prefix is not None:
            snapshot["prefix_hits"] = prefix.hits
            snapshot["prefix_misses"] = prefix.misses
        snapshot["draining"] = self._draining
        return snapshot

    def stats_frame(self) -> dict[str, Any]:
        """The ``stats`` response frame."""
        return {"type": "stats", "stats": self.stats_snapshot()}

    def _end_wave(self) -> None:
        """Close the wave the scheduler holds: checkpoint it, count it, and
        forget its finished handles (caches stay warm).  Lock held by
        caller."""
        sched = self._scheduler
        if not sched.queries:  # nothing since the last wave, or only failed compiles
            return
        # A wave that finished a query of its own has something to persist,
        # even if warm caches answered it without a single round; one that
        # only replayed a checkpoint must not overwrite it.
        ran = any(sq.done and not sq.resumed for sq in sched.queries)
        if self.checkpoint_path is not None and ran:
            try:
                sched.save_checkpoint()
            except Exception as exc:  # pragma: no cover - disk full etc.
                warnings.warn(f"wave checkpoint failed: {exc}", RuntimeWarning)
        self.stats.generations += 1
        sched.forget_finished()

    # -- the engine thread -----------------------------------------------------------
    def _run(self) -> None:
        try:
            while True:
                with self._cond:
                    while not self._work_available():
                        self._cond.wait(timeout=0.5)
                    stop = self._stop_requested
                    pending = list(self._pending)
                    self._pending.clear()
                for ticket in pending:
                    self._admit(ticket)
                try:
                    self._unfinished = self._scheduler.step()
                except Exception as exc:
                    self._engine_failure(exc)
                self._account_lm_usage()
                with self._cond:
                    self._flush(force=stop)
                    if not self._unfinished:
                        self._end_wave()
                if stop and self._handle_stop():
                    return
        finally:
            self._stopped.set()

    def _work_available(self) -> bool:
        """Lock held.  Anything for the engine to do right now?"""
        if self._stop_requested or self._pending or self._unfinished:
            return True
        for ticket in self._active:
            if ticket.done_sent or ticket.session.closed:
                continue
            handle = ticket.handle
            if handle is None:
                continue
            undelivered = len(handle.results) - ticket.cursor
            if undelivered > 0 and ticket.credit > 0:
                return True
            if handle.done and undelivered == 0:
                return True
            if ticket.cancelled:
                return True
        return False

    def _admit(self, ticket: _Ticket) -> None:
        """Quota gate, then hand the query to the scheduler (whose submit
        compiles it; a compile error is a terminal ``rejected``)."""
        session = ticket.session
        with self._cond:
            if session.closed:
                return
            if ticket.cancelled:
                self._emit_done(ticket, "cancelled", "cancelled")
                return
            if self._draining:
                self._emit_done(ticket, "rejected", "draining")
                return
            inflight = sum(
                1
                for t in self._active
                if t.session is session and not t.done_sent
            )
            if inflight >= self.max_inflight:
                self._emit_done(ticket, "rejected", "quota_inflight")
                return
            if self.lm_calls_per_minute is not None:
                now = self.clock()
                usage = session.lm_usage
                while usage and now - usage[0][0] > 60.0:
                    usage.popleft()
                if sum(n for _, n in usage) >= self.lm_calls_per_minute:
                    self._emit_done(ticket, "rejected", "quota_lm_rate")
                    return
        # Compile (inside submit) outside the lock; a failed submit leaves
        # nothing registered in the scheduler.
        try:
            handle = self._scheduler.submit(ticket.query, budget=ticket.budget, name=ticket.name)
        except Exception as exc:
            with self._cond:
                self._emit_done(ticket, "rejected", f"compile: {exc}")
            return
        with self._cond:
            ticket.handle = handle
            if ticket.cancelled and not handle.done:
                handle.cancel()
            self._active.append(ticket)
            self.stats.queries_admitted += 1

    def _account_lm_usage(self) -> None:
        """Attribute per-query LM-call deltas to the rate-quota windows."""
        if self.lm_calls_per_minute is None:
            return
        now = self.clock()
        with self._cond:
            for ticket in self._active:
                handle = ticket.handle
                if handle is None:
                    continue
                delta = handle.stats.lm_calls - ticket.lm_seen
                if delta > 0:
                    ticket.lm_seen = handle.stats.lm_calls
                    ticket.session.lm_usage.append((now, delta))

    def _flush(self, force: bool = False) -> None:
        """Deliver new matches (within window credit), progress, and
        terminal frames.  Lock held by caller.  ``force=True`` (drain)
        ignores credit so shutdown never strands buffered matches."""
        still_active: list[_Ticket] = []
        for ticket in self._active:
            handle = ticket.handle
            session = ticket.session
            if ticket.done_sent or session.closed or handle is None:
                if not ticket.done_sent and session.closed:
                    ticket.done_sent = True  # nobody left to tell
                continue
            results = handle.results
            undelivered = len(results) - ticket.cursor
            budget = undelivered if force else min(undelivered, ticket.credit)
            for match in results[ticket.cursor : ticket.cursor + budget]:
                session.deliver(
                    {
                        "type": "match",
                        "id": ticket.wire_id,
                        "seq": ticket.seq,
                        "match": protocol.match_to_wire(match),
                    }
                )
                ticket.seq += 1
            ticket.cursor += budget
            if not force:
                ticket.credit -= budget
            self.stats.matches_streamed += budget
            undelivered = len(results) - ticket.cursor
            if undelivered > 0 and ticket.credit == 0 and not force:
                if not ticket.stalled:
                    ticket.stalled = True
                    self.stats.backpressure_stalls += 1
            else:
                ticket.stalled = False
            if handle.done and undelivered == 0:
                if ticket.failure is not None:
                    self._emit_done(ticket, "interrupted", ticket.failure)
                else:
                    status = _STATUS_BY_REASON.get(handle.truncated_reason, "truncated")
                    self._emit_done(ticket, status, handle.truncated_reason)
                continue
            if handle.done and ticket.cancelled:
                # A client-side cancel drops the undelivered tail — even of
                # a query that finished on its own before the cancel landed:
                # the client asked to stop consuming, so the terminal frame
                # must not wait behind matches it will never grant credit for.
                self._emit_done(ticket, "cancelled", "cancelled")
                continue
            lm_calls = handle.stats.lm_calls
            if lm_calls != ticket.progress_lm_calls:
                ticket.progress_lm_calls = lm_calls
                ticket.progress_turns += 1
            if ticket.progress_turns >= self.progress_every:
                ticket.progress_turns = 0
                session.deliver(
                    {
                        "type": "progress",
                        "id": ticket.wire_id,
                        "rounds": handle.stats.scheduler_rounds,
                        "lm_calls": lm_calls,
                        "matches": len(results),
                        "delivered": ticket.cursor,
                    }
                )
            still_active.append(ticket)
        self._active = still_active

    def _emit_done(self, ticket: _Ticket, status: str, reason: str | None) -> None:
        """Send the terminal frame and account the outcome.  Lock held.

        For a query that reached the scheduler the frame's ``stats`` carry
        its own counters plus ``compile_source`` — where its one compile
        came from (:attr:`CompileMetrics.source`: ``"cold"``, ``"memory"``
        or ``"disk"``).
        """
        ticket.done_sent = True
        counters = {
            "ok": "queries_completed",
            "truncated": "queries_truncated",
            "cancelled": "queries_cancelled",
            "rejected": "queries_rejected",
            "interrupted": "queries_interrupted",
        }
        setattr(self.stats, counters[status], getattr(self.stats, counters[status]) + 1)
        handle = ticket.handle
        frame: dict[str, Any] = {
            "type": "done",
            "id": ticket.wire_id,
            "status": status,
            "matches": ticket.cursor,
        }
        if reason is not None:
            frame["reason"] = reason
        if handle is not None:
            metrics = handle.compiled.metrics
            frame["stats"] = {
                "lm_calls": handle.stats.lm_calls,
                "scheduler_rounds": handle.stats.scheduler_rounds,
                "logits_hits": handle.stats.logits_hits,
                "logits_misses": handle.stats.logits_misses,
                "compile_source": metrics.source if metrics is not None else None,
                "resumed": handle.resumed,
            }
            if handle.latency is not None:
                frame["latency_ms"] = round(1000.0 * handle.latency, 3)
        ticket.session.deliver(frame)

    def _engine_failure(self, exc: Exception) -> None:
        """A scheduler turn crashed: stop every unfinished query — each one
        a client did not cancel ends ``interrupted`` with reason
        ``engine: <exc>`` — and keep the scheduler for the next submit."""
        warnings.warn(f"service engine round failed: {exc!r}", RuntimeWarning)
        sched = self._scheduler
        with self._cond:
            for ticket in self._active:
                if not ticket.cancelled and not ticket.handle.done:
                    ticket.failure = f"engine: {exc}"
            for sq in sched.queries:
                sq.cancel()
        # A cancelled query finishes at its next turn without an LM call.
        self._unfinished = sched.step()

    def _handle_stop(self) -> bool:
        """Drain semantics; returns True when the engine should exit."""
        with self._cond:
            if self._unfinished and self.checkpoint_path is None:
                # No durable story: keep stepping until in-flight work ends.
                return False
            if self._unfinished:
                # Checkpoint at the round boundary we are already on, then
                # tell the affected clients their queries were interrupted.
                try:
                    self._scheduler.save_checkpoint()
                except Exception as exc:  # pragma: no cover - disk full etc.
                    warnings.warn(f"drain checkpoint failed: {exc}", RuntimeWarning)
                for ticket in self._active:
                    if ticket.done_sent or ticket.session.closed:
                        continue
                    handle = ticket.handle
                    if handle is not None and not handle.done:
                        self._emit_done(ticket, "interrupted", "draining")
                self._active = [t for t in self._active if not t.done_sent]
            for ticket in self._pending:
                if not ticket.session.closed:
                    self._emit_done(ticket, "rejected", "draining")
            self._pending.clear()
            self._end_wave()
            return True
