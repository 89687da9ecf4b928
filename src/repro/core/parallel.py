"""Process-parallel LM evaluation with shared-memory logits transport.

The scheduler (PR 2) already coalesces every query's frontier into one
deduped context set per round, and the prefix-state cache (PR 3) makes each
context cheap — but every logit was still computed serially in one Python
process on one core.  This module shards a coalesced round across ``N``
``multiprocessing`` workers, the reproduction's stand-in for the paper's
"scheduling massive sets of test vectors on accelerators" (Kuchnik et al.,
MLSys 2023, §3.3): one round = one dispatch, split into contiguous shards.

Design notes:

* **Replicas, not pickled closures.**  Each worker builds a private model
  replica exactly once from the live model's picklable
  :meth:`~repro.lm.base.LanguageModel.spec` (weights + config; derived
  caches are stripped and regrown worker-side).  Workers keep no logits
  cache of their own: the parent only ships contexts its own
  :class:`~repro.lm.base.LogitsCache` missed.
* **Zero-copy transport.**  Workers write logit rows straight into
  ``multiprocessing.shared_memory`` blocks created — and eventually
  unlinked — by the parent; only tiny ``(task_id, segment_name)`` control
  messages cross the queues.  Segments are pooled and reused round to
  round, so steady-state rounds allocate nothing.
* **Bit-identical results.**  Shards are contiguous slices of the round's
  context list, each evaluated by ``model.logprobs_batch`` exactly as the
  serial path would; rows are reassembled in dispatch order.  Models whose
  rows are computed independently per context (the n-gram's CSR block) are
  bit-identical under any sharding; batched-GEMM models (the NumPy
  transformer) can differ in the last ulp because BLAS summation shapes
  change with batch size.
* **Adaptive shard sizing.**  Rounds smaller than ``min_shard_size * 2``
  contexts fall back to in-process evaluation — no IPC, no shared-memory
  traffic — so tiny rounds (single-query random sampling) pay nothing.
* **Supervision, not crash-propagation.**  A worker that dies, errors, or
  blows the ``shard_timeout`` deadline no longer poisons the run: the
  failed shard is retried with exponential backoff on a respawned worker,
  and after ``max_retries`` attempts it is evaluated in-process instead
  (a *degraded* shard — slow, never wrong).  Only a degraded shard that
  fails in-process too raises, and marks the pool broken.  Because a
  shard's contexts always reach the same ``logprobs_batch`` evaluation
  whichever process finally serves them, supervision never changes a
  result.  A :class:`~repro.core.faults.FaultPlan` can deterministically
  inject crash/hang/slow/error faults on chosen (round, shard) deliveries,
  which is how CI exercises every recovery path.
"""

from __future__ import annotations

import multiprocessing as mp
from multiprocessing import connection as mp_conn
import time
import weakref
from dataclasses import dataclass, field
from typing import Any, Sequence

import numpy as np

from repro.core.faults import FaultPlan, FaultSpec
from repro.lm.base import LanguageModel, ModelSpec

__all__ = ["WorkerPool"]

#: Smallest shared-memory segment we bother creating (segments are pooled
#: by rounded-up size, so a generous floor maximises reuse).
_MIN_SEGMENT_BYTES = 1 << 16

#: How long queue polls wait before re-checking worker liveness.  Short
#: enough that a killed worker surfaces promptly; long enough to stay off
#: the CPU while workers compute.
_POLL_SECONDS = 0.1

#: Startup handshake budget — covers unpickling a large model replica.
_STARTUP_TIMEOUT_SECONDS = 120.0

#: Upper bound on one retry's backoff sleep (the sleep doubles per attempt).
_BACKOFF_CAP_SECONDS = 2.0


def _attach_segment(name: str) -> Any:
    """Attach to an existing shared-memory segment without claiming
    ownership for this process's ``resource_tracker``.

    The parent creates and unlinks every segment exactly once.  Under the
    Linux ``fork`` start method workers share the parent's tracker, so a
    plain attach is already clean; CPython 3.13+ additionally exposes
    ``track=False``, which keeps spawn-started workers (the macOS default)
    from warning about "leaked" segments the parent still owns.
    """
    from multiprocessing import resource_tracker, shared_memory

    try:
        # Attach-only; the parent owns close/unlink for every segment.
        return shared_memory.SharedMemory(  # type: ignore[call-arg] # det: ok
            name=name, track=False
        )
    except TypeError:
        # Python < 3.13 has no ``track`` parameter and registers the
        # segment with this process's tracker even on attach — which makes
        # a worker's tracker warn about (or, under spawn, unlink!) the
        # parent's live segments when the worker exits.  Suppress the
        # registration for the duration of the attach.
        original_register = resource_tracker.register
        resource_tracker.register = lambda name, rtype: None  # type: ignore[assignment]
        try:
            return shared_memory.SharedMemory(name=name)
        finally:
            resource_tracker.register = original_register


def _worker_main(
    spec: ModelSpec,
    worker_index: int,
    task_queue: Any,
    result_conn: Any,
) -> None:
    """Worker loop: build one replica, then serve shard tasks forever.

    Protocol (all messages are ``(kind, task_id, payload)`` tuples):

    * parent -> worker: ``(task_id, segment_name, n_rows, contexts, fault)``,
      or ``None`` to shut down.  ``fault`` is an injected
      :class:`~repro.core.faults.FaultSpec` (or ``None``), executed just
      before the shard is evaluated.
    * worker -> parent: ``("ready", -1, worker_index)`` once the replica
      is built; ``("ok", task_id, None)`` after writing a shard's rows
      into its segment; ``("error", task_id, detail)`` on evaluation
      failure; ``("fatal", -1, detail)`` if the replica cannot be built.

    Results travel over a **per-worker pipe**, not a shared queue, and
    that choice is load-bearing for supervision: a ``multiprocessing``
    queue write holds a cross-process lock in a background feeder thread,
    so a worker dying mid-``put`` (a SIGKILL landing during the flush of
    an earlier message) would strand the lock and deadlock every other
    worker's sends.  ``Connection.send`` runs synchronously in this
    thread — when it returns the frame is fully written — and each worker
    owns its pipe, so an abrupt death can never block anyone else.
    """

    def _send(msg: tuple[str, int, Any]) -> None:
        try:
            result_conn.send(msg)
        except (BrokenPipeError, OSError):
            raise SystemExit(1)  # parent is gone; nothing left to serve

    try:
        model = spec.build()
        _send(("ready", -1, worker_index))
    except SystemExit:
        return
    except BaseException as exc:  # startup failure must not hang the parent
        _send(("fatal", -1, f"{type(exc).__name__}: {exc}"))
        return
    segments: dict[str, Any] = {}
    try:
        while True:
            task = task_queue.get()
            if task is None:
                break
            task_id, segment_name, n_rows, contexts, fault = task
            try:
                if fault is not None:
                    fault.execute()
                rows = model.logprobs_batch(contexts)
                shm = segments.get(segment_name)
                if shm is None:
                    shm = _attach_segment(segment_name)
                    segments[segment_name] = shm
                out = np.ndarray(
                    (n_rows, model.vocab_size), dtype=np.float64, buffer=shm.buf
                )
                for r, row in enumerate(rows):
                    out[r] = row
                del out
                _send(("ok", task_id, None))
            except SystemExit:
                return
            except BaseException as exc:
                _send(("error", task_id, f"{type(exc).__name__}: {exc}"))
    finally:
        for shm in segments.values():
            try:
                shm.close()
            except Exception:
                pass


class _SegmentPool:
    """Parent-owned pool of shared-memory segments, reused across rounds.

    Segments are created on demand (size rounded up to a power of two) and
    returned to the free list after each round; :meth:`destroy` closes
    and unlinks every segment ever created.  The parent is the sole owner:
    workers only ever attach, so there is exactly one unlink per segment.
    """

    def __init__(self) -> None:
        self._free: list[Any] = []
        self._all: list[Any] = []

    def acquire(self, nbytes: int) -> Any:
        best = None
        for shm in self._free:
            if shm.size >= nbytes and (best is None or shm.size < best.size):
                best = shm
        if best is not None:
            self._free.remove(best)
            return best
        from multiprocessing import shared_memory

        size = max(nbytes, _MIN_SEGMENT_BYTES)
        size = 1 << (size - 1).bit_length()
        shm = shared_memory.SharedMemory(create=True, size=size)  # det: ok (destroy())
        self._all.append(shm)
        return shm

    def release(self, shm: Any) -> None:
        self._free.append(shm)

    def names(self) -> list[str]:
        return [shm.name for shm in self._all]

    def destroy(self) -> None:
        for shm in self._all:
            try:
                shm.close()
            except Exception:
                pass
            try:
                shm.unlink()
            except Exception:
                pass
        self._all.clear()
        self._free.clear()


def _shutdown_resources(
    procs: list[Any],
    task_queues: list[Any],
    result_conns: list[Any],
    segments: _SegmentPool,
) -> None:
    """Tear down pool resources; idempotent and safe from a finalizer.

    Every step is individually guarded: a worker that was SIGKILLed, a
    queue whose feeder thread already died, or a segment unlinked by an
    earlier call must never turn shutdown into a raise.
    """
    for q in task_queues:
        try:
            q.put_nowait(None)
        except Exception:
            pass
    for proc in procs:
        try:
            proc.join(timeout=5.0)
        except Exception:
            pass
    for proc in procs:
        try:
            if proc.is_alive():
                proc.terminate()
                proc.join(timeout=5.0)
        except Exception:
            pass
    for q in task_queues:
        try:
            q.close()
            q.cancel_join_thread()
        except Exception:
            pass
    for conn in result_conns:
        try:
            if conn is not None:
                conn.close()
        except Exception:
            pass
    try:
        segments.destroy()
    except Exception:
        pass


@dataclass
class _Shard:
    """One contiguous slice of a round, in flight on one worker.

    Carries everything a retry needs: the contexts themselves (so a
    respawned worker — or the in-process degraded fallback — can re-evaluate
    them), the round/shard coordinates the fault plan keys on, and the
    delivery ``attempts`` count the supervisor budgets against."""

    task_id: int
    worker_index: int
    segment: Any
    n_rows: int
    contexts: list[tuple[int, ...]] = field(default_factory=list)
    round_index: int = 0
    shard_index: int = 0
    n_shards: int = 1
    attempts: int = 0
    deadline: float | None = None
    degraded: bool = False


class WorkerPool:
    """An LM-evaluation service sharding logits rounds across processes.

    ``model`` is the live :class:`~repro.lm.base.LanguageModel`: its
    :meth:`~repro.lm.base.LanguageModel.spec` is shipped to workers and the
    instance itself serves inline and degraded evaluations.  With
    ``workers <= 1`` no processes are spawned and every round is evaluated
    in-process — the pool is then a zero-overhead pass-through, which keeps
    call sites branch-free.  Attach a pool with ``worker_pool=`` on
    :class:`~repro.core.scheduler.QueryScheduler`,
    :func:`~repro.core.api.search_many` or the service.

    ``min_shard_size`` is the adaptive sizer's floor: a round is sharded
    into at most ``workers`` contiguous chunks of at least that many
    contexts, and rounds too small for two such chunks run inline.

    **Supervision** (``max_retries`` ≥ 0, ``backoff_base``, ``shard_timeout``
    > 0 or ``None`` for no deadline): a shard whose worker dies, errors, or
    misses the ``shard_timeout`` deadline is retried on a freshly respawned
    worker, sleeping ``min(2.0, backoff_base * 2**(attempt-1))`` seconds
    between attempts; after ``max_retries`` failed deliveries the shard is
    evaluated in-process (degraded — slow, never wrong).  Only a degraded
    shard that fails in-process too raises ``RuntimeError`` and marks the
    pool broken.  Counters: :attr:`retries`, :attr:`respawns`,
    :attr:`degraded_shards`, :attr:`degraded_rounds`.  ``fault_plan``
    deterministically injects failures for testing (see
    :mod:`repro.core.faults`).

    Use as a context manager, or call :meth:`shutdown`; a ``weakref``
    finalizer reclaims processes and shared-memory segments if neither
    happens.  :meth:`shutdown` is idempotent and never raises — not even
    after worker crashes.
    """

    def __init__(
        self,
        model: LanguageModel,
        workers: int,
        *,
        min_shard_size: int = 8,
        max_retries: int = 2,
        backoff_base: float = 0.05,
        shard_timeout: float | None = None,
        fault_plan: FaultPlan | None = None,
    ) -> None:
        if not isinstance(model, LanguageModel):
            raise TypeError(f"WorkerPool needs a live LanguageModel, got {type(model).__name__}")
        if not isinstance(max_retries, int) or max_retries < 0:
            raise ValueError(f"max_retries must be an int >= 0, got {max_retries!r}")
        if shard_timeout is not None and not shard_timeout > 0:
            raise ValueError(f"shard_timeout must be > 0 seconds or None, got {shard_timeout!r}")
        self._model = model
        self._spec: ModelSpec | None = model.spec() if workers > 1 else None
        self.workers = max(1, int(workers))
        self.min_shard_size = max(1, int(min_shard_size))
        self.vocab_size = model.vocab_size
        self.eos_id = model.eos_id
        self.max_retries = max_retries
        self.backoff_base = backoff_base
        self.shard_timeout = shard_timeout
        self.fault_plan = fault_plan
        self.rounds = 0
        self.parallel_rounds = 0
        self.inline_rounds = 0
        self.shards_dispatched = 0
        self.contexts_evaluated = 0
        self.wall_ms = 0.0
        #: Supervision counters: shard re-deliveries, worker process
        #: respawns, shards that fell back to in-process evaluation after
        #: exhausting retries, rounds containing at least one such shard,
        #: and faults the plan injected (testing).
        self.retries = 0
        self.respawns = 0
        self.degraded_shards = 0
        self.degraded_rounds = 0
        self.faults_injected = 0
        self._closed = False
        self._broken = False
        self._next_task_id = 0
        self._round_index = 0
        #: Live shards by their *current* task_id; messages for task_ids not
        #: in here are stale (a retried delivery superseded them) and are
        #: dropped by the message pump.
        self._live: dict[int, _Shard] = {}
        self._stash: dict[int, tuple[str, int, Any]] = {}
        self._segments = _SegmentPool()
        self._ctx: Any = None
        self._procs: list[Any] = []
        self._task_queues: list[Any] = []
        #: Per-worker result pipes (parent read ends).  One pipe per worker
        #: — never a shared queue — so a worker SIGKILLed mid-send can only
        #: ever lose its own message, not wedge the transport for everyone
        #: (see :func:`_worker_main`).  An entry goes ``None`` once its
        #: read end hits EOF; :meth:`_respawn` installs a fresh pipe.
        self._result_conns: list[Any] = []
        if self.workers > 1:
            assert self._spec is not None
            self._ctx = mp.get_context()  # the platform's default start method
            self._task_queues = [self._ctx.Queue() for _ in range(self.workers)]
            self._result_conns = [None] * self.workers
            for i in range(self.workers):
                proc = self._spawn_worker(i)
                self._procs.append(proc)
        self._finalizer = weakref.finalize(
            self,
            _shutdown_resources,
            self._procs,
            self._task_queues,
            self._result_conns,
            self._segments,
        )
        if self._procs:
            try:
                self._await_ready()
            except BaseException:
                self.shutdown()
                raise

    # -- lifecycle -----------------------------------------------------------
    def _spawn_worker(self, index: int) -> Any:
        """Start worker *index* on its current task queue and a fresh
        result pipe; the parent keeps the read end, the worker the write
        end (the parent's copy of which is closed so EOF is observable)."""
        read_end, write_end = self._ctx.Pipe(duplex=False)
        self._result_conns[index] = read_end
        proc = self._ctx.Process(
            target=_worker_main,
            args=(
                self._spec,
                index,
                self._task_queues[index],
                write_end,
            ),
            daemon=True,
            name=f"relm-eval-{index}",
        )
        proc.start()
        write_end.close()
        return proc

    def _await_ready(self) -> None:
        """Block until every worker reports its replica built."""
        pending = set(range(self.workers))
        deadline = time.monotonic() + _STARTUP_TIMEOUT_SECONDS
        while pending:
            if time.monotonic() > deadline:
                raise RuntimeError("worker pool startup timed out")
            got = False
            for i, msg in self._poll_conns(_POLL_SECONDS):
                got = True
                kind, _, payload = msg
                if kind == "fatal":
                    raise RuntimeError(f"worker failed to start: {payload}")
                if kind == "ready":
                    pending.discard(payload)
            if not got:
                for i, proc in enumerate(self._procs):
                    if i in pending and not proc.is_alive():
                        raise RuntimeError(
                            f"worker {i} died (exit code {proc.exitcode}) during startup"
                        )

    def shutdown(self) -> None:
        """Stop all workers and unlink every shared-memory segment.

        Idempotent and exception-free — safe to call repeatedly, after
        worker crashes, and from ``finally`` blocks; after shutdown
        :meth:`logprobs_batch` raises.
        """
        if self._closed:
            return
        self._closed = True
        try:
            self._finalizer()
        except Exception:
            pass

    def __enter__(self) -> "WorkerPool":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.shutdown()

    @property
    def closed(self) -> bool:
        return self._closed

    def segment_names(self) -> list[str]:
        """Names of every shared-memory segment the pool has created."""
        return self._segments.names()

    def stats(self) -> dict[str, int | float]:
        """Plain-dict counter view for logging/reporting.

        Counters are pool-lifetime totals; a caller sharing the pool and
        wanting one run's share subtracts two snapshots.
        """
        return {
            "workers": self.workers,
            "rounds": self.rounds,
            "parallel_rounds": self.parallel_rounds,
            "inline_rounds": self.inline_rounds,
            "shards_dispatched": self.shards_dispatched,
            "contexts_evaluated": self.contexts_evaluated,
            "wall_ms": self.wall_ms,
            "retries": self.retries,
            "respawns": self.respawns,
            "degraded_shards": self.degraded_shards,
            "degraded_rounds": self.degraded_rounds,
            "faults_injected": self.faults_injected,
        }

    # -- evaluation ----------------------------------------------------------
    def logprobs_batch(self, contexts: Sequence[Sequence[int]]) -> list[np.ndarray]:
        """Evaluate one round of *contexts*; rows in input order.

        Contiguous shards go to workers ``0..k-1`` in order and are
        reassembled in that order; rounds the adaptive sizer deems too
        small are evaluated in-process.
        """
        if self._closed:
            raise RuntimeError("WorkerPool is closed")
        if self._broken:
            raise RuntimeError("WorkerPool is broken (a worker died or errored)")
        started = time.perf_counter()
        keys = [tuple(c) for c in contexts]
        self.rounds += 1
        self.contexts_evaluated += len(keys)
        sizes = self._shard_sizes(len(keys))
        if sizes is None:
            self.inline_rounds += 1
            inline = [np.asarray(r) for r in self._model.logprobs_batch(keys)]
            self.wall_ms += (time.perf_counter() - started) * 1e3
            return inline
        self.parallel_rounds += 1
        self.shards_dispatched += len(sizes)
        round_index = self._round_index
        self._round_index += 1
        row_bytes = self.vocab_size * 8
        shards: list[_Shard] = []
        offset = 0
        for shard_index, size in enumerate(sizes):
            chunk = keys[offset : offset + size]
            offset += size
            segment = self._segments.acquire(size * row_bytes)
            shard = _Shard(
                task_id=-1,
                worker_index=shard_index,
                segment=segment,
                n_rows=size,
                contexts=chunk,
                round_index=round_index,
                shard_index=shard_index,
                n_shards=len(sizes),
            )
            self._dispatch_shard(shard)
            shards.append(shard)
        rows: list[np.ndarray] = []
        for shard in shards:
            self._await(shard)
            view = np.ndarray(
                (shard.n_rows, self.vocab_size), dtype=np.float64, buffer=shard.segment.buf
            )
            for r in range(shard.n_rows):
                rows.append(view[r].copy())
            del view
            self._segments.release(shard.segment)
        if any(shard.degraded for shard in shards):
            self.degraded_rounds += 1
        self.wall_ms += (time.perf_counter() - started) * 1e3
        return rows

    # -- internals -----------------------------------------------------------
    def _shard_sizes(self, n: int) -> list[int] | None:
        """Contiguous shard sizes for an *n*-context round, or ``None`` to
        evaluate in-process (pool disabled, or round below the floor)."""
        if not self._procs or self._broken:
            return None
        n_shards = min(self.workers, n // self.min_shard_size)
        if n_shards < 2:
            return None
        base, extra = divmod(n, n_shards)
        return [base + 1 if i < extra else base for i in range(n_shards)]

    def _dispatch_shard(self, shard: _Shard) -> None:
        """Send (or resend) *shard* to its worker under a fresh task id."""
        task_id = self._next_task_id
        self._next_task_id += 1
        shard.task_id = task_id
        fault: FaultSpec | None = None
        if self.fault_plan is not None:
            fault = self.fault_plan.directive(
                shard.round_index, shard.shard_index, shard.n_shards, shard.attempts
            )
            if fault is not None:
                self.faults_injected += 1
        shard.deadline = (
            time.monotonic() + self.shard_timeout if self.shard_timeout is not None else None
        )
        self._live[task_id] = shard
        self._task_queues[shard.worker_index].put(
            (task_id, shard.segment.name, shard.n_rows, shard.contexts, fault)
        )

    def _await(self, shard: _Shard) -> None:
        """Wait for *shard* to be satisfied: a clean completion message, a
        supervised retry that eventually lands, or the in-process degraded
        fallback.  Never hangs: worker death is detected by liveness,
        hangs by the ``shard_timeout`` deadline."""
        while True:
            msg = self._stash.pop(shard.task_id, None)
            if msg is None:
                self._drain()
                msg = self._stash.pop(shard.task_id, None)
            if msg is not None:
                kind, _, payload = msg
                self._live.pop(shard.task_id, None)
                if kind == "ok":
                    return
                if self._failure(shard, f"worker evaluation failed: {payload}"):
                    return
                continue
            proc = self._procs[shard.worker_index]
            if not proc.is_alive():
                self._drain()
                if shard.task_id in self._stash:
                    continue  # completion raced in just before death
                self._live.pop(shard.task_id, None)
                detail = (
                    f"worker {shard.worker_index} died (exit code {proc.exitcode}) "
                    f"during a logits round"
                )
                if self._failure(shard, detail):
                    return
                continue
            if shard.deadline is not None and time.monotonic() > shard.deadline:
                self._live.pop(shard.task_id, None)
                detail = (
                    f"worker {shard.worker_index} missed the "
                    f"{self.shard_timeout}s shard deadline"
                )
                if self._failure(shard, detail):
                    return
                continue
            self._pump(_POLL_SECONDS)

    def _failure(self, shard: _Shard, detail: str) -> bool:
        """Handle one failed shard delivery.

        Respawns the shard's worker, then either re-dispatches the shard
        after an exponential-backoff sleep (returns ``False``: keep waiting)
        or — once retries are exhausted — evaluates it in-process into its
        segment (returns ``True``: satisfied).  An in-process failure marks
        the pool broken and raises."""
        shard.attempts += 1
        self._respawn(shard.worker_index)
        if shard.attempts > self.max_retries:
            self.degraded_shards += 1
            shard.degraded = True
            try:
                rows = self._model.logprobs_batch(shard.contexts)
            except Exception as exc:
                self._broken = True
                raise RuntimeError(
                    f"worker evaluation failed in-process too "
                    f"(after {shard.attempts - 1} retries): "
                    f"{type(exc).__name__}: {exc}; last worker failure: {detail}"
                ) from exc
            out = np.ndarray(
                (shard.n_rows, self.vocab_size), dtype=np.float64, buffer=shard.segment.buf
            )
            for r, row in enumerate(rows):
                out[r] = row
            del out
            return True
        self.retries += 1
        delay = min(_BACKOFF_CAP_SECONDS, self.backoff_base * (2 ** (shard.attempts - 1)))
        if delay > 0:
            time.sleep(delay)
        self._dispatch_shard(shard)
        return False

    def _respawn(self, worker_index: int) -> None:
        """Replace worker *worker_index* with a fresh process.

        The old process is terminated first (so it can never write into a
        segment a retry is about to reuse), its queue — which may still hold
        undelivered tasks — is abandoned, and every other live shard that
        was in flight on it is re-dispatched to the replacement."""
        proc = self._procs[worker_index]
        try:
            if proc.is_alive():
                proc.terminate()
                proc.join(timeout=5.0)
                if proc.is_alive():
                    proc.kill()
                    proc.join(timeout=5.0)
        except Exception:
            pass
        old_queue = self._task_queues[worker_index]
        try:
            old_queue.close()
            old_queue.cancel_join_thread()
        except Exception:
            pass
        # Drop the dead worker's result pipe unread: anything still in it is
        # from deliveries this respawn is superseding, hence stale by
        # construction (and _route would drop it by task_id anyway).
        old_conn = self._result_conns[worker_index]
        if old_conn is not None:
            try:
                old_conn.close()
            except Exception:
                pass
            self._result_conns[worker_index] = None
        self._task_queues[worker_index] = self._ctx.Queue()
        self._procs[worker_index] = self._spawn_worker(worker_index)
        self.respawns += 1
        # Collateral damage: shards queued on (or racing through) the dead
        # worker lost their task messages with its queue; re-deliver them to
        # the replacement.  Their attempt counts rise too, so a worker that
        # keeps dying cannot retry its passengers forever.
        for task_id, other in list(self._live.items()):
            if other.worker_index == worker_index:
                del self._live[task_id]
                self._stash.pop(task_id, None)
                other.attempts += 1
                self.retries += 1
                self._dispatch_shard(other)

    def _poll_conns(self, timeout: float) -> list[tuple[int, tuple[str, int, Any]]]:
        """One ``connection.wait`` pass over the live result pipes.

        Returns every ``(worker_index, message)`` that was ready within
        *timeout*.  A pipe at EOF (its worker died) is closed and nulled
        out — worker death itself is the :meth:`_await` liveness check's
        job, so EOF is not an error here, just the end of that pipe.
        """
        by_conn = {
            conn: i for i, conn in enumerate(self._result_conns) if conn is not None
        }
        if not by_conn:
            if timeout > 0:
                time.sleep(timeout)
            return []
        out: list[tuple[int, tuple[str, int, Any]]] = []
        for ready in mp_conn.wait(list(by_conn), timeout=timeout):
            index = by_conn[ready]
            try:
                out.append((index, self._result_conns[index].recv()))
            except (EOFError, OSError):
                try:
                    self._result_conns[index].close()
                except Exception:
                    pass
                self._result_conns[index] = None
        return out

    def _pump(self, timeout: float) -> None:
        """One poll of the result pipes; routes messages to the stash."""
        for _, incoming in self._poll_conns(timeout):
            self._route(incoming)

    def _drain(self) -> None:
        """Route every message currently sitting in the result pipes."""
        while True:
            batch = self._poll_conns(0)
            if not batch:
                return
            for _, incoming in batch:
                self._route(incoming)

    def _route(self, incoming: tuple[str, int, Any]) -> None:
        kind, task_id, _ = incoming
        if kind in ("ready", "fatal"):
            # Respawn handshakes; a fatal worker exits and is then caught
            # by the liveness check of whichever shard awaits it.
            return
        if task_id in self._live:
            self._stash[task_id] = incoming
        # else: stale completion from a superseded delivery — dropped.

