"""Atomic on-disk snapshots of long-running scheduler sweeps.

The sweeps the paper cares about — millions of constrained LM calls per
query set — run for hours, and the replication study names interruption
the dominant practical obstacle.  This module gives
:class:`~repro.core.scheduler.QueryScheduler` a durable notion of
progress: after every ``checkpoint_every`` completed rounds it serializes
(a) every query's completion state — matched results, truncation verdict,
per-query stats — and (b) a bounded, newest-first slice of the shared
:class:`~repro.lm.base.LogitsCache` rows.  On resume, queries that had
already finished are restored verbatim (their generators never run), and
queries that were mid-flight are re-run *against the preloaded cache*, so
replaying them costs cache hits instead of model evaluations and — because
constrained decoding over a fixed model is deterministic — reproduces the
interrupted run's results bit-identically.

Why query granularity rather than pickling suspended traversals: the
executor's frontiers are live generators (not picklable by design), and
freezing them would couple the snapshot format to every internal of the
traversal state machine.  Completed-query state plus the logits overlay is
a small, stable, versioned surface that makes resume *cheap* without
making the format fragile.

Snapshots are written atomically — a temp file in the destination
directory, flushed, fsynced, then :func:`os.replace`'d — so a crash or
SIGKILL mid-write can never corrupt the previous good checkpoint, and a
reader can never observe a partial file.

Queries are matched to snapshots by a content fingerprint
(:func:`query_fingerprint`), not by position, so a resumed run tolerates
reordered or extended query lists: anything unrecognised simply runs
fresh.
"""

from __future__ import annotations

import hashlib
import os
import pickle
import tempfile
from dataclasses import dataclass, field
from typing import Any

import numpy as np

__all__ = [
    "CHECKPOINT_VERSION",
    "QuerySnapshot",
    "RunCheckpoint",
    "query_fingerprint",
    "save_checkpoint",
    "load_checkpoint",
]

#: Bump when the pickled layout changes incompatibly; ``load_checkpoint``
#: rejects mismatches instead of resuming from garbage.
CHECKPOINT_VERSION = 1


def query_fingerprint(query: Any) -> str:
    """Stable content fingerprint used to match snapshots to queries.

    Built from ``repr(query)`` — for :class:`~repro.core.query.Query`
    dataclasses that covers the pattern and every decoding knob — so the
    same query text resubmitted in a resumed run finds its snapshot
    regardless of submission order.  Identical queries submitted twice
    get matched to snapshots in submission order (first come, first
    restored)."""
    return hashlib.sha256(repr(query).encode("utf-8")).hexdigest()[:16]


@dataclass
class QuerySnapshot:
    """One query's durable completion state.

    ``done=False`` snapshots exist only to carry bookkeeping (the query
    was admitted but unfinished); resume re-runs those from scratch.
    ``stats`` is the flat ``as_dict`` form of the query's
    :class:`~repro.core.results.ExecutionStats` — a dict, not the
    dataclass, so old checkpoints keep loading when stats grow fields.
    """

    name: str
    fingerprint: str
    done: bool
    truncated: bool = False
    truncated_reason: str | None = None
    results: list[Any] = field(default_factory=list)
    stats: dict[str, Any] = field(default_factory=dict)
    latency: float = 0.0


@dataclass
class RunCheckpoint:
    """A whole sweep's snapshot: per-query state plus a logits overlay.

    ``cache_rows`` is an oldest-first list of ``(row_key, row)`` pairs
    from the shared :class:`~repro.lm.base.LogitsCache` (the newest 64 MiB
    at most); preloading it on resume is what makes re-running interrupted
    queries cheap.  Rows saved under whole
    contexts (before the cache keyed by ``row_key``) preload just as well.
    """

    version: int = CHECKPOINT_VERSION
    rounds_completed: int = 0
    queries: list[QuerySnapshot] = field(default_factory=list)
    cache_rows: list[tuple[tuple[int, ...], np.ndarray]] = field(default_factory=list)


def save_checkpoint(path: str, checkpoint: RunCheckpoint) -> None:
    """Atomically write *checkpoint* to *path*.

    The temp file lives in *path*'s directory so the final
    :func:`os.replace` is a same-filesystem rename — atomic on POSIX.  On
    any failure the temp file is removed and the previous checkpoint at
    *path* (if any) is left untouched.
    """
    directory = os.path.dirname(os.path.abspath(path)) or "."
    fd, tmp_path = tempfile.mkstemp(dir=directory, prefix=".ckpt-", suffix=".tmp")
    try:
        with os.fdopen(fd, "wb") as handle:
            pickle.dump(checkpoint, handle, protocol=pickle.HIGHEST_PROTOCOL)
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(tmp_path, path)
    except BaseException:
        try:
            os.unlink(tmp_path)
        except OSError:
            pass
        raise


def load_checkpoint(path: str) -> RunCheckpoint:
    """Load and validate a checkpoint written by :func:`save_checkpoint`.

    Raises ``ValueError`` for files that are not checkpoints or carry an
    incompatible :data:`CHECKPOINT_VERSION`; propagates ``OSError`` for
    missing/unreadable paths.
    """
    with open(path, "rb") as handle:
        loaded = pickle.load(handle)
    if not isinstance(loaded, RunCheckpoint):
        raise ValueError(f"{path!r} is not a scheduler checkpoint")
    if loaded.version != CHECKPOINT_VERSION:
        raise ValueError(
            f"checkpoint {path!r} has version {loaded.version}, "
            f"this build reads version {CHECKPOINT_VERSION}"
        )
    return loaded
