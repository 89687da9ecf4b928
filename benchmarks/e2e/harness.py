"""Shared machinery of the relm-e2e benchmark: the workload protocol, the
repetition loop, percentiles, digests and the metric tables.

A *workload* sets itself up (environment, model, server), then runs
back-to-back **repetitions of identical, fixed-count work from cold engine
state**.  Counts must repeat exactly.  Timings take the *quietest*
observation — throughput from the fastest repetition, each query's latency
as its minimum over the repetitions, ``setup_s`` from the fastest set-up —
because on the shared boxes this runs on, interference only ever adds time
(README, "Why the fastest repetition").  Repetitions continue until the
``--seconds`` measurement window is used up (at least
:data:`MIN_REPETITIONS`), so a slower box measures fewer repetitions of
the same work rather than different work.
"""

from __future__ import annotations

import gc
import hashlib
import json
import os
import resource
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Iterable

clock = time.perf_counter

HERE = Path(__file__).resolve().parent
REPO_ROOT = HERE.parents[1]

#: The substrate every workload runs against is fixed: ``--seed`` drives
#: the *generated queries* (item draw, pattern pool, Zipf sequence, sampling
#: seeds), never the corpus or the models, so runs at different seeds do
#: comparable work.
ENV_SEED = 0

#: Set-ups per run; ``setup_s`` reports the fastest (plus the one import).
SETUP_REPEATS = 2

#: Fewest repetitions a run measures, however short ``--seconds`` is.
MIN_REPETITIONS = 3

#: Row capacity of the logits cache every repetition starts with (the
#: scheduler's and the service's own default).
LOGITS_CACHE_ROWS = 65536


def load_contract() -> dict[str, Any]:
    """``BENCHMARK.json`` — the one place metric names and units live."""
    with open(REPO_ROOT / "BENCHMARK.json", encoding="utf-8") as handle:
        return json.load(handle)


@dataclass
class Repetition:
    """What one repetition produced.

    ``ops`` is the number of operations attempted, ``failed`` those that
    raised, were rejected/truncated by something other than their own
    result budget, or failed an inline check.  ``first_match_ms`` holds one
    submit/``prepare``→first-match latency per query.  ``digest`` is the
    sha256 of the ordered match stream; ``outputs`` is whatever the
    workload's :meth:`Workload.check` needs (kept for the first repetition
    only).  ``layers`` carries per-layer numbers of a traced repetition.
    """

    wall_s: float
    ops: int
    failed: int
    first_match_ms: list[float]
    digest: str
    outputs: Any = None
    layers: dict[str, float | None] = field(default_factory=dict)


class Workload:
    """Protocol of one benchmark workload (see ``workloads/``)."""

    name = ""

    def __init__(self, seed: int) -> None:
        self.seed = seed

    def setup(self, stages: dict[str, float]) -> None:
        """Build everything a repetition reuses; add per-stage seconds to
        *stages* (``corpus_s``-style keys without the ``setup.`` prefix)."""
        raise NotImplementedError

    def replay_setup(self, stages: dict[str, float]) -> None:
        """Traced runs only: time the public builders :meth:`setup` chains,
        adding their seconds to *stages* (outside ``setup_s``)."""

    def teardown(self) -> list[str]:
        """Release what :meth:`setup` opened (servers, threads); returns
        problems found while doing so (leaked threads, open ports)."""
        return []

    def run(self, tracer: Any | None) -> Repetition:
        """One repetition from cold engine state; with a *tracer*, the same
        work through the timing stand-ins of :mod:`tracing`."""
        raise NotImplementedError

    def replay_layers(self, tracer: Any) -> dict[str, float | None]:
        """Per-layer numbers obtained by replaying recorded work after the
        repetitions (compile stages, wire frames); ``None`` = stage raised."""
        return {}

    def check(self, rep: Repetition) -> list[str]:
        """Independent-oracle output checks, outside the timed region;
        returns human-readable problems (empty = correct)."""
        raise NotImplementedError


def run_repetitions(workload: Workload, seconds: float) -> list[Repetition]:
    """Untraced repetitions until *seconds* of measurement are used."""
    reps: list[Repetition] = []
    used = 0.0
    while len(reps) < MIN_REPETITIONS or used < seconds:
        gc.collect()  # every repetition starts from the same heap state
        rep = workload.run(None)
        if reps:
            rep.outputs = None  # digests prove later repetitions equal the first
        reps.append(rep)
        used += rep.wall_s
    return reps


def run_traced_pairs(
    workload: Workload, tracer: Any, seconds: float
) -> tuple[list[Repetition], list[Repetition]]:
    """Alternate untraced and traced repetitions until *seconds* are used.

    The untraced ones are the base of ``trace.overhead_share`` (fastest
    traced ÷ fastest untraced repetition − 1), measured in the same
    process seconds apart, so the overhead is not confounded with
    run-to-run drift.
    """
    plain: list[Repetition] = []
    traced: list[Repetition] = []
    used = 0.0
    while len(traced) < MIN_REPETITIONS - 1 or used < seconds:
        for how, into in ((None, plain), (tracer, traced)):
            gc.collect()
            rep = workload.run(how)
            if plain:
                rep.outputs = None
            into.append(rep)
            used += rep.wall_s
    return plain, traced


def quietest_latencies(per_repetition: list[list[float]]) -> list[float]:
    """One latency per query slot: its smallest value over the repetitions.

    Repetitions submit identical queries in identical order, so sample *i*
    of each is the same query.  Interference from outside the process only
    ever adds time, so the slot minimum keeps the spread *between* queries
    (what the percentiles are about) and drops the spread between
    repetitions.  Repetitions in which a query failed have fewer samples
    and are left out.
    """
    width = max(len(samples) for samples in per_repetition)
    complete = [samples for samples in per_repetition if len(samples) == width]
    return [min(slot) for slot in zip(*complete)]


def percentile(samples: Iterable[float], q: float) -> float:
    """Nearest-rank percentile (``q`` in 0..1) of a non-empty sample."""
    ordered = sorted(samples)
    if not ordered:
        raise ValueError("percentile of an empty sample")
    return ordered[min(len(ordered) - 1, int(q * (len(ordered) - 1) + 0.5))]


class Digest:
    """Incremental sha256 over an ordered stream of records."""

    def __init__(self) -> None:
        self._hash = hashlib.sha256()

    def add(self, *parts: Any) -> None:
        """Floats are hashed by ``repr`` — shortest round-trip form, the
        same text the wire protocol ships."""
        self._hash.update(("\x1f".join(map(repr, parts)) + "\n").encode("utf-8"))

    def hexdigest(self) -> str:
        return self._hash.hexdigest()


def peak_rss_mb() -> float:
    """``ru_maxrss`` of this process (the workload's own subprocess)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def shm_segments() -> set[str]:
    """Names under ``/dev/shm`` (worker-pool transport leaks show here)."""
    try:
        return set(os.listdir("/dev/shm"))
    except OSError:
        return set()
