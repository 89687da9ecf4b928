"""Per-layer metrics of one traced repetition, computed from the span
profile and from the public counters of the objects the repetition used.

Every function returns ``{metric name: number}``; :func:`assemble` fills
the names a workload did not produce with ``0`` (the layer was not
exercised) and keeps ``None`` where a replay stage raised.
"""

from __future__ import annotations

import sys
import traceback
from typing import Any, Iterable

from repro.core.compiler import GraphCompiler
from repro.core.results import SchedulerStats
from tracing import (
    COMPILE_STAGES,
    Tracer,
    arrays_nbytes,
    coverage,
    replay_compile_stages,
    self_ms,
    total_ms,
)

Profile = dict[str, dict[str, float]]


def counters(engine: Any) -> dict[str, int]:
    """Raw public counters of an engine's cache, model and compiler.

    A ``ColdEngine`` starts every one of them at zero; a long-lived
    service snapshots them before a repetition and passes the snapshot as
    *base* to :func:`engine_layers`.
    """
    prefix = engine.model.prefix_cache
    return {
        "logits_hits": engine.cache.hits,
        "logits_misses": engine.cache.misses,
        "forward_calls": engine.model.forward_calls,
        "forward_contexts": engine.model.forward_contexts,
        "prefix_hits": prefix.hits if prefix is not None else 0,
        "prefix_misses": prefix.misses if prefix is not None else 0,
        "prefix_evictions": prefix.evictions if prefix is not None else 0,
        "compile_hits": engine.compiler.cache.hits,
        "compile_misses": engine.compiler.cache.misses,
        "cold_compiles": len(engine.compiler.cold_queries),
    }


def engine_layers(
    profile: Profile,
    engine: Any,
    stats: Iterable[Any],
    ops: int,
    base: dict[str, int] | None = None,
) -> dict[str, float]:
    """Executor, decoding, logits-cache, LM, KV-cache and compile-cache
    numbers of a repetition run on a traced engine.  *stats* are the
    queries' ``ExecutionStats`` (or objects with the same attributes)."""
    stats = list(stats)
    now = counters(engine)
    delta = {key: value - (base[key] if base else 0) for key, value in now.items()}
    out: dict[str, float] = {}
    matches = sum(s.matches_yielded for s in stats)
    failed = sum(s.failed_attempts for s in stats)
    out["executor.expand_ms"] = self_ms(profile, "executor.expand")
    out["executor.nodes_expanded"] = sum(s.nodes_expanded for s in stats)
    out["executor.pruned_edges"] = sum(s.pruned_edges for s in stats)
    out["executor.matches_yielded"] = matches
    out["executor.failed_attempts"] = failed
    out["executor.accept_ratio"] = matches / (matches + failed) if matches + failed else 0.0
    out["executor.duplicates_suppressed"] = sum(s.duplicates_suppressed for s in stats)
    out["decoding.policy_ms"] = self_ms(profile, "decoding.policy")

    hits, misses = delta["logits_hits"], delta["logits_misses"]
    out["logits_cache.lookup_ms"] = self_ms(profile, "logits_cache.lookup")
    out["logits_cache.hits"] = hits
    out["logits_cache.misses"] = misses
    out["logits_cache.hit_ratio"] = hits / (hits + misses) if hits + misses else 0.0

    calls, contexts = delta["forward_calls"], delta["forward_contexts"]
    out["lm.forward_ms"] = self_ms(profile, "lm.forward")
    out["lm.forward_calls"] = calls
    out["lm.forward_contexts"] = contexts
    out["lm.mean_batch"] = contexts / calls if calls else 0.0
    out["lm.contexts_per_op"] = misses / ops if ops else 0.0

    touched = delta["prefix_hits"] + delta["prefix_misses"]
    out["state_cache.prefix_hits"] = delta["prefix_hits"]
    out["state_cache.prefix_misses"] = delta["prefix_misses"]
    out["state_cache.evictions"] = delta["prefix_evictions"]
    out["state_cache.hit_ratio"] = delta["prefix_hits"] / touched if touched else 0.0
    prefix = engine.model.prefix_cache
    out["state_cache.bytes"] = prefix.bytes if prefix is not None else 0

    out["compiler.compile_ms"] = total_ms(profile, "compiler.compile")
    out["compiler.queries_compiled"] = delta["cold_compiles"]
    out["compiler.cache_hits"] = delta["compile_hits"]
    out["compiler.cache_misses"] = delta["compile_misses"]

    out["trace.coverage"] = coverage(profile)
    return out


def scheduler_layers(profile: Profile, stats: SchedulerStats) -> dict[str, float]:
    """Scheduler numbers; self time is the drive loop minus the model
    forwards, cache lookups and compiles nested in it, so it still
    includes executor expansion (which cannot be split from outside)."""
    return {
        "scheduler.run_ms": total_ms(profile, "scheduler.run"),
        "scheduler.self_ms": self_ms(profile, "scheduler.run"),
        "scheduler.rounds": stats.rounds,
        "scheduler.contexts_serviced": stats.contexts_serviced,
        "scheduler.mean_round_size": stats.mean_round_size,
        "scheduler.max_round_size": stats.max_round_size,
        "scheduler.queries_truncated": stats.queries_truncated,
    }


def compile_stage_layers(engine: Any, tracer: Tracer) -> dict[str, float | None]:
    """Replay every query the repetition compiled cold, stage by stage.

    The parent ``compiler.compile_ms`` is the repetition's own; the stage
    sum is the replay's, and ``compiler.stage_coverage`` is their ratio.
    A replay that raises yields ``None`` for every stage metric and a
    stderr note — it never fails the run.
    """
    names = [f"{stage}_ms" for stage in COMPILE_STAGES]
    sizes = (
        "automata.char_states",
        "compiler.token_states",
        "compiler.token_edges",
        "compiler.minimized_states",
        "compiler.minimized_edges",
        "arrays.bytes",
    )
    queries = engine.compiler.cold_queries
    if not queries:
        return {}
    parent = sum(c.metrics.compile_ms for c in engine.compiler.cold_compiled)
    mark = tracer.mark()
    totals = dict.fromkeys(sizes, 0)
    try:
        replayer = GraphCompiler(engine.tokenizer, cache=False)
        for query in queries:
            compiled = replay_compile_stages(replayer, query, tracer)
            totals["automata.char_states"] += len(compiled.char_dfa.states)
            totals["compiler.token_states"] += compiled.metrics.token_states
            totals["compiler.token_edges"] += compiled.metrics.token_edges
            totals["compiler.minimized_states"] += compiled.metrics.minimized_states
            totals["compiler.minimized_edges"] += compiled.metrics.minimized_edges
            totals["arrays.bytes"] += arrays_nbytes(compiled)
    except Exception:  # a broken replay must not take the benchmark down
        print("relm-e2e: compile-stage replay failed:", file=sys.stderr)
        traceback.print_exc()
        return dict.fromkeys([*names, *sizes, "compiler.stage_coverage"])
    profile = tracer.profile(since=mark)
    out: dict[str, float | None] = {
        f"{stage}_ms": total_ms(profile, stage) for stage in COMPILE_STAGES
    }
    out.update(totals)
    stage_sum = sum(total_ms(profile, stage) for stage in COMPILE_STAGES)
    out["compiler.stage_coverage"] = stage_sum / parent if parent else 0.0
    return out


def assemble(names: Iterable[str], *parts: dict[str, float | None]) -> dict[str, float | None]:
    """One value per contract name: produced values win, the rest are 0."""
    merged: dict[str, float | None] = {}
    for part in parts:
        merged.update(part)
    unknown = sorted(set(merged) - set(names))
    if unknown:
        raise KeyError(f"per-layer metrics missing from BENCHMARK.json: {unknown}")
    return {name: merged.get(name, 0) for name in names}

