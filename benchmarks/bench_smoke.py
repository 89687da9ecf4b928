"""Benchmark smoke run: median wall-times for the executor and compiler
benches, written to ``BENCH_executor.json``.

A fast, CI-friendly subset of the pytest-benchmark suite: it times the
batching ablation, the compiler benches (all-encodings compile cost plus the cross-query compilation
cache), the compile fast path (trie-guided vs per-token-scan edge
construction — the >=2x bar — token-automaton minimization, and the
persistent disk cache's warm start, which must recompile zero
queries), the multi-query scheduler's cross-query coalescing (8
templated knowledge queries must issue <= 0.35x the serial LM rounds),
the query-set relational analysis (the ``QuerySetAnalyzer`` pass over
the knowledge portfolio), and the
validation service (sustained q/s and p50/p99 first-match latency at 1
vs 8 concurrent clients over the NDJSON server, next to the cold one-shot
latency; recorded, not gated), and records
medians as JSON (written atomically — temp file + ``os.replace``)::

    PYTHONPATH=src python benchmarks/bench_smoke.py --out BENCH_executor.json

Exit code is non-zero when a ratio bar (cache hit rate, trie compile
speedup, scheduler round ratio, ...) is missed, so CI fails loudly instead
of silently regressing.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import sys
import time
from pathlib import Path

from repro.core.api import prepare
from repro.core.compiler import CompilationCache, GraphCompiler
from repro.core.query import SearchQuery
from repro.experiments.bias import FIGURE7_CONFIGS, bias_query
from repro.experiments.common import get_environment
from repro.regex import compile_dfa

# The per-token scan is a test-side reference; the ``tests`` package sits at
# the repository root, which a script run from ``benchmarks/`` does not see.
sys.path.insert(0, str(Path(__file__).resolve().parents[1]))
from tests.reference import compile_all_tokens_scan  # noqa: E402

#: URL-shaped language: several hundred token edges per state, the shape
#: the vectorized expansion and the trie-guided compile exist for.
FANOUT_PATTERN = r"https://www\.([a-zA-Z0-9]|-)+\.([a-zA-Z0-9]|/)+"

#: The A3 batching pattern (small language, exercises frontier batching).
BATCH_PATTERN = "The ((cat)|(dog)|(man)|(woman)|(bird)) ((sat)|(ate)|(ran))"


def _median_time(fn, repeats: int) -> tuple[float, object]:
    times = []
    result = None
    for _ in range(repeats):
        start = time.perf_counter()
        result = fn()
        times.append(time.perf_counter() - start)
    return statistics.median(times), result


def bench_batching(env, repeats: int) -> dict:
    """Median executor wall-time per forced lookahead width (n-gram XL,
    whose own width is 1: the wider rows record what the walk costs a
    model with no per-call overhead to amortise)."""
    model = env.model("xl")
    out = {}
    reference = None
    for batch_size in (1, 4, 16):
        def run():
            session = prepare(
                model, env.tokenizer, SearchQuery(BATCH_PATTERN),
                batch_size=batch_size,
            )
            return list(session)
        median, matches = _median_time(run, repeats)
        if reference is None:
            reference = matches
        assert matches == reference, "lookahead changed the ordered match stream"
        out[f"batch_{batch_size}_ms"] = round(1000 * median, 3)
    return out


def bench_compiler(env, repeats: int) -> dict:
    """All-encodings compile cost + the cross-query compilation cache."""
    out = {}
    compiler = GraphCompiler(env.tokenizer)
    dfa = compile_dfa(FANOUT_PATTERN)
    median, _ = _median_time(lambda: compiler.compile_all_tokens(dfa, None), repeats)
    out["compile_url_ms"] = round(1000 * median, 3)

    config = FIGURE7_CONFIGS[1]
    queries = [
        bias_query(config, gender, 10, seed)
        for seed in range(25)
        for gender in ("man", "woman")
    ]
    cold = GraphCompiler(env.tokenizer, cache=False)
    median, _ = _median_time(lambda: [cold.compile(q) for q in queries], 1)
    out["bias_loop_uncached_ms"] = round(1000 * median, 3)
    cache = CompilationCache()
    warm = GraphCompiler(env.tokenizer, cache=cache)
    [warm.compile(q) for q in queries]  # populate
    median, _ = _median_time(lambda: [warm.compile(q) for q in queries], repeats)
    out["bias_loop_cached_ms"] = round(1000 * median, 3)
    out["cache_hit_rate"] = round(cache.hit_rate, 4)
    return out


def bench_compile(env, repeats: int) -> dict:
    """Compile-time fast path: trie-guided vs per-token scan construction,
    token-automaton minimization, and the persistent disk cache.

    Three figures:

    * ``trie_speedup`` — trie-guided edge construction
      (:meth:`GraphCompiler.compile_all_tokens`) vs the paper's per-token
      DFS scan (``tests/reference.py::compile_all_tokens_scan``) on the
      high-fanout URL pattern, identical automata asserted.  The acceptance bar is >= 2x.
      A provably minimal automaton builds its rows on first read, so the
      trie side is timed through building every row: both sides do the
      same work.
    * ``token_states``/``minimized_states`` (and edges) — what Hopcroft
      minimization removes from the executor's working set.
    * ``disk_warm`` — a bias-style templated query loop compiled cold
      into a fresh on-disk cache, then replayed by a *new* compiler on
      the same directory.  The warm run must recompile **zero** queries.
    """
    import shutil
    import tempfile

    out: dict = {}
    dfa = compile_dfa(FANOUT_PATTERN)
    compiler = GraphCompiler(env.tokenizer, cache=False)

    def build_every_row():
        automaton = compiler.compile_all_tokens(dfa, None)
        len(automaton.edges)  # lazy rows: builds them all
        return automaton

    trie_ms, trie_auto = _median_time(build_every_row, repeats)
    scan_ms, scan_auto = _median_time(
        lambda: compile_all_tokens_scan(compiler, dfa, None), 1
    )
    assert trie_auto.edges == scan_auto.edges, "trie vs scan construction diverged"
    assert trie_auto.accepts == scan_auto.accepts, "trie vs scan accepts diverged"
    out["trie_ms"] = round(1000 * trie_ms, 3)
    out["scan_ms"] = round(1000 * scan_ms, 3)
    out["trie_speedup"] = round(scan_ms / trie_ms, 2)

    compiled = GraphCompiler(env.tokenizer, cache=False).compile(
        SearchQuery(FANOUT_PATTERN)
    )
    metrics = compiled.metrics
    assert metrics is not None
    out["token_states"] = metrics.token_states
    out["token_edges"] = metrics.token_edges
    out["minimized_states"] = metrics.minimized_states
    out["minimized_edges"] = metrics.minimized_edges

    config = FIGURE7_CONFIGS[1]
    queries = [
        bias_query(config, gender, 10, seed)
        for seed in range(4)
        for gender in ("man", "woman")
    ]
    cache_dir = tempfile.mkdtemp(prefix="relm-bench-compile-")
    try:
        cold = GraphCompiler(env.tokenizer, cache=False, disk_cache=cache_dir)
        cold_ms, _ = _median_time(lambda: [cold.compile(q) for q in queries], 1)
        warm = GraphCompiler(env.tokenizer, cache=False, disk_cache=cache_dir)
        warm_ms, _ = _median_time(lambda: [warm.compile(q) for q in queries], repeats)
        assert warm.disk_cache is not None
        out["disk_queries"] = len(queries)
        out["disk_cold_ms"] = round(1000 * cold_ms, 3)
        out["disk_warm_ms"] = round(1000 * warm_ms, 3)
        out["disk_warm_speedup"] = round(cold_ms / warm_ms, 2)
        # Disk misses on the warm compiler == queries it had to recompile.
        out["warm_recompiles"] = warm.disk_cache.misses
    finally:
        shutil.rmtree(cache_dir, ignore_errors=True)
    return out


def bench_scheduler(repeats: int, top_n: int = 5) -> dict:
    """Cross-query coalescing: 8 templated knowledge queries, serial vs
    the multi-query scheduler at concurrency 8.

    The figure that matters is ``coalesced_speedup`` — model
    ``logprobs_batch`` rounds issued serially divided by rounds issued
    coalesced (deterministic, unlike wall-time).  The acceptance bar is a
    round ratio <= 0.35 (the scheduler must collapse 8 serial round
    streams into barely more than one), with per-query results identical.
    """
    from repro.core.scheduler import QueryBudget, QueryScheduler
    from repro.experiments.knowledge import (
        FACTS,
        birthdate_query,
        knowledge_world,
        month_query,
    )
    from repro.lm.base import CountingModel

    world = knowledge_world()
    queries = [birthdate_query(subject) for subject, _ in FACTS]
    queries += [month_query(subject) for subject, _ in FACTS]
    counting = CountingModel(world.model("xl"))

    def run_serial():
        out = []
        for query in queries:
            session = prepare(
                counting, world.tokenizer, query, compiler=world.compiler
            )
            matches = []
            for match in session:
                matches.append(match.text)
                if len(matches) >= top_n:
                    break
            out.append(matches)
        return out

    def run_scheduled():
        scheduler = QueryScheduler(
            counting, world.tokenizer, compiler=world.compiler,
            concurrency=len(queries),
        )
        handles = [
            scheduler.submit(q, budget=QueryBudget(max_results=top_n))
            for q in queries
        ]
        scheduler.run()
        return [[m.text for m in h.results] for h in handles]

    counting.reset()
    serial_texts = run_serial()
    serial_rounds = counting.batch_rounds
    counting.reset()
    scheduled_texts = run_scheduled()
    coalesced_rounds = counting.batch_rounds
    assert scheduled_texts == serial_texts, "scheduler changed query results"

    serial_ms, _ = _median_time(run_serial, repeats)
    scheduled_ms, _ = _median_time(run_scheduled, repeats)
    return {
        "queries": len(queries),
        "concurrency": len(queries),
        "serial_rounds": serial_rounds,
        "coalesced_rounds": coalesced_rounds,
        "round_ratio": round(coalesced_rounds / serial_rounds, 4),
        "coalesced_speedup": round(serial_rounds / coalesced_rounds, 2),
        "serial_ms": round(1000 * serial_ms, 3),
        "scheduled_ms": round(1000 * scheduled_ms, 3),
    }


def bench_analyze_set(repeats: int) -> dict:
    """Cross-query relational analysis: median wall-time of the
    :class:`QuerySetAnalyzer` pass over the templated knowledge portfolio
    (8 queries, 28 pairs)."""
    from repro.core.analyze_set import QuerySetAnalyzer
    from repro.experiments.knowledge import (
        FACTS,
        birthdate_query,
        knowledge_world,
        month_query,
    )

    world = knowledge_world()
    named = [(f"birthdate/{s}", birthdate_query(s)) for s, _ in FACTS]
    named += [(f"month/{s}", month_query(s)) for s, _ in FACTS]
    entries = [(name, world.compiler.compile(q)) for name, q in named]
    analyzer = QuerySetAnalyzer()
    analyze_s, report = _median_time(lambda: analyzer.analyze(entries), repeats)
    return {
        "queries": len(entries),
        "analyze_ms": round(1000 * analyze_s, 3),
        "duplicate_groups": len(report.duplicate_groups),
        "subsumed": len(report.subsumptions),
        "unknown_pairs": report.unknown_pairs,
        "prefix_clusters": len(report.prefix_clusters),
    }


def bench_incremental(env, repeats: int) -> dict:
    """Incremental K/V decoding vs full re-forward, plus the n-gram CSR
    arrays vs the dict walk.

    Three figures, matching how the prefix cache is actually used:

    * ``depth_N`` — a steady-state traversal round (batch of 8 frontier
      contexts, each its parent plus one token) at context depth N,
      scored by a full forward vs one cached single-token step.
    * ``scheduler_hit_rate`` — prefix-cache hit rate over a multi-query
      scheduler run of templated patterns on the transformer (the
      acceptance bar is >= 0.8: frontiers are parent+token chains, so
      reuse must be near total).
    * ``ngram_csr`` — the frozen-CSR ``logprobs_batch`` vs the dict walk
      replaying the LM rounds a bias-style templated query loop issues.
    """
    import numpy as np

    from repro.core.scheduler import QueryScheduler
    from repro.lm.transformer import TransformerConfig, TransformerModel

    tok = env.tokenizer
    config = TransformerConfig(
        vocab_size=len(tok), block_size=32, n_layer=4, n_head=4, n_embd=64
    )
    full = TransformerModel(config, eos_id=tok.eos_id, seed=0, kv_cache_mb=None)
    incr = TransformerModel(config, eos_id=tok.eos_id, seed=0, kv_cache_mb=64.0)
    B = 8
    chains = [
        [(7 * b + 3 * t) % (len(tok) - 1) + 1 for t in range(16)] for b in range(B)
    ]
    out: dict = {"batch_size": B}
    for depth in (4, 8, 16):
        ctxs = [chain[:depth] for chain in chains]
        full_ms, ref = _median_time(lambda: full.logprobs_batch(ctxs), repeats)
        incr.prefix_cache.clear()
        for d in range(1, depth):  # ancestry a traversal would have cached
            incr.logprobs_batch([c[:d] for c in ctxs])
        incr_ms, got = _median_time(lambda: incr.logprobs_batch(ctxs), repeats)
        for a, b in zip(ref, got):
            assert np.allclose(a, b, atol=1e-9), "incremental decoding diverged"
        out[f"depth_{depth}"] = {
            "full_ms": round(1000 * full_ms, 3),
            "incremental_ms": round(1000 * incr_ms, 3),
            "speedup": round(full_ms / incr_ms, 2),
        }

    # -- scheduler scenario: shared cache across templated queries ----------
    sched_model = TransformerModel(
        TransformerConfig(
            vocab_size=len(tok), block_size=32, n_layer=2, n_head=2, n_embd=32
        ),
        eos_id=tok.eos_id, seed=0, kv_cache_mb=32.0,
    )
    patterns = [
        "The ((cat)|(dog)|(man)|(woman)) ((sat)|(ate)|(ran))",
        "The ((man)|(woman)) was trained in ((art)|(science))",
        "The ((man)|(woman)) was trained in ((medicine)|(engineering))",
        "The ((cat)|(dog)) ((sat)|(ate)) on the ((mat)|(rug))",
    ]
    from repro.core.query import QueryTokenizationStrategy
    from repro.core.scheduler import QueryBudget

    scheduler = QueryScheduler(sched_model, tok, concurrency=len(patterns))
    for pattern in patterns:
        # Canonical tokenization keeps the language small enough to
        # enumerate fully under a near-uniform model (the all-encodings
        # automaton admits every token split of every string); the LM-call
        # budget is a hard bound either way.  The hit rate converges within
        # the first few dozen frontier rounds.
        scheduler.submit(
            SearchQuery(
                pattern, tokenization=QueryTokenizationStrategy.CANONICAL
            ),
            budget=QueryBudget(max_lm_calls=4000),
        )
    scheduler.run()
    prefix = sched_model.prefix_cache.stats()  # sched_model is fresh: totals are this run's
    out["scheduler_hit_rate"] = round(prefix["hit_rate"], 4)
    out["scheduler_prefix_hits"] = prefix["hits"]
    out["scheduler_prefix_misses"] = prefix["misses"]

    # -- n-gram CSR vs dict on the bias-loop rounds -------------------------
    # The bias loop's batched shape: shortest-path enumeration of the
    # Figure 7 template (both genders, the full professions disjunction)
    # at lookahead width 16.  Record the LM rounds once, then replay them
    # against the frozen CSR arrays vs the dict walk.
    from repro.experiments.bias import profession_pattern

    model = env.model("xl")
    recorded: list[list[tuple[int, ...]]] = []
    inner_batch = model.logprobs_batch

    def recording_batch(contexts):
        recorded.append([tuple(c) for c in contexts])
        return inner_batch(contexts)

    model.logprobs_batch = recording_batch
    try:
        for gender in ("man", "woman"):
            session = prepare(
                model, env.tokenizer,
                SearchQuery(
                    f"The (({gender})) was trained in {profession_pattern()}"
                ),
                compiler=env.compiler, batch_size=16, max_expansions=2000,
            )
            for i, _ in enumerate(session):
                if i >= 60:
                    break
    finally:
        model.logprobs_batch = inner_batch
    # How the executor groups contexts into rounds is its policy (single
    # contexts up to a first match, lookahead after); the kernel under
    # test gets the same contexts in fixed rounds of 16.
    contexts = [c for round_contexts in recorded for c in round_contexts]
    recorded = [contexts[i:i + 16] for i in range(0, len(contexts), 16)]

    def replay():
        model._cache.clear()
        for round_contexts in recorded:
            model.logprobs_batch(round_contexts)

    model._use_csr = False
    dict_ms, _ = _median_time(replay, repeats)
    model._use_csr = True
    csr_ms, _ = _median_time(replay, repeats)
    model._cache.clear()
    out["ngram_csr"] = {
        "rounds": len(recorded),
        "contexts": sum(len(r) for r in recorded),
        "dict_ms": round(1000 * dict_ms, 3),
        "csr_ms": round(1000 * csr_ms, 3),
        "speedup": round(dict_ms / csr_ms, 2),
    }
    return out


def bench_service(env, repeats: int) -> dict:
    """Validation-service round trips: sustained q/s and first-match latency.

    Starts the NDJSON server in-process over a warm
    :class:`SchedulerService` and drives it with real
    :class:`ServiceClient` connections at 1 and 8 concurrent clients,
    recording sustained queries/second and the p50/p99 latency from
    ``submit`` to the first streamed match, next to the cold one-shot path
    (fresh compiler, compile included, the ``repro query`` shape).  The two
    are recorded, not compared: at test scale both are a few milliseconds,
    and which is smaller says more about compile speed versus wire overhead
    on the box than about the daemon.
    """
    import asyncio

    from repro.service.client import ServiceClient
    from repro.service.server import ValidationServer
    from repro.service.sessions import SchedulerService

    pattern = BATCH_PATTERN
    model = env.model("xl")
    max_results = 4

    # Cold one-shot baseline: what a fresh `repro query` pays to reach its
    # first match — compile (fresh compiler, no caches) plus the search.
    def cold_first_match() -> None:
        compiler = GraphCompiler(env.tokenizer, cache=CompilationCache(max_entries=64))
        session = prepare(
            model, env.tokenizer, SearchQuery(pattern),
            compiler=compiler, max_expansions=50_000,
        )
        next(iter(session))

    cold_ms, _ = _median_time(cold_first_match, repeats)

    def percentile(samples: list[float], q: float) -> float:
        ordered = sorted(samples)
        return ordered[min(len(ordered) - 1, int(q * (len(ordered) - 1) + 0.5))]

    async def drive(n_clients: int, queries_per_client: int, host: str, port: int):
        async def one_client(_index: int) -> list[float]:
            latencies = []
            async with await ServiceClient.connect(host, port) as client:
                for _ in range(queries_per_client):
                    start = time.perf_counter()
                    stream = await client.submit(
                        SearchQuery(pattern), max_results=max_results
                    )
                    async for _match in stream:
                        latencies.append(time.perf_counter() - start)
                        break
                    await stream.collect()
            return latencies

        start = time.perf_counter()
        per_client = await asyncio.gather(*(one_client(i) for i in range(n_clients)))
        wall = time.perf_counter() - start
        latencies = [lat for client_lats in per_client for lat in client_lats]
        total = n_clients * queries_per_client
        return {
            "clients": n_clients,
            "queries": total,
            "queries_per_s": round(total / wall, 2),
            "first_match_p50_ms": round(1000 * percentile(latencies, 0.50), 3),
            "first_match_p99_ms": round(1000 * percentile(latencies, 0.99), 3),
        }

    async def run() -> dict:
        service = SchedulerService(
            model, env.tokenizer,
            concurrency=8, max_inflight=16, max_expansions=50_000,
        )
        server = ValidationServer(service)
        await server.start()
        try:
            # Warm the compile + logits caches: the steady state a daemon
            # actually serves from.
            await drive(1, 2, server.host, server.port)
            single = await drive(1, 16, server.host, server.port)
            concurrent = await drive(8, 4, server.host, server.port)
        finally:
            await server.shutdown()
        return {
            "pattern": pattern,
            "cold_one_shot_ms": round(1000 * cold_ms, 3),
            "clients_1": single,
            "clients_8": concurrent,
            "warm_vs_cold_speedup": round(
                1000 * cold_ms / max(single["first_match_p50_ms"], 1e-9), 2
            ),
        }

    return asyncio.run(run())


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out", default="BENCH_executor.json")
    parser.add_argument("--scale", choices=["test", "full"], default="test")
    parser.add_argument("--repeats", type=int, default=3)
    args = parser.parse_args(argv)

    env = get_environment(seed=0, scale=args.scale)
    report = {
        "scale": args.scale,
        "repeats": args.repeats,
        "batching": bench_batching(env, args.repeats),
        "compiler": bench_compiler(env, args.repeats),
        "compile": bench_compile(env, args.repeats),
        "scheduler": bench_scheduler(args.repeats),
        "analyze_set": bench_analyze_set(args.repeats),
        "incremental": bench_incremental(env, args.repeats),
        "service": bench_service(env, args.repeats),
    }
    # Atomic write: a crashed or interrupted run must never leave a
    # truncated JSON for the CI gate (or a concurrent reader) to choke on.
    tmp = args.out + ".tmp"
    with open(tmp, "w") as fh:
        json.dump(report, fh, indent=2)
        fh.write("\n")
    os.replace(tmp, args.out)
    print(json.dumps(report, indent=2))

    failures = []
    if report["compiler"]["cache_hit_rate"] < 0.9:
        failures.append(
            f"cache hit rate {report['compiler']['cache_hit_rate']} is below 0.9"
        )
    if report["compile"]["trie_speedup"] < 2.0:
        failures.append(
            f"trie-guided compile speedup {report['compile']['trie_speedup']}x "
            "vs the per-token scan is below the 2x bar"
        )
    if report["compile"]["warm_recompiles"] != 0:
        failures.append(
            f"warm disk-cache run recompiled {report['compile']['warm_recompiles']} "
            "queries (expected 0)"
        )
    if report["scheduler"]["round_ratio"] > 0.35:
        failures.append(
            f"scheduler round ratio {report['scheduler']['round_ratio']} "
            "exceeds the 0.35x bar"
        )
    incremental = report["incremental"]
    if incremental["depth_16"]["speedup"] < 2.0:
        failures.append(
            f"incremental speedup {incremental['depth_16']['speedup']}x at "
            "depth 16 is below the 2x bar"
        )
    if incremental["scheduler_hit_rate"] < 0.8:
        failures.append(
            f"prefix-cache hit rate {incremental['scheduler_hit_rate']} in "
            "the scheduler scenario is below 0.8"
        )
    if incremental["ngram_csr"]["speedup"] < 2.0:
        failures.append(
            f"n-gram CSR speedup {incremental['ngram_csr']['speedup']}x is "
            "below the 2x bar"
        )
    for failure in failures:
        print(f"FAIL: {failure}", file=sys.stderr)
    return 1 if failures else 0


if __name__ == "__main__":
    raise SystemExit(main())
