"""A3 — executor batching ablation (the §3.3 accelerator-batching
analogue).

A shortest-path request that misses the logits cache brings the heap's
next pops along, up to ``batch_size`` contexts per model round
(lookahead: the yield order is exact Dijkstra at every width).  On a model
whose forward costs per call (the NumPy transformer) that amortises the
per-call overhead the way GPU batching amortises kernel launches, so model
rounds fall as the width grows; on the n-gram, whose forward costs per
context, it buys nothing and the walk is pure overhead — which is why the
n-gram's own width is 1.  The ordered match stream is asserted equal at
every width alongside the timing.
"""

from __future__ import annotations

import time

import pytest

from conftest import print_table
from repro.core.api import prepare
from repro.core.query import SearchQuery
from repro.lm.base import CountingModel
from repro.lm.transformer import TransformerConfig, TransformerModel

_PATTERN = "The ((cat)|(dog)|(man)|(woman)|(bird)) ((sat)|(ate)|(ran))"


@pytest.fixture(scope="module")
def transformer(env):
    tokenizer = env.tokenizer
    config = TransformerConfig(
        vocab_size=len(tokenizer), block_size=16, n_layer=2, n_head=2, n_embd=32
    )
    lm = TransformerModel(config, eos_id=tokenizer.eos_id, seed=0)
    corpus = [
        "The cat sat.", "The dog ate.", "The man ran.",
        "The woman sat.", "The bird ate.",
    ] * 20
    lm.fit([tokenizer.encode(line) for line in corpus], steps=120, batch_size=8, lr=1e-2)
    return lm


def test_bench_a3_batched_vs_unbatched(env, transformer, benchmark):
    tokenizer = env.tokenizer
    spec = transformer.spec()

    def run(batch_size):
        counting = CountingModel(spec.build())  # cold row / KV caches every run
        session = prepare(
            counting, tokenizer, SearchQuery(_PATTERN),
            max_expansions=4000, batch_size=batch_size,
        )
        return list(session), session.stats, counting.total_rounds

    rows = []
    reference = None
    rounds_by_width = []
    for batch_size in (1, 4, 16):
        start = time.perf_counter()
        matches, stats, rounds = run(batch_size)
        elapsed = time.perf_counter() - start
        if reference is None:
            reference = [m.tokens for m in matches]
        # Lookahead never reorders: the same matches in the same order.
        assert [m.tokens for m in matches] == reference
        rounds_by_width.append(rounds)
        rows.append(
            [batch_size, f"{1000 * elapsed:.0f} ms", rounds, stats.lookahead_contexts,
             f"{stats.mean_batch_size:.1f}"]
        )
    print_table(
        "A3: transformer-backed search, lookahead width",
        ["batch_size", "wall time", "model rounds", "lookahead contexts", "mean batch"],
        rows,
    )
    assert rounds_by_width[0] > rounds_by_width[1] > rounds_by_width[2]
    result = benchmark.pedantic(lambda: run(16), rounds=3, iterations=1)
    assert [m.tokens for m in result[0]] == reference


def test_bench_a3_ngram_forced_width(env, benchmark):
    """On the n-gram a forward costs per context, so company in a round
    saves nothing: forcing ``batch_size=8`` yields the same stream and is
    recorded next to width 1 (its own default) as the cost of the walk."""
    def run(batch_size):
        session = prepare(
            env.model("xl"), env.tokenizer, SearchQuery(_PATTERN), batch_size=batch_size
        )
        start = time.perf_counter()
        matches = list(session)
        return matches, time.perf_counter() - start, session.stats

    base, base_s, _ = min((run(1) for _ in range(3)), key=lambda r: r[1])
    forced, forced_s, stats = min((run(8) for _ in range(3)), key=lambda r: r[1])
    assert forced == base
    print_table(
        "A3: n-gram, width forced to 8 (best of 3)",
        ["batch_size", "wall time", "lookahead contexts"],
        [[1, f"{1000 * base_s:.1f} ms", 0],
         [8, f"{1000 * forced_s:.1f} ms", stats.lookahead_contexts]],
    )
    benchmark.pedantic(lambda: run(8), rounds=3, iterations=1)
