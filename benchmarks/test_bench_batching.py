"""A3 — executor batching ablation (the §3.3 accelerator-batching
analogue).

The ReLM executor can expand up to ``batch_size`` frontier nodes per model
round.  On a model with a real batched forward pass (the NumPy
transformer), batching amortises per-call overhead the way GPU batching
amortises kernel launches; on the n-gram (no batch economy) it is neutral.
Correctness (same match set) is asserted alongside the timing.
"""

from __future__ import annotations

import time

import pytest

from conftest import print_table
from repro.core.api import prepare
from repro.core.query import SearchQuery
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

    def run(batch_size):
        session = prepare(
            transformer, tokenizer, SearchQuery(_PATTERN),
            max_expansions=4000, batch_size=batch_size, cache_size=1,
        )
        return {r.text for r in session}, session.stats

    rows = []
    reference = None
    for batch_size in (1, 4, 16):
        start = time.perf_counter()
        texts, stats = run(batch_size)
        elapsed = time.perf_counter() - start
        if reference is None:
            reference = texts
        assert texts == reference  # batching never changes the match set
        rows.append(
            [batch_size, f"{1000 * elapsed:.0f} ms", stats.lm_batches,
             f"{stats.mean_batch_size:.1f}"]
        )
    print_table(
        "A3: transformer-backed search, batched executor",
        ["batch_size", "wall time", "model rounds", "mean batch"],
        rows,
    )
    result = benchmark.pedantic(lambda: run(16), rounds=3, iterations=1)
    assert result[0] == reference


def test_bench_a3_ngram_neutrality(env, benchmark):
    """On the n-gram (cheap forward), batching must not change results and
    costs about the same."""
    texts_1 = {
        r.text
        for r in prepare(env.model("xl"), env.tokenizer, SearchQuery(_PATTERN), batch_size=1)
    }
    texts_8 = benchmark.pedantic(
        lambda: {
            r.text
            for r in prepare(env.model("xl"), env.tokenizer, SearchQuery(_PATTERN), batch_size=8)
        },
        rounds=3,
        iterations=1,
    )
    assert texts_8 == texts_1
