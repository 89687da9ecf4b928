"""Tests for the randomized traversal — §3.3 and Appendix C."""

from __future__ import annotations

import math
from collections import Counter

import numpy as np
import pytest

from repro.core.api import prepare
from repro.core.query import (
    QuerySearchStrategy,
    QueryString,
    QueryTokenizationStrategy,
    SearchQuery,
    SimpleSearchQuery,
)


def _random_query(pattern, prefix=None, n=50, seed=0, **kw):
    return SearchQuery(
        pattern,
        prefix=prefix,
        strategy=QuerySearchStrategy.RANDOM_SAMPLING,
        num_samples=n,
        seed=seed,
        **kw,
    )


class TestBasics:
    def test_yields_requested_samples(self, model, tokenizer):
        query = _random_query("The ((cat)|(dog))", n=25)
        results = list(prepare(model, tokenizer, query))
        assert len(results) == 25

    def test_samples_are_members(self, model, tokenizer):
        query = _random_query("The ((cat)|(dog))", n=30)
        for r in prepare(model, tokenizer, query):
            assert r.text in ("The cat", "The dog")

    def test_deterministic_given_seed(self, model, tokenizer):
        q = _random_query("The ((cat)|(dog))", n=10, seed=42)
        a = [r.text for r in prepare(model, tokenizer, q)]
        b = [r.text for r in prepare(model, tokenizer, q)]
        assert a == b

    def test_different_seeds_differ(self, model, tokenizer):
        a = [r.text for r in prepare(model, tokenizer, _random_query("The ((cat)|(dog))", n=20, seed=1))]
        b = [r.text for r in prepare(model, tokenizer, _random_query("The ((cat)|(dog))", n=20, seed=2))]
        assert a != b  # overwhelmingly likely

    def test_max_attempts_bounds_failures(self, model, tokenizer):
        # An unsatisfiable query under greedy decoding: everything pruned.
        query = _random_query("zqx", n=5, top_k=1)
        session = prepare(model, tokenizer, query, max_attempts=20)
        results = list(session)
        assert len(results) < 5
        assert session.stats.failed_attempts > 0


class TestDistribution:
    def test_sampling_follows_model_probabilities(self, model, tokenizer):
        """Sampled suffix frequencies track the model's conditional
        probabilities (the corpus has cat/dog sentences at similar
        rates)."""
        query = _random_query(
            "The ((cat)|(dog))", prefix="The", n=400, seed=7,
            tokenization=QueryTokenizationStrategy.CANONICAL,
        )
        counts = Counter(r.text for r in prepare(model, tokenizer, query))
        assert counts["The cat"] > 50
        assert counts["The dog"] > 50

    def test_eos_disambiguation_returns_short_strings(self, model, tokenizer):
        """Language a|aa|aaa: sampling must be able to stop early (EOS
        weight) rather than always extending."""
        query = _random_query("a{1,3}", n=60, seed=3)
        lengths = Counter(len(r.text) for r in prepare(model, tokenizer, query))
        assert lengths[1] > 0

    def test_prefix_sampled_uniformly(self, model, tokenizer):
        """The paper's example: prefixes {a, b, bb, bbb} must be sampled
        ~uniformly, not 50/50 on the first edge (§3.3)."""
        query = SimpleSearchQuery(
            query_string=QueryString("((a)|(b{1,3}))c", prefix_str="(a)|(b{1,3})"),
            search_strategy=QuerySearchStrategy.RANDOM_SAMPLING,
            num_samples=600,
            seed=11,
        )
        results = prepare(model, tokenizer, query)
        counts = Counter(r.prefix_text for r in results)
        total = sum(counts.values())
        for prefix in ("a", "b", "bb", "bbb"):
            assert abs(counts[prefix] / total - 0.25) < 0.08, counts

    def test_uniform_edge_sampling_is_biased(self, model, tokenizer):
        """Appendix C: uniform edge weights over-sample the lone short
        branch."""
        query = SimpleSearchQuery(
            query_string=QueryString("((a)|(b{1,3}))c", prefix_str="(a)|(b{1,3})"),
            search_strategy=QuerySearchStrategy.RANDOM_SAMPLING,
            num_samples=400,
            seed=11,
            uniform_edge_sampling=True,
        )
        counts = Counter(r.prefix_text for r in prepare(model, tokenizer, query))
        total = sum(counts.values())
        assert counts["a"] / total > 0.4


class TestCanonicalSampling:
    def test_canonical_samples_are_canonical(self, model, tokenizer):
        query = _random_query(
            "The ((cat)|(dog))", prefix="The", n=40,
            tokenization=QueryTokenizationStrategy.CANONICAL,
        )
        for r in prepare(model, tokenizer, query):
            assert r.canonical

    def test_all_encodings_eventually_noncanonical(self, model, tokenizer):
        """With ALL_TOKENS and no decoding filter, non-canonical paths have
        non-zero probability; over many samples at least one appears."""
        query = _random_query("The cat", n=300, seed=5)
        results = list(prepare(model, tokenizer, query))
        assert any(not r.canonical for r in results)


class TestTopKInteraction:
    def test_topk_restricts_random_choices(self, model, tokenizer):
        # Greedy sampling of the profession slot always picks the same one.
        query = _random_query(
            "The man was trained in ((engineering)|(computer science))",
            prefix="The man was trained in",
            n=20,
            top_k=1,
            tokenization=QueryTokenizationStrategy.CANONICAL,
        )
        texts = {r.text for r in prepare(model, tokenizer, query)}
        assert len(texts) == 1


class TestLowTemperature:
    @pytest.mark.parametrize("temperature", [1.0, 0.05])
    def test_underflowing_options_still_sample(self, model, tokenizer, temperature):
        """At temperature 0.05 every option's scaled probability underflows
        to 0.0: the weights are then taken relative to the likeliest option
        instead of dividing 0 by 0 (which made ``random.choices`` raise)."""
        query = _random_query(
            "The ((qqq)|(zzx)) sat", prefix="The", n=20, temperature=temperature
        )
        session = prepare(model, tokenizer, query)
        results = list(session)
        assert len(results) == 20
        assert {r.text for r in results} <= {"The qqq sat", "The zzx sat"}
        assert all(np.isfinite(r.logprob) for r in results)
        assert session.stats.failed_attempts == 0
