"""Edge-case tests: degenerate patterns, prefix corner cases, empty
strings."""

from __future__ import annotations

import pytest

from repro.core.api import prepare
from repro.core.query import (
    QuerySearchStrategy,
    QueryString,
    QueryTokenizationStrategy,
    SearchQuery,
    SimpleSearchQuery,
)
from repro.regex import compile_dfa
from tests.reference import reference_drive


class TestEmptyString:
    def test_pattern_accepting_empty_string(self, model, tokenizer):
        """a* includes "": the start state is accepting and must yield the
        empty match first (it costs nothing)."""
        results = list(prepare(model, tokenizer, SearchQuery("a*", sequence_length=3),
                               max_expansions=200))
        assert results[0].text == ""
        assert results[0].tokens == ()

    def test_epsilon_only_language(self, model, tokenizer):
        results = list(prepare(model, tokenizer, SearchQuery("")))
        assert [r.text for r in results] == [""]

    def test_random_sampling_can_return_empty(self, model, tokenizer):
        query = SearchQuery(
            "a?",
            strategy=QuerySearchStrategy.RANDOM_SAMPLING,
            num_samples=30,
            seed=0,
        )
        texts = {r.text for r in prepare(model, tokenizer, query, max_attempts=300)}
        assert "" in texts


class TestPrefixCornerCases:
    def test_prefix_equals_whole_pattern(self, model, tokenizer):
        """When the prefix covers the entire pattern, everything is
        conditioned: the suffix logprob is zero."""
        query = SearchQuery("The cat", prefix="The cat")
        result = next(iter(prepare(model, tokenizer, query)))
        assert result.logprob == pytest.approx(0.0)
        assert result.prefix_text == "The cat"

    def test_prefix_regex_with_alternation(self, model, tokenizer):
        query = SearchQuery(
            "The ((cat)|(dog)) sat", prefix="The ((cat)|(dog))"
        )
        results = list(prepare(model, tokenizer, query, max_expansions=4000))
        assert {r.prefix_text for r in results} <= {"The cat", "The dog"}

    def test_empty_prefix_language_is_rejected_at_compile(self, model, tokenizer):
        # A prefix inconsistent with the pattern produces an empty prefix
        # closure; the query itself still has a language, so compilation
        # must succeed and simply mark nothing as prefix.
        query = SimpleSearchQuery(
            query_string=QueryString(query_str="The cat", prefix_str="xyz")
        )
        from repro.core.compiler import GraphCompiler

        compiled = GraphCompiler(tokenizer).compile(query)
        # No reachable prefix region beyond (possibly) the empty string.
        results = list(prepare(model, tokenizer, query))
        assert [r.text for r in results] == ["The cat"]


class TestDegeneratePatterns:
    def test_single_char_language(self, model, tokenizer):
        results = list(prepare(model, tokenizer, SearchQuery("x")))
        assert [r.text for r in results] == ["x"]

    def test_whole_alphabet_dot(self, model, tokenizer):
        session = prepare(model, tokenizer, SearchQuery(".", top_k=5))
        results = list(session)
        assert all(len(r.text) == 1 for r in results)
        assert len(results) <= 5

    def test_long_literal(self, model, tokenizer):
        text = "The dog ate the cat food."
        from repro.regex import escape

        results = list(prepare(model, tokenizer, SearchQuery(escape(text))))
        assert results[0].text == text

    def test_newline_in_pattern(self, model, tokenizer):
        results = list(prepare(model, tokenizer, SearchQuery("a\\nb"), max_expansions=500))
        assert results[0].text == "a\nb"


class TestQueryReuse:
    def test_compiler_reusable_across_queries(self, model, tokenizer):
        from repro.core.compiler import GraphCompiler
        from repro.core.executor import Executor

        compiler = GraphCompiler(tokenizer)
        for pattern in ["The cat", "The dog", "[0-9]{2}"]:
            compiled = compiler.compile(SearchQuery(pattern))
            executor = Executor(model, compiled, max_expansions=500)
            assert list(reference_drive(executor)) is not None

    def test_session_re_iterable(self, model, tokenizer):
        session = prepare(model, tokenizer, SearchQuery("The ((cat)|(dog))"))
        first = [r.text for r in session]
        second = [r.text for r in session]
        assert set(first) == set(second) == {"The cat", "The dog"}

    def test_query_objects_are_frozen(self):
        query = SearchQuery("a")
        with pytest.raises(Exception):
            query.top_k_sampling = 3  # type: ignore[misc]


class TestSequenceLengthInteraction:
    def test_zero_matches_when_too_short(self, model, tokenizer):
        # "The cat" needs at least 2 tokens in this vocab.
        query = SearchQuery("The cat", sequence_length=1)
        assert list(prepare(model, tokenizer, query, max_expansions=200)) == []

    def test_exact_fit(self, model, tokenizer):
        needed = len(tokenizer.encode("The cat"))
        query = SearchQuery("The cat", sequence_length=needed)
        assert [r.text for r in prepare(model, tokenizer, query)] == ["The cat"]
