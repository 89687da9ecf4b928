"""Tests for query preprocessors (repro.core.preprocessors) — §3.4."""

from __future__ import annotations

import pytest

from repro.automata.dfa import DFA
from repro.automata.transducer import replace_fst
from repro.core.preprocessors import (
    FilterPreprocessor,
    LevenshteinPreprocessor,
    SuffixFilterPreprocessor,
    TransducerPreprocessor,
    _completion_language,
)
from repro.regex import compile_dfa, escape


class TestLevenshteinPreprocessor:
    def test_expands_language(self):
        prep = LevenshteinPreprocessor(1)
        out = prep.apply(compile_dfa("cat"))
        assert out.accepts_string("cut")
        assert out.accepts_string("cat")

    def test_zero_distance_identity(self):
        prep = LevenshteinPreprocessor(0)
        out = prep.apply(compile_dfa("ab|cd"))
        assert sorted(out.enumerate_strings()) == ["ab", "cd"]

    def test_applies_to_prefix_by_default(self):
        assert LevenshteinPreprocessor(1).applies_to_prefix


class TestFilterPreprocessor:
    def test_removes_exact_strings(self):
        prep = FilterPreprocessor(["the", "a"])
        out = prep.apply(compile_dfa("(the)|(a)|(cat)"))
        assert sorted(out.enumerate_strings()) == ["cat"]

    def test_empty_filter_is_identity(self):
        dfa = compile_dfa("ab")
        assert FilterPreprocessor([]).apply(dfa) is dfa

    def test_does_not_apply_to_prefix(self):
        assert not FilterPreprocessor(["x"]).applies_to_prefix

    def test_filter_of_absent_string_is_noop_language(self):
        out = FilterPreprocessor(["zebra"]).apply(compile_dfa("cat|dog"))
        assert sorted(out.enumerate_strings()) == ["cat", "dog"]


class TestSuffixFilterPreprocessor:
    def test_removes_completions_with_trailing_variants(self):
        dfa = compile_dfa("ctx ((the)|(cat))(\\.)?")
        prep = SuffixFilterPreprocessor(
            prefix="ctx ", forbidden=["the"], trailing=("", ".")
        )
        out = prep.apply(dfa)
        assert sorted(out.enumerate_strings()) == ["ctx cat", "ctx cat."]

    def test_keeps_other_prefixes_untouched(self):
        dfa = compile_dfa("((ctx )|(alt ))the")
        prep = SuffixFilterPreprocessor(prefix="ctx ", forbidden=["the"])
        out = prep.apply(dfa)
        assert sorted(out.enumerate_strings()) == ["alt the"]

    @pytest.mark.parametrize(
        "prefix,forbidden,trailing",
        [
            ("", ("the", "a"), ("", ".")),  # empty prefix: no chain at all
            ("ctx ", ("the", "a", "an"), ("",)),  # trailing=("",): bare words
            ("ctx ", ("the", "then", "there"), ("", ".", '."')),  # word prefixes a word
            ("a.b (c)* [d]? ", ("the", "a"), ("", "!")),  # regex metacharacters
        ],
    )
    def test_cached_completions_equal_the_per_query_trie(self, prefix, forbidden, trailing):
        """The cached ``word + tail`` automaton behind a context chain
        removes exactly what the old per-query build — one trie of every
        ``prefix + word + tail`` — removed."""
        words = "|".join(f"({escape(w)})" for w in (*forbidden, "cat", "thence"))
        dfa = compile_dfa(f"{escape(prefix)}({words})(\\.|!)?(\")?")
        got = SuffixFilterPreprocessor(prefix, forbidden, trailing).apply(dfa)
        variants = {prefix + word + tail for word in forbidden for tail in trailing}
        want = dfa.difference(DFA.from_strings(variants)).minimized()
        assert got.canonical_form() == want.canonical_form()
        assert got.accepts_string(prefix + "cat")
        assert not got.accepts_string(prefix + forbidden[0] + trailing[-1])

    def test_empty_forbidden_returns_the_input(self):
        dfa = compile_dfa("ctx the")
        assert SuffixFilterPreprocessor("ctx ", ()).apply(dfa) is dfa

    def test_items_sharing_forbidden_and_trailing_share_one_build(self):
        forbidden, trailing = ("the", "of", "and"), ("", "?")
        _completion_language.cache_clear()
        for context in ("first context ", "a second, longer context "):
            dfa = compile_dfa(f"{escape(context)}((the)|(cat))(\\?)?")
            out = SuffixFilterPreprocessor(context, forbidden, trailing).apply(dfa)
            assert sorted(out.enumerate_strings()) == [context + "cat", context + "cat?"]
        info = _completion_language.cache_info()
        assert (info.misses, info.hits) == (1, 1)


class TestTransducerPreprocessor:
    def test_custom_rewrite(self):
        prep = TransducerPreprocessor(replace_fst({"c": "C"}, "catC"))
        out = prep.apply(compile_dfa("cat"))
        assert sorted(out.enumerate_strings()) == ["Cat", "cat"]


class TestChaining:
    def test_edits_then_filter(self):
        """Preprocessors compose in sequence as the paper describes."""
        dfa = compile_dfa("cat")
        expanded = LevenshteinPreprocessor(1).apply(dfa)
        filtered = FilterPreprocessor(["cat"]).apply(expanded)
        assert not filtered.accepts_string("cat")
        assert filtered.accepts_string("bat")

    def test_query_pipeline_applies_in_order(self, model, tokenizer):
        from repro.core.api import prepare
        from repro.core.query import SearchQuery

        query = SearchQuery(
            "The ((cat)|(dog))",
            preprocessors=(
                LevenshteinPreprocessor(1),
                FilterPreprocessor(["The cat", "The dog"]),
            ),
        )
        session = prepare(model, tokenizer, query, max_expansions=2000)
        texts = [r.text for r in session]
        # Every match is within 1 edit but never the original strings.
        assert texts
        assert "The cat" not in texts and "The dog" not in texts


class TestIntersectionPreprocessor:
    def test_conjunctive_constraint(self):
        from repro.core.preprocessors import IntersectionPreprocessor

        base = compile_dfa("(cat)|(tiger)|(ox)")
        out = IntersectionPreprocessor(".{3,5}").apply(base)
        assert sorted(out.enumerate_strings()) == ["cat", "tiger"]

    def test_disjoint_intersection_is_empty(self):
        from repro.core.preprocessors import IntersectionPreprocessor

        out = IntersectionPreprocessor("[0-9]+").apply(compile_dfa("[a-z]+"))
        assert out.is_empty()

    def test_in_query_pipeline(self, model, tokenizer):
        from repro.core.api import prepare
        from repro.core.preprocessors import IntersectionPreprocessor
        from repro.core.query import SearchQuery

        # Free word slot, intersected down to 3-letter completions.
        query = SearchQuery(
            "The [a-z]+",
            preprocessors=(IntersectionPreprocessor("The [a-z]{3}"),),
            top_k=20,
        )
        session = prepare(model, tokenizer, query, max_expansions=2000)
        texts = [r.text for r in session]
        assert texts
        assert all(len(t) == len("The ") + 3 for t in texts)
