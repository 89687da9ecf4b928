"""Tests for the shortest-path (Dijkstra) traversal — §3.3."""

from __future__ import annotations

import math

import numpy as np
import pytest

from repro.core.api import prepare
from repro.core.query import (
    QuerySearchStrategy,
    QueryTokenizationStrategy,
    SearchQuery,
)
from repro.lm.base import LanguageModel
from tests.reference import reference_drive
from tests.test_backend_differential import COMBOS


class UniformModel(LanguageModel):
    """Uniform next-token distribution: path cost depends only on length."""

    def __init__(self, vocab_size, eos_id):
        self.vocab_size = vocab_size
        self.eos_id = eos_id
        self.max_sequence_length = 64

    def logprobs(self, context):
        return np.full(self.vocab_size, -math.log(self.vocab_size))


class TestOrdering:
    def test_matches_in_decreasing_probability(self, model, tokenizer):
        query = SearchQuery("The ((cat)|(dog)|(woman)|(man))")
        results = list(prepare(model, tokenizer, query))
        logprobs = [r.total_logprob for r in results]
        assert logprobs == sorted(logprobs, reverse=True)

    def test_memorised_string_ranks_first(self, model, tokenizer):
        # "The cat sat on the mat." is in the corpus; other endings are not.
        query = SearchQuery("The cat sat on the ((mat)|(rug)|(box))\\.")
        first = next(iter(prepare(model, tokenizer, query)))
        assert first.text == "The cat sat on the mat."

    def test_exhausts_finite_language(self, model, tokenizer):
        query = SearchQuery("The ((cat)|(dog))")
        texts = {r.text for r in prepare(model, tokenizer, query)}
        assert texts == {"The cat", "The dog"}

    def test_logprob_matches_model_score(self, model, tokenizer):
        query = SearchQuery("The cat")
        result = next(iter(prepare(model, tokenizer, query)))
        expected = model.sequence_logprob(result.tokens)
        assert result.total_logprob == pytest.approx(expected, abs=1e-9)

    def test_uniform_model_yields_shortest_token_paths_first(self, tokenizer):
        model = UniformModel(len(tokenizer), tokenizer.eos_id)
        query = SearchQuery("a{1,4}")
        results = list(prepare(model, tokenizer, query))
        lengths = [len(r.tokens) for r in results]
        assert lengths == sorted(lengths)


class TestTopKPruning:
    def test_topk_prunes_unlikely_strings(self, model, tokenizer):
        # With greedy decoding only the single most likely branch survives.
        query = SearchQuery("The ((cat)|(dog))", top_k=None)
        all_texts = {r.text for r in prepare(model, tokenizer, query)}
        assert len(all_texts) == 2
        greedy = SearchQuery("The ((cat)|(dog))", top_k=1)
        greedy_texts = {r.text for r in prepare(model, tokenizer, greedy)}
        assert len(greedy_texts) <= 1

    def test_transitive_elimination_counted(self, model, tokenizer):
        query = SearchQuery("The ((cat)|(dog)|(man)|(woman))", top_k=1)
        session = prepare(model, tokenizer, query)
        list(session)
        assert session.stats.pruned_edges > 0

    def test_prefix_edges_bypass_topk(self, model, tokenizer):
        # 'George Washington...' is low-probability at the start of text,
        # but as a prefix it must not be pruned even under top_k=1.
        query = SearchQuery(
            "George Washington was born on February 22, 1732\\.",
            prefix="George Washington was born on",
            top_k=1,
        )
        results = list(prepare(model, tokenizer, query))
        assert len(results) == 1


class TestRequireEos:
    def test_eos_scored_and_required(self, model, tokenizer):
        # "The cat sat on the" continues in the corpus; with require_eos
        # the match must be a plausible full line.
        query = SearchQuery("The cat sat on the mat\\.", require_eos=True)
        result = next(iter(prepare(model, tokenizer, query)))
        without = SearchQuery("The cat sat on the mat\\.")
        base = next(iter(prepare(model, tokenizer, without)))
        # EOS step adds cost.
        assert result.total_logprob < base.total_logprob

    def test_eos_disambiguates_nested_matches(self, model, tokenizer):
        # Language {"The cat", "The cat sat"}: with require_eos both are
        # still yielded but ranked by P(string + EOS).
        query = SearchQuery("The cat( sat)?", require_eos=True)
        results = list(prepare(model, tokenizer, query))
        assert {r.text for r in results} == {"The cat", "The cat sat"}


class TestDedupe:
    def test_same_string_different_encodings_deduped(self, model, tokenizer):
        query = SearchQuery("The cat")
        session = prepare(model, tokenizer, query)
        texts = [r.text for r in session]
        assert len(texts) == len(set(texts)) == 1
        assert session.stats.duplicates_suppressed >= 0

    def test_dedupe_off_yields_encodings(self, model, tokenizer):
        query = SearchQuery("The cat")
        session = prepare(model, tokenizer, query, dedupe=False, max_expansions=3000)
        texts = [r.text for r in session]
        assert len(texts) > 1
        assert set(texts) == {"The cat"}


class TestLazyCanonical:
    def test_lazy_canonical_yields_only_canonical(self, model, tokenizer):
        """A cyclic canonical query traverses product rows built on first
        touch; every match is the canonical encoding of its text."""
        query = SearchQuery(
            "[0-9]+",
            tokenization=QueryTokenizationStrategy.CANONICAL,
            sequence_length=4,
        )
        from repro.core.compiler import CanonicalRows, GraphCompiler
        from repro.core.executor import Executor

        compiled = GraphCompiler(tokenizer).compile(query)
        assert isinstance(compiled.token_automaton.edges, CanonicalRows)
        executor = Executor(model, compiled, max_expansions=4000)
        results = list(reference_drive(executor))
        assert results
        assert all(tokenizer.is_canonical(r.tokens) for r in results)


_CANONICAL_COMBOS = [
    combo for combo in COMBOS
    if combo[2].tokenization_strategy is QueryTokenizationStrategy.CANONICAL
]


class TestMatchResultCanonicalFlag:
    def test_flag_equals_is_canonical_with_one_decode_per_match(
        self, model, tokenizer, monkeypatch
    ):
        """``MatchResult.canonical`` is ``tokenizer.is_canonical(tokens)``,
        computed from the text the result already carries: one
        ``Vocabulary.decode`` per match, not two."""
        from repro.tokenizers.vocab import Vocabulary

        decodes = []
        original = Vocabulary.decode
        monkeypatch.setattr(
            Vocabulary, "decode", lambda self, ids: decodes.append(1) or original(self, ids)
        )
        query = SearchQuery(
            "The ((cat)|(dog))", tokenization=QueryTokenizationStrategy.ALL_TOKENS
        )
        results = list(prepare(model, tokenizer, query, dedupe=False, max_expansions=3000))
        assert len(decodes) == len(results)
        flags = [r.canonical for r in results]
        assert True in flags and False in flags
        assert flags == [tokenizer.is_canonical(r.tokens) for r in results]

    @pytest.mark.parametrize(
        "name,source,query",
        _CANONICAL_COMBOS,
        ids=[combo[0] for combo in _CANONICAL_COMBOS],
    )
    def test_canonical_query_flags_without_a_check(
        self, model, tokenizer, env, name, source, query, monkeypatch
    ):
        """On a canonical query the flag is ``True`` without the chunk walk,
        and equals ``is_canonical`` on every match of the grid's canonical
        cases."""
        from repro.tokenizers.bpe import BPETokenizer

        m, tok = (model, tokenizer) if source == "tiny" else (env.model("small"), env.tokenizer)
        # A first run memoises the pair checks the product makes, so the
        # counted run below makes none: what it would count is the flag's.
        list(prepare(m, tok, query, max_expansions=3000))
        checks = []
        original = BPETokenizer.is_canonical
        monkeypatch.setattr(
            BPETokenizer,
            "is_canonical",
            lambda self, ids, text=None: checks.append(1) or original(self, ids, text),
        )
        results = list(prepare(m, tok, query, max_expansions=3000))
        monkeypatch.undo()
        assert results
        assert [r.canonical for r in results] == [True] * len(results)
        assert [tok.is_canonical(r.tokens) for r in results] == [True] * len(results)
        assert checks == []


class TestBudgets:
    def test_max_expansions_terminates_search(self, model, tokenizer):
        query = SearchQuery("[a-z]+")  # infinite language
        session = prepare(model, tokenizer, query, max_expansions=50)
        results = list(session)
        assert session.stats.nodes_expanded <= 50

    def test_sequence_length_caps_matches(self, model, tokenizer):
        query = SearchQuery("a+", sequence_length=3)
        session = prepare(model, tokenizer, query, max_expansions=500)
        for r in session:
            assert len(r.tokens) <= 3


class TestPrefixSemantics:
    def test_prefix_cost_excluded_from_logprob(self, model, tokenizer):
        query = SearchQuery(
            "The cat sat on the mat\\.", prefix="The cat sat on the"
        )
        result = next(iter(prepare(model, tokenizer, query)))
        # total scores everything; logprob scores the suffix only.
        assert result.logprob > result.total_logprob
        assert result.prefix_text == "The cat sat on the"

    def test_suffix_text(self, model, tokenizer):
        query = SearchQuery("The cat sat", prefix="The cat")
        result = next(iter(prepare(model, tokenizer, query)))
        assert result.suffix_text == " sat"


def _prefix_bearing_queries():
    """Every prefix-bearing query of this file, plus the bias, URL and
    knowledge templates (on the worlds they run on) and the two shapes the
    memo has to tell apart: a many-string acyclic prefix and a cyclic one."""
    from repro.experiments.bias import FIGURE7_CONFIGS, FIGURE13_CONFIGS, bias_query
    from repro.experiments.knowledge import FACTS, birthdate_query, knowledge_world
    from repro.experiments.memorization import URL_PATTERN, URL_PREFIX_REGEX

    shortest = QuerySearchStrategy.SHORTEST_PATH
    cases = [
        ("tiny", SearchQuery(
            "George Washington was born on February 22, 1732\\.",
            prefix="George Washington was born on", top_k=1,
        )),
        ("tiny", SearchQuery("The cat sat on the mat\\.", prefix="The cat sat on the")),
        ("tiny", SearchQuery("The cat sat", prefix="The cat")),
        ("tiny", SearchQuery("The ((cat)|(dog)|(man)) ((sat)|(ate))", prefix="The ((cat)|(dog)|(man))")),
        ("tiny", SearchQuery("(The )+((cat)|(dog))", prefix="(The )+")),
        ("env", SearchQuery(URL_PATTERN, prefix=URL_PREFIX_REGEX, top_k=40, sequence_length=24)),
    ]
    for config in FIGURE7_CONFIGS + FIGURE13_CONFIGS:
        if config.use_prefix:
            for gender in ("man", "woman"):
                query = bias_query(config, gender, num_samples=1, seed=0)
                cases.append(("env", query.with_(search_strategy=shortest, num_samples=None)))
    world = knowledge_world(0)
    cases.extend((world, birthdate_query(subject)) for subject, _ in FACTS[:2])
    return cases


class TestPrefixTextMemo:
    """``prefix_text`` is memoised on the match's head; the oracle is the
    character-by-character walk of the prefix closure it replaced."""

    @staticmethod
    def _walk(closure, text):
        state, prefix_text = closure.start, ""
        for i, ch in enumerate(text):
            state = closure.transitions.get(state, {}).get(ch)
            if state is None:
                break
            prefix_text = text[: i + 1]
        return prefix_text

    def test_equals_the_walk_on_every_prefix_bearing_query(self, model, tokenizer, env):
        import itertools

        worlds = {"tiny": (model, tokenizer), "env": (env.model("xl"), env.tokenizer)}
        for where, query in _prefix_bearing_queries():
            m, tok = worlds[where] if isinstance(where, str) else (where.model("xl"), where.tokenizer)
            session = prepare(m, tok, query, max_expansions=3000)
            closure = session.compiled.prefix_closure
            matches = list(itertools.islice(session, 60))
            assert matches, query.query_string
            for match in matches:
                assert match.prefix_text == self._walk(closure, match.text)
            executor = session.executor
            if closure.has_cycle():
                assert executor._prefix_span is None and not executor._prefix_memo
            else:
                longest = max(closure.enumerate_strings(), key=len)
                assert executor._prefix_span == len(longest)
                assert set(executor._prefix_memo) == {m.text[: len(longest)] for m in matches}
