"""Property and differential tests for the static query analyzer.

Two layers:

* a **hypothesis** property over randomly generated regexes — analyzer
  verdicts must agree with ground truth computed directly on the character
  DFA (emptiness, infiniteness, exact language size);
* a **deterministic differential sweep** over 220 seeded random regexes
  (the CI acceptance gate): RLM001/RLM003 and ``char_language_size`` agree
  with brute force, statically-empty variants are all rejected by the
  scheduler's admission control with zero LM calls, and no error-verdict
  query ever yields a match.

Run with a pinned seed in CI::

    pytest -q tests/test_analyze_properties.py --hypothesis-seed=0
"""

from __future__ import annotations

import random

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.analyze import QueryAnalyzer
from repro.core.compiler import GraphCompiler
from repro.core.preprocessors import FilterPreprocessor
from repro.core.query import QueryString, SearchQuery, SimpleSearchQuery
from repro.core.scheduler import QueryScheduler
from repro.lm.ngram import NGramModel
from repro.regex import compile_dfa
from repro.tokenizers.bpe import train_bpe

from tests.test_analyze import CountingModel

_CORPUS = ["abc abacus cab", "bab cabba abba", "ccc aaa bbb"] * 20
_TOK = train_bpe(_CORPUS, vocab_size=150)
_MODEL = NGramModel.train_on_text(_CORPUS, _TOK, order=3, alpha=0.3)

#: One shared compiler: the sweep doubles as a soak test of report
#: correctness under compilation-cache hits.
_COMPILER = GraphCompiler(_TOK)
_ANALYZER = QueryAnalyzer(_TOK)

_ENUM_CAP = 5000  # finite languages above this size skip the exact check


def random_pattern(rng: random.Random, depth: int = 0) -> str:
    """A small random regex over {a, b, c}."""
    choices = ["atom", "concat", "union"]
    if depth >= 2:
        choices = ["atom", "atom", "concat"]
    kind = rng.choice(choices)
    if kind == "atom":
        atom = rng.choice(["a", "b", "c", "[ab]", "[bc]"])
        suffix = rng.choice(["", "", "", "?", "*", "+"])
        return atom + suffix
    if kind == "concat":
        parts = [random_pattern(rng, depth + 1) for _ in range(rng.randint(2, 3))]
        return "".join(parts)
    left = random_pattern(rng, depth + 1)
    right = random_pattern(rng, depth + 1)
    body = f"({left})|({right})"
    suffix = rng.choice(["", "", "?"])
    return f"({body}){suffix}" if suffix else body


def ground_truth(pattern: str) -> tuple[bool, bool, int | None]:
    """(empty, infinite, exact string count or None) from the char DFA."""
    dfa = compile_dfa(pattern)
    empty = dfa.is_empty()
    infinite = dfa.has_cycle()
    count: int | None = None
    if not empty and not infinite:
        strings = list(dfa.enumerate_strings(limit=_ENUM_CAP + 1))
        count = len(strings) if len(strings) <= _ENUM_CAP else None
    elif empty:
        count = 0
    return empty, infinite, count


def check_against_ground_truth(pattern: str) -> None:
    empty, infinite, count = ground_truth(pattern)
    report = _COMPILER.compile(SearchQuery(pattern)).report
    assert ("RLM001" in report.codes) == empty, pattern
    assert report.has_errors == (empty or any(
        f.severity.name == "ERROR" for f in report.findings
    )), pattern
    # RLM003 fires exactly for infinite, non-empty languages with no
    # sequence_length (these queries never set one)
    assert ("RLM003" in report.codes) == (infinite and not empty), pattern
    assert report.cost.language_infinite == (infinite and not empty), pattern
    if count is not None and report.cost.char_language_size is not None:
        assert report.cost.char_language_size == count, pattern


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=0, max_value=10**9))
def test_analyzer_matches_ground_truth_hypothesis(seed: int) -> None:
    check_against_ground_truth(random_pattern(random.Random(seed)))


def _sweep_patterns(n: int = 220) -> list[str]:
    return [random_pattern(random.Random(1000 + i)) for i in range(n)]


class TestDifferentialSweep:
    """The 220-regex acceptance sweep (deterministic, seeded)."""

    def test_verdicts_agree_with_brute_force(self):
        patterns = _sweep_patterns()
        assert len(patterns) >= 200
        for pattern in patterns:
            check_against_ground_truth(pattern)

    def test_emptied_variants_fire_rlm001(self):
        """Finite languages minus all their strings are statically empty."""
        checked = 0
        for pattern in _sweep_patterns():
            empty, infinite, count = ground_truth(pattern)
            if empty or infinite or count is None or count > 60:
                continue
            strings = list(compile_dfa(pattern).enumerate_strings(limit=count))
            emptied = SimpleSearchQuery(
                query_string=QueryString(pattern),
                preprocessors=(FilterPreprocessor(strings),),
            )
            report = _COMPILER.compile(emptied).report
            assert "RLM001" in report.codes, pattern
            assert report.has_errors, pattern
            checked += 1
        assert checked >= 30  # the generator must produce enough finite cases

    def test_scheduler_rejects_every_error_query_with_zero_lm_calls(self):
        counting = CountingModel(_MODEL)
        scheduler = QueryScheduler(counting, _TOK, compiler=_COMPILER)
        rejected_handles = []
        for pattern in _sweep_patterns():
            empty, infinite, count = ground_truth(pattern)
            if empty or infinite or count is None or count > 60:
                continue
            strings = list(compile_dfa(pattern).enumerate_strings(limit=count))
            handle = scheduler.submit(
                SimpleSearchQuery(
                    query_string=QueryString(pattern),
                    preprocessors=(FilterPreprocessor(strings),),
                )
            )
            rejected_handles.append(handle)
        assert rejected_handles
        scheduler.run()
        for handle in rejected_handles:
            assert handle.truncated and handle.truncated_reason == "rejected"
            assert handle.results == []
            assert handle.stats.lm_calls == 0
        assert scheduler.stats.queries_rejected == len(rejected_handles)
        assert counting.total_calls == 0
        for handle in rejected_handles:
            assert handle.report.verdict == "error"

    def test_error_queries_yield_no_matches_serially(self):
        """Even without admission control, error queries produce nothing."""
        from repro.core.api import search

        produced = 0
        for pattern in _sweep_patterns(80):
            empty, infinite, count = ground_truth(pattern)
            if empty or infinite or count is None or count > 20:
                continue
            strings = list(compile_dfa(pattern).enumerate_strings(limit=count))
            emptied = SimpleSearchQuery(
                query_string=QueryString(pattern),
                preprocessors=(FilterPreprocessor(strings),),
            )
            assert list(search(_MODEL, _TOK, emptied)) == []
            produced += 1
        assert produced >= 5

    def test_sequence_length_suppresses_rlm003(self):
        suppressed = 0
        for pattern in _sweep_patterns(60):
            empty, infinite, _ = ground_truth(pattern)
            if empty or not infinite:
                continue
            bounded = _COMPILER.compile(SearchQuery(pattern, sequence_length=6)).report
            assert "RLM003" not in bounded.codes, pattern
            assert bounded.cost.horizon == 6, pattern
            suppressed += 1
        assert suppressed >= 5
