"""Unit tests for the static query analyzer (``repro.core.analyze``).

One test class per finding code, plus the short-circuit regressions the
analyzer enables: a statically-empty query must produce a clean empty
result — serially and under the scheduler — without a single LM call.
"""

from __future__ import annotations

import json
from dataclasses import replace
from typing import Sequence

import numpy as np
import pytest

from repro.core.analyze import QueryAnalyzer, analyze_query, syntax_error_report
from repro.core.api import prepare, search
from repro.core.compiler import GraphCompiler, TokenAutomaton
from repro.core.findings import CostEstimate, Finding, QueryReport, Severity
from repro.core.preprocessors import FilterPreprocessor, IntersectionPreprocessor
from repro.core.query import QueryString, QueryTokenizationStrategy, SearchQuery, SimpleSearchQuery
from repro.core.scheduler import QueryScheduler


class CountingModel:
    """Delegating model wrapper that counts every scoring call."""

    def __init__(self, inner):
        self._inner = inner
        self.single_calls = 0
        self.batch_calls = 0

    def __getattr__(self, name):
        return getattr(self._inner, name)

    def logprobs(self, context: Sequence[int]) -> np.ndarray:
        self.single_calls += 1
        return self._inner.logprobs(context)

    def logprobs_batch(self, contexts):
        self.batch_calls += 1
        return self._inner.logprobs_batch(contexts)

    def logprobs_round(self, contexts):
        self.batch_calls += 1
        return self._inner.logprobs_round(contexts)

    @property
    def total_calls(self) -> int:
        return self.single_calls + self.batch_calls


def empty_query(**kwargs) -> SimpleSearchQuery:
    """A query whose language is statically empty (``a`` minus ``a``)."""
    return SimpleSearchQuery(
        query_string=QueryString("a"),
        preprocessors=(FilterPreprocessor(["a"]),),
        **kwargs,
    )


class TestSyntaxErrorReport:
    def test_rlm000(self):
        report = syntax_error_report("[unclosed", None, "missing ]")
        assert report.has_errors
        assert report.verdict == "error"
        assert report.codes == {"RLM000"}
        assert report.cost is None


class TestEmptyLanguage:
    def test_rlm001_via_filter(self, tokenizer):
        report = analyze_query(empty_query(), tokenizer)
        assert "RLM001" in report.codes
        assert report.has_errors

    def test_rlm001_via_intersection(self, tokenizer):
        query = SimpleSearchQuery(
            query_string=QueryString("aa"),
            preprocessors=(IntersectionPreprocessor("bb"),),
        )
        report = analyze_query(query, tokenizer)
        assert "RLM001" in report.codes

    def test_healthy_query_has_no_rlm001(self, tokenizer):
        report = analyze_query(SearchQuery("The cat"), tokenizer)
        assert "RLM001" not in report.codes
        assert not report.has_errors


class TestVocabCoverage:
    def test_rlm002_uncovered_symbol(self, tokenizer):
        # '#' is in the engine alphabet but absent from the training
        # corpus, so no BPE token covers it beyond the byte fallback; when
        # even the byte level lacks it the finding must fire.  Build the
        # condition synthetically: analyze with an analyzer whose covered
        # set excludes '#'.
        analyzer = QueryAnalyzer(tokenizer)
        if "#" in analyzer._covered_chars:
            analyzer._covered_chars = analyzer._covered_chars - {"#"}
        report = analyze_query(
            SearchQuery("a#b"), tokenizer, analyzer=analyzer
        )
        assert "RLM002" in report.codes
        rlm002 = report.finding("RLM002")
        assert "#" in rlm002.data["uncovered"]
        # every path goes through '#', so the gap is fatal
        assert rlm002.severity is Severity.ERROR

    def test_rlm002_nonfatal_when_detour_exists(self, tokenizer):
        analyzer = QueryAnalyzer(tokenizer)
        analyzer._covered_chars = analyzer._covered_chars - {"#"}
        report = analyze_query(SearchQuery("a(#|b)c"), tokenizer, analyzer=analyzer)
        rlm002 = report.finding("RLM002")
        assert rlm002 is not None
        assert rlm002.severity is Severity.WARNING
        assert not report.has_errors


class TestInfiniteLanguage:
    def test_rlm003_without_sequence_length(self, tokenizer):
        report = analyze_query(SearchQuery("(cat )+"), tokenizer)
        assert "RLM003" in report.codes
        assert report.cost.language_infinite

    def test_no_rlm003_with_sequence_length(self, tokenizer):
        report = analyze_query(SearchQuery("(cat )+", sequence_length=8), tokenizer)
        assert "RLM003" not in report.codes
        assert report.cost.language_infinite  # still infinite, just bounded

    def test_no_rlm003_for_finite_language(self, tokenizer):
        report = analyze_query(SearchQuery("cat|dog"), tokenizer)
        assert "RLM003" not in report.codes
        assert not report.cost.language_infinite


class TestStateBlowup:
    def test_rlm004_fires_at_low_threshold(self, tokenizer):
        analyzer = QueryAnalyzer(tokenizer, state_threshold=1)
        report = analyze_query(SearchQuery("cat|dog"), tokenizer, analyzer=analyzer)
        assert "RLM004" in report.codes
        assert report.finding("RLM004").severity is Severity.WARNING

    def test_rlm004_silent_normally(self, tokenizer):
        report = analyze_query(SearchQuery("cat|dog"), tokenizer)
        assert "RLM004" not in report.codes


class TestCanonicalDivergence:
    def test_rlm005_on_all_tokens_ambiguity(self, tokenizer):
        report = analyze_query(
            SearchQuery("The cat sat", tokenization=QueryTokenizationStrategy.ALL_TOKENS),
            tokenizer,
        )
        # many encodings per string on this tokenizer -> divergence finding
        assert "RLM005" in report.codes

    def test_rlm005_absent_on_canonical(self, tokenizer):
        report = analyze_query(
            SearchQuery("The cat", tokenization=QueryTokenizationStrategy.CANONICAL),
            tokenizer,
        )
        finding = report.finding("RLM005")
        # A canonical automaton has one path per string: no divergence.
        assert finding is None


class TestDeadStates:
    def test_rlm006_on_planted_dead_state(self, tokenizer):
        compiler = GraphCompiler(tokenizer)
        compiled = compiler.compile(SearchQuery("The cat"))
        automaton = compiled.token_automaton
        # graft an unproductive state reachable from the start
        dead = max(automaton.edges.keys() | {automaton.start}) + 1000
        edges = {q: dict(succ) for q, succ in automaton.edges.items()}
        edges.setdefault(automaton.start, {})[999_999] = dead
        patched = TokenAutomaton(
            start=automaton.start,
            accepts=automaton.accepts,
            edges=edges,
            prefix_live=automaton.prefix_live,
        )
        report = QueryAnalyzer(tokenizer).analyze_compiled(
            replace(compiled, token_automaton=patched)
        )
        assert "RLM006" in report.codes

    def test_no_rlm006_on_trim_compiled_query(self, tokenizer):
        report = analyze_query(SearchQuery("The cat"), tokenizer)
        assert "RLM006" not in report.codes


class TestCostEstimate:
    def test_finite_language_counts(self, tokenizer):
        report = analyze_query(SearchQuery("cat|dog"), tokenizer)
        cost = report.cost
        assert cost.char_language_size == 2
        assert not cost.language_infinite
        assert cost.language_size >= 2  # token paths >= strings
        assert cost.max_frontier_width >= 1
        assert cost.lm_calls_bound >= cost.language_size

    def test_horizon_tracks_sequence_length(self, tokenizer):
        report = analyze_query(SearchQuery("cat", sequence_length=7), tokenizer)
        assert report.cost.horizon == 7

    def test_cache_rebind_recomputes_horizon(self, tokenizer):
        compiler = GraphCompiler(tokenizer)
        first = compiler.compile(SearchQuery("(cat )+"))
        assert "RLM003" in first.report.codes
        # same pattern, now bounded: the cached compilation is reused but
        # the report must drop RLM003 and adopt the new horizon
        second = compiler.compile(SearchQuery("(cat )+", sequence_length=6))
        assert compiler.cache.hits >= 1
        assert "RLM003" not in second.report.codes
        assert second.report.cost.horizon == 6

    def test_report_round_trips_to_json(self, tokenizer):
        report = analyze_query(SearchQuery("cat|dog"), tokenizer)
        payload = json.loads(json.dumps(report.as_dict()))
        assert payload["verdict"] == report.verdict
        assert payload["cost"]["char_language_size"] == 2


class TestReportPlumbing:
    def test_compiled_query_carries_report(self, tokenizer):
        compiled = GraphCompiler(tokenizer).compile(SearchQuery("The cat"))
        assert isinstance(compiled.report, QueryReport)

    def test_analyzer_can_be_disabled(self, tokenizer):
        compiled = GraphCompiler(tokenizer, analyzer=False).compile(SearchQuery("The cat"))
        assert compiled.report is None

    def test_session_exposes_report(self, model, tokenizer):
        session = prepare(model, tokenizer, SearchQuery("The cat"))
        assert session.report is not None
        assert session.report.verdict in ("ok", "warning")

    def test_findings_sorted_most_severe_first(self, tokenizer):
        report = analyze_query(empty_query(), tokenizer)
        severities = [f.severity for f in report.findings]
        assert severities == sorted(severities, reverse=True)


def counting_scheduler(tokenizer, **kwargs):
    """A scheduler over a call-counting trigram model."""
    from repro.lm.ngram import NGramModel
    from tests.conftest import TINY_CORPUS

    counting = CountingModel(
        NGramModel.train_on_text(TINY_CORPUS, tokenizer, order=3, alpha=0.5)
    )
    return counting, QueryScheduler(counting, tokenizer, **kwargs)


#: Every query shape this module compiles (and the cloze-style prefix
#: shape), for the lazy-vs-eager report comparison below.
ANALYZED_QUERIES = [
    empty_query(),
    SimpleSearchQuery(
        query_string=QueryString("aa"), preprocessors=(IntersectionPreprocessor("bb"),)
    ),
    SearchQuery("The cat"),
    SearchQuery("a#b"),
    SearchQuery("(cat )+"),
    SearchQuery("(cat )+", sequence_length=8),
    SearchQuery("cat|dog"),
    SearchQuery("cat", sequence_length=7),
    SearchQuery("The cat sat", tokenization=QueryTokenizationStrategy.ALL_TOKENS),
    SearchQuery("The cat", tokenization=QueryTokenizationStrategy.CANONICAL),
    SearchQuery("The ((cat)|(dog))", prefix="The "),
]


@pytest.fixture
def analyzer_calls(monkeypatch):
    """Counts of ``QueryAnalyzer.analyze_compiled`` / ``rebind`` calls."""
    calls = {"analyze_compiled": 0, "rebind": 0}
    for name in calls:
        original = getattr(QueryAnalyzer, name)

        def spy(self, *args, _name=name, _original=original, **kwargs):
            calls[_name] += 1
            return _original(self, *args, **kwargs)

        monkeypatch.setattr(QueryAnalyzer, name, spy)
    return calls


def _spy_on_has_cycle(monkeypatch):
    """The DFAs ``DFA.has_cycle`` is called on from here on."""
    from repro.automata.dfa import DFA

    walks = []
    original = DFA.has_cycle
    monkeypatch.setattr(DFA, "has_cycle", lambda dfa: walks.append(dfa) or original(dfa))
    return walks


class TestLazyReport:
    """``CompiledQuery.report`` is computed when somebody reads it — and
    then is exactly what the eager compile used to attach."""

    def test_first_match_never_runs_the_analyzer(self, model, tokenizer, analyzer_calls):
        session = prepare(model, tokenizer, SearchQuery("The ((cat)|(dog))"))
        assert next(iter(session)).text in ("The cat", "The dog")
        assert analyzer_calls == {"analyze_compiled": 0, "rebind": 0}

    def test_report_is_computed_once(self, tokenizer, analyzer_calls):
        compiled = GraphCompiler(tokenizer).compile(SearchQuery("The cat"))
        assert analyzer_calls["analyze_compiled"] == 0
        first = compiled.report
        assert compiled.report is first
        assert analyzer_calls == {"analyze_compiled": 1, "rebind": 0}

    @pytest.mark.parametrize("query", ANALYZED_QUERIES, ids=lambda q: q.query_string.query_str)
    def test_lazy_report_equals_direct_analysis(self, tokenizer, query):
        compiler = GraphCompiler(tokenizer)
        compiled = compiler.compile(query)
        assert compiled.report == compiler.analyzer.analyze_compiled(compiled)
        assert compiled.is_empty == ("RLM001" in compiled.report.codes)

    def test_memory_hit_rebinds_on_read(self, tokenizer, analyzer_calls):
        compiler = GraphCompiler(tokenizer)
        analyzer = compiler.analyzer
        unbounded = SearchQuery("(cat )+")
        cold = compiler.compile(unbounded)
        same_horizon = SearchQuery("(cat )+", sequence_length=analyzer.default_horizon)
        other_horizon = SearchQuery("(cat )+", sequence_length=6)
        hits = [compiler.compile(q) for q in (unbounded, same_horizon, other_horizon)]
        assert compiler.cache.hits == 3
        assert analyzer_calls == {"analyze_compiled": 0, "rebind": 0}
        assert [hit.token_automaton is cold.token_automaton for hit in hits] == [True] * 3

        reports = [hit.report for hit in hits]
        # One full analysis of the shared compilation, re-bound per hit; only
        # the changed horizon re-analyzes in full.
        assert analyzer_calls == {"analyze_compiled": 2, "rebind": 3}
        for hit, report in zip(hits, reports):
            assert report == analyzer.rebind(cold, hit.query)
            assert report == analyzer.analyze_compiled(cold, hit.query)
        assert "RLM003" in reports[0].codes
        assert "RLM003" not in reports[1].codes  # sequence_length-dependent
        assert reports[1].cost == reports[0].cost  # reused verbatim
        assert reports[2].cost.horizon == 6

    def test_scheduler_analyzes_once_per_cold_compile(self, tokenizer, analyzer_calls):
        counting, scheduler = counting_scheduler(tokenizer)
        bad = scheduler.submit(empty_query())
        assert analyzer_calls == {"analyze_compiled": 1, "rebind": 0}
        good = scheduler.submit(SearchQuery("The cat"))
        assert analyzer_calls == {"analyze_compiled": 2, "rebind": 0}
        again = scheduler.submit(SearchQuery("The cat", seed=7))
        assert analyzer_calls == {"analyze_compiled": 2, "rebind": 1}
        assert bad.done and bad.truncated_reason == "rejected"
        assert "RLM001" in bad.report.codes
        assert counting.total_calls == 0
        scheduler.run()
        assert bad.stats.lm_calls == 0
        assert {m.text for m in good.results} == {m.text for m in again.results} == {"The cat"}
        assert analyzer_calls == {"analyze_compiled": 2, "rebind": 1}

    def test_disk_entry_without_a_report_round_trips(self, tokenizer, tmp_path, analyzer_calls):
        from repro.core.compile_cache import CompileDiskCache

        query = SearchQuery("The ((cat)|(dog))", prefix="The ")
        writer = GraphCompiler(tokenizer, disk_cache=tmp_path)
        writer.compile(query)  # persisted without anybody reading .report
        assert analyzer_calls == {"analyze_compiled": 0, "rebind": 0}
        fingerprint = CompileDiskCache.fingerprint(writer.cache_key(query))
        assert writer.disk_cache.get(fingerprint).report is None

        reader = GraphCompiler(tokenizer, disk_cache=tmp_path)
        loaded = reader.compile(query)
        assert loaded.metrics.source == "disk"
        assert analyzer_calls == {"analyze_compiled": 0, "rebind": 0}
        assert loaded.report == reader.analyzer.analyze_compiled(loaded)

    def test_disk_entry_keeps_a_report_that_was_read(self, tokenizer, tmp_path):
        from repro.core.compile_cache import CompileCacheEntry

        compiled = GraphCompiler(tokenizer).compile(SearchQuery("(cat )+"))
        report = compiled.report
        assert CompileCacheEntry.from_compiled(compiled).report is report

    def test_hand_built_compilation_takes_an_assigned_report(self, tokenizer):
        from repro.core.compiler import CompiledQuery

        built = GraphCompiler(tokenizer).compile(SearchQuery("The cat"))
        hand_built = CompiledQuery(
            query=built.query,
            tokenizer=tokenizer,
            char_dfa=built.char_dfa,
            prefix_dfa=None,
            prefix_closure=None,
            token_automaton=built.token_automaton,
        )
        assert hand_built.report is None
        assert not hand_built.is_empty
        hand_built.report = built.report
        assert hand_built.report is built.report

    @pytest.mark.parametrize("pattern", ["(cat )+", "cat|dog"])
    def test_memory_hits_never_rewalk_the_char_dfa(self, tokenizer, monkeypatch, pattern):
        """``rebind`` reads the cycle verdict the base analysis decided:
        after the first analysis no hit calls ``DFA.has_cycle`` again, and
        every re-bound report is still the direct analysis — RLM003
        present, absent, and suppressed by ``sequence_length``."""
        compiler = GraphCompiler(tokenizer)
        analyzer = compiler.analyzer
        cold = compiler.compile(SearchQuery(pattern))
        infinite = "RLM003" in cold.report.codes  # the first analysis
        assert infinite == (pattern == "(cat )+")

        walks = _spy_on_has_cycle(monkeypatch)
        queries = [SearchQuery(pattern, seed=seed) for seed in range(5)]
        queries.append(SearchQuery(pattern, sequence_length=analyzer.default_horizon))
        reports = [compiler.compile(q).report for q in queries]
        assert compiler.cache.hits == len(queries)
        assert walks == []
        monkeypatch.undo()
        for query, report in zip(queries, reports):
            assert report == analyzer.analyze_compiled(cold, query)
        assert ["RLM003" in r.codes for r in reports] == [infinite] * 5 + [False]

    def test_cycle_verdict_survives_the_disk_cache(self, tokenizer, tmp_path, monkeypatch):
        """Persisted with the entry when an analysis had decided it, and
        re-decided (once) after loading an entry written without one."""
        from repro.core.compile_cache import CompileCacheEntry

        query = SearchQuery("(cat )+")
        compiled = GraphCompiler(tokenizer).compile(query)
        assert CompileCacheEntry.from_compiled(compiled).char_infinite is None
        assert "RLM003" in compiled.report.codes
        assert CompileCacheEntry.from_compiled(compiled).char_infinite is True

        GraphCompiler(tokenizer, disk_cache=tmp_path).compile(query)  # no report read
        reader = GraphCompiler(tokenizer, cache=True, disk_cache=tmp_path)
        walks = _spy_on_has_cycle(monkeypatch)
        reports = [reader.compile(SearchQuery("(cat )+", seed=seed)).report for seed in range(4)]
        assert reader.disk_cache.hits == 1 and reader.cache.hits == 3
        assert len(walks) == 1
        assert all("RLM003" in report.codes for report in reports)


class TestEmptyShortCircuitSerial:
    def test_no_matches_and_no_lm_traffic(self, tokenizer):
        from repro.lm.ngram import NGramModel
        from tests.conftest import TINY_CORPUS

        counting = CountingModel(
            NGramModel.train_on_text(TINY_CORPUS, tokenizer, order=3, alpha=0.5)
        )
        session = prepare(counting, tokenizer, empty_query())
        assert session.executor.language_empty
        matches = list(session)
        assert matches == []
        assert session.stats.lm_calls == 0
        assert counting.total_calls == 0
        assert session.report.has_errors
        assert "RLM001" in session.report.codes

    def test_search_helper_empty(self, model, tokenizer):
        assert list(search(model, tokenizer, empty_query())) == []


class TestEmptyShortCircuitScheduled:
    _counting_scheduler = staticmethod(counting_scheduler)

    def test_admission_control_rejects(self, tokenizer):
        counting, scheduler = self._counting_scheduler(tokenizer)
        bad = scheduler.submit(empty_query())
        good = scheduler.submit(SearchQuery("The cat"))
        finished = scheduler.run()
        assert len(finished) == 2
        assert bad.truncated and bad.truncated_reason == "rejected"
        assert bad.results == []
        assert bad.stats.lm_calls == 0
        assert not good.truncated
        assert {m.text for m in good.results} == {"The cat"}
        stats = scheduler.stats
        assert stats.queries_rejected == 1
        assert bad.report.verdict == "error"
        assert good.report.verdict in ("ok", "warning")

    def test_rejection_in_stats_dict(self, tokenizer):
        _, scheduler = self._counting_scheduler(tokenizer)
        handle = scheduler.submit(empty_query())
        scheduler.run()
        payload = scheduler.stats.as_dict()
        assert payload["queries_rejected"] == 1
        assert handle.report.verdict == "error"

    def test_without_admission_control_short_circuits(self, tokenizer):
        # Admission is off when the compiler analyzes nothing.
        counting, scheduler = self._counting_scheduler(
            tokenizer, compiler=GraphCompiler(tokenizer, analyzer=False)
        )
        handle = scheduler.submit(empty_query())
        scheduler.run()
        # not rejected: the executor's own short-circuit finishes it clean
        assert not handle.truncated
        assert handle.results == []
        assert handle.stats.lm_calls == 0
        assert counting.total_calls == 0
        assert scheduler.stats.queries_rejected == 0

    def test_cost_cap_rejects_expensive_query(self, tokenizer):
        _, scheduler = self._counting_scheduler(tokenizer, admission_max_cost=0)
        handle = scheduler.submit(SearchQuery("The cat"))
        scheduler.run()
        assert handle.truncated and handle.truncated_reason == "rejected_cost"
        assert scheduler.stats.queries_rejected == 1


class TestFindingPrimitives:
    def test_severity_ordering(self):
        assert Severity.ERROR > Severity.WARNING > Severity.INFO
        assert Severity.ERROR.label == "error"

    def test_finding_render(self):
        f = Finding(code="RLM001", severity=Severity.ERROR, message="empty")
        assert f.render().startswith("RLM001 error")

    def test_cost_render_infinite(self):
        cost = CostEstimate(
            horizon=8,
            num_states=3,
            num_edges=4,
            char_states=2,
            language_infinite=True,
            language_size=12,
        )
        assert "∞" in cost.render()

    def test_report_verdict_ok_when_only_info(self):
        report = QueryReport(
            query_str="x",
            prefix_str=None,
            findings=(Finding(code="RLM005", severity=Severity.INFO, message="m"),),
        )
        assert report.verdict == "ok"
        assert not report.has_errors
