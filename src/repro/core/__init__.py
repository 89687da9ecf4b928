"""ReLM core: the paper's contribution — regex queries over LLMs.

Public surface (mirrors the paper's API, Figures 4 and 11):

* :func:`SearchQuery` / :class:`QueryString` / :class:`SimpleSearchQuery` —
  query construction.
* :func:`search` / :func:`prepare` — execution.
* :class:`GraphCompiler` / :class:`TokenAutomaton` — regex → token-automaton
  compilation (§3.2).
* Preprocessors — Levenshtein edits, filters, custom transducers (§3.4).
"""

from repro.core.analyze import QueryAnalyzer, TokenGraphView, analyze_query
from repro.core.analyze_set import PairRelation, QuerySetAnalyzer, SetReport
from repro.core.api import SearchSession, prepare, search, search_many
from repro.core.findings import CostEstimate, Finding, QueryReport, Severity
from repro.core.logging import MatchWriter, read_matches, tee_matches
from repro.core.arrays import AutomatonArrays, StateRow
from repro.core.compiler import (
    CompilationCache,
    CompiledQuery,
    GraphCompiler,
    TokenAutomaton,
    prefixes_of,
)
from repro.core.diagnostics import EliminationTracker
from repro.core.executor import Executor, LmRequest
from repro.core.scheduler import QueryBudget, QueryScheduler, ScheduledQuery
from repro.core.preprocessors import (
    CaseFoldPreprocessor,
    FilterPreprocessor,
    IntersectionPreprocessor,
    LevenshteinPreprocessor,
    Preprocessor,
    SuffixFilterPreprocessor,
    TransducerPreprocessor,
)
from repro.core.query import (
    QuerySearchStrategy,
    QueryString,
    QueryTokenizationStrategy,
    SearchQuery,
    SimpleSearchQuery,
)
from repro.core.results import ExecutionStats, MatchResult, SchedulerStats

__all__ = [
    "search",
    "prepare",
    "search_many",
    "SearchSession",
    "QueryScheduler",
    "QueryBudget",
    "ScheduledQuery",
    "SchedulerStats",
    "LmRequest",
    "MatchWriter",
    "read_matches",
    "tee_matches",
    "SearchQuery",
    "SimpleSearchQuery",
    "QueryString",
    "QuerySearchStrategy",
    "QueryTokenizationStrategy",
    "GraphCompiler",
    "CompilationCache",
    "CompiledQuery",
    "AutomatonArrays",
    "StateRow",
    "TokenAutomaton",
    "prefixes_of",
    "Executor",
    "EliminationTracker",
    "ExecutionStats",
    "MatchResult",
    "QueryAnalyzer",
    "QuerySetAnalyzer",
    "SetReport",
    "PairRelation",
    "TokenGraphView",
    "analyze_query",
    "QueryReport",
    "Finding",
    "CostEstimate",
    "Severity",
    "Preprocessor",
    "LevenshteinPreprocessor",
    "FilterPreprocessor",
    "SuffixFilterPreprocessor",
    "IntersectionPreprocessor",
    "IntersectionPreprocessor",
    "TransducerPreprocessor",
    "CaseFoldPreprocessor",
]
