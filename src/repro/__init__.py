"""repro: a reproduction of "Validating Large Language Models with ReLM"
(Kuchnik, Smith, Amvrosiadis — MLSys 2023).

ReLM is a regular-expression query engine for autoregressive language
models.  This package re-implements the full system in pure Python/NumPy —
the regex/automata stack, a trainable BPE tokenizer, n-gram and transformer
language models, the graph compiler, and both traversal executors — plus
the synthetic substrates (web-URL registry, Pile-like corpus, LAMBADA-like
cloze set) needed to rerun every experiment in the paper offline.

Typical usage (the paper's Figure 4)::

    import repro as relm

    query = relm.SearchQuery(
        r"My phone number is ([0-9]{3}) ([0-9]{3}) ([0-9]{4})",
        prefix="My phone number is", top_k=40)
    for match in relm.search(model, tokenizer, query):
        print(match.text)
"""

from repro.core import (
    CaseFoldPreprocessor,
    CompilationCache,
    CostEstimate,
    ExecutionStats,
    Executor,
    FilterPreprocessor,
    Finding,
    GraphCompiler,
    IntersectionPreprocessor,
    LevenshteinPreprocessor,
    MatchResult,
    PairRelation,
    Preprocessor,
    QueryAnalyzer,
    QueryBudget,
    QueryReport,
    QueryScheduler,
    QuerySetAnalyzer,
    QuerySearchStrategy,
    QueryString,
    QueryTokenizationStrategy,
    ScheduledQuery,
    SchedulerStats,
    SearchQuery,
    SearchSession,
    SetReport,
    Severity,
    SimpleSearchQuery,
    SuffixFilterPreprocessor,
    TokenAutomaton,
    TransducerPreprocessor,
    analyze_query,
    prepare,
    search,
    search_many,
)
from repro.lm import (
    GREEDY,
    LogitsCache,
    UNRESTRICTED,
    CountingModel,
    DecodingPolicy,
    LanguageModel,
    NGramModel,
    TransformerConfig,
    TransformerModel,
)
from repro.regex import compile_dfa, escape
from repro.tokenizers import BPETokenizer, Vocabulary, train_bpe

#: Service-layer names resolved lazily so ``import repro`` stays free of
#: the asyncio/server plumbing (a batch job never pays for it).
_SERVICE_EXPORTS = frozenset(
    {
        "ServiceClient",
        "QueryStream",
        "ServiceError",
        "SchedulerService",
        "ValidationServer",
        "ServiceStats",
    }
)


def __getattr__(name: str) -> object:
    if name in _SERVICE_EXPORTS:
        from repro import service

        return getattr(service, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


__version__ = "1.0.0"

__all__ = [
    "__version__",
    # core engine
    "search",
    "prepare",
    "search_many",
    "SearchSession",
    "QueryScheduler",
    "QueryBudget",
    "ScheduledQuery",
    "SchedulerStats",
    "SearchQuery",
    "SimpleSearchQuery",
    "QueryString",
    "QuerySearchStrategy",
    "QueryTokenizationStrategy",
    "GraphCompiler",
    "CompilationCache",
    "TokenAutomaton",
    "Executor",
    "ExecutionStats",
    "MatchResult",
    "QueryAnalyzer",
    "QueryReport",
    "QuerySetAnalyzer",
    "SetReport",
    "PairRelation",
    "Finding",
    "CostEstimate",
    "Severity",
    "analyze_query",
    "Preprocessor",
    "LevenshteinPreprocessor",
    "FilterPreprocessor",
    "SuffixFilterPreprocessor",
    "IntersectionPreprocessor",
    "TransducerPreprocessor",
    "CaseFoldPreprocessor",
    # models
    "LanguageModel",
    "LogitsCache",
    "CountingModel",
    "DecodingPolicy",
    "GREEDY",
    "UNRESTRICTED",
    "NGramModel",
    "TransformerModel",
    "TransformerConfig",
    # tokenizers / regex
    "BPETokenizer",
    "train_bpe",
    "Vocabulary",
    "compile_dfa",
    "escape",
    # service (lazy)
    "ServiceClient",
    "QueryStream",
    "ServiceError",
    "SchedulerService",
    "ValidationServer",
    "ServiceStats",
]
