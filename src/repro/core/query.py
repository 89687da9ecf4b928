"""Query objects: the user-facing description of a ReLM validation task.

A query (§3) bundles (1) a regular expression over strings, (2) decoding /
decision rules, (3) a tokenization strategy (all encodings vs canonical,
§3.2), and (4) a traversal algorithm (§3.3).  The Figure 4 short form::

    query = SearchQuery(r"My phone number is ([0-9]{3}) ([0-9]{3}) ([0-9]{4})",
                        prefix="My phone number is", top_k=40)

and the Figure 11 long form (:class:`QueryString` + :class:`SimpleSearchQuery`)
are both supported; the long form is the underlying representation.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, replace
from typing import Any, Sequence

__all__ = [
    "QuerySearchStrategy",
    "QueryTokenizationStrategy",
    "QueryString",
    "SimpleSearchQuery",
    "SearchQuery",
]


class QuerySearchStrategy(enum.Enum):
    """Traversal algorithm over the LLM automaton (§3.3).

    The paper's executor accepts "any traversal algorithm"; shortest path
    and random sampling are the two it uses, and the two provided.
    """

    #: Dijkstra over -log p: yields matches in decreasing probability.
    SHORTEST_PATH = "shortest_path"
    #: Randomized traversal: unbiased sampling of matches (infinite stream).
    RANDOM_SAMPLING = "random_sampling"


class QueryTokenizationStrategy(enum.Enum):
    """Which token-space representation of the regex to traverse (§3.2)."""

    #: The full (ambiguous) set of encodings — unconditional generation.
    ALL_TOKENS = "all_tokens"
    #: Only canonical encodings — conditional generation.
    CANONICAL = "canonical"


@dataclass(frozen=True)
class QueryString:
    """The formal-language part of a query.

    ``query_str`` is the regex for the *entire* match (prefix included);
    ``prefix_str`` is a regex matching the leading portion that is
    conditioned on rather than decoded — prefix tokens bypass decoding
    rules (§3.3) and incur no semantic cost.  ``prefix_str=None`` means
    unconditional generation over the whole pattern.
    """

    query_str: str
    prefix_str: str | None = None


@dataclass(frozen=True)
class SimpleSearchQuery:
    """Full query configuration (the Figure 11 API).

    Attributes mirror the paper's parameters:

    * ``search_strategy`` / ``tokenization_strategy`` — §3.2–3.3 choices.
    * ``top_k_sampling`` / ``top_p_sampling`` / ``temperature`` — decision
      rules; ``None`` disables a rule.
    * ``sequence_length`` — maximum number of (non-prefix) tokens; ``None``
      uses the model's maximum.
    * ``num_samples`` — for random traversals, how many samples to draw
      before the iterator ends (``None`` = unbounded, as in the paper:
      "random queries are of infinite length").
    * ``require_eos`` — when True, a match must be followed by the model's
      end-of-sequence token (the LAMBADA *terminated* variant, §4.4); the
      EOS step is scored and subject to decoding rules.
    * ``preprocessors`` — transducers applied to the natural-language
      automaton before token compilation (§3.4), e.g. Levenshtein edits.
    * ``uniform_edge_sampling`` — use the *biased* uniform-edge prefix
      sampler instead of walk-normalised weights (Appendix C ablation).
    """

    query_string: QueryString
    search_strategy: QuerySearchStrategy = QuerySearchStrategy.SHORTEST_PATH
    tokenization_strategy: QueryTokenizationStrategy = QueryTokenizationStrategy.ALL_TOKENS
    top_k_sampling: int | None = None
    top_p_sampling: float | None = None
    temperature: float = 1.0
    sequence_length: int | None = None
    num_samples: int | None = None
    require_eos: bool = False
    preprocessors: tuple = ()
    uniform_edge_sampling: bool = False
    seed: int | None = None

    def with_(self, **changes: Any) -> "SimpleSearchQuery":
        """Return a copy with the given fields replaced."""
        return replace(self, **changes)


def SearchQuery(
    pattern: str,
    prefix: str | None = None,
    top_k: int | None = None,
    top_p: float | None = None,
    temperature: float = 1.0,
    strategy: QuerySearchStrategy = QuerySearchStrategy.SHORTEST_PATH,
    tokenization: QueryTokenizationStrategy = QueryTokenizationStrategy.ALL_TOKENS,
    sequence_length: int | None = None,
    num_samples: int | None = None,
    require_eos: bool = False,
    preprocessors: Sequence = (),
    seed: int | None = None,
) -> SimpleSearchQuery:
    """The Figure 4 convenience constructor.

    ``pattern`` must *contain* the prefix: if ``prefix`` is given and
    ``pattern`` does not already start with it (string-literal check only;
    regex prefixes are the caller's responsibility), the two are
    concatenated the way the Figure 4 example implies.
    """
    if prefix is not None and not pattern.startswith(prefix):
        pattern = prefix + pattern
    return SimpleSearchQuery(
        query_string=QueryString(query_str=pattern, prefix_str=prefix),
        search_strategy=strategy,
        tokenization_strategy=tokenization,
        top_k_sampling=top_k,
        top_p_sampling=top_p,
        temperature=temperature,
        sequence_length=sequence_length,
        num_samples=num_samples,
        require_eos=require_eos,
        preprocessors=tuple(preprocessors),
        seed=seed,
    )
