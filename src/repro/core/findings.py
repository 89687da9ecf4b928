"""Static-analysis findings: the vocabulary of ``relm lint`` / ``relm explain``.

A :class:`QueryReport` is the output of the static query analyzer
(:mod:`repro.core.analyze`): a severity-ranked list of :class:`Finding`
objects with stable ``RLMxxx`` codes, plus an EXPLAIN-style
:class:`CostEstimate` of what executing the query would cost *before* any
LM call is made.  Reports ride on :class:`~repro.core.compiler.CompiledQuery`
so every layer — executor, scheduler, CLI — can act on the same verdict.

Stable codes (never renumber; retire by leaving a gap):

===========  ==================================================================
``RLM000``   syntax error — the pattern (or prefix) does not parse
``RLM001``   empty language — no token path reaches an accepting state
``RLM002``   vocab coverage gap — regex alphabet symbols no tokenizer token
             can produce
``RLM003``   infinite language without an explicit ``sequence_length``
``RLM004``   state blowup — automaton size exceeds the analyzer threshold
``RLM005``   canonical-vs-all divergence — ambiguous encodings inflating
             the all-encodings path count
``RLM006``   dead states — token-automaton states that cannot reach acceptance
``RLM007``   duplicate query — language-equivalent to an earlier query in the
             set (minimized-DFA canonical forms are equal)
``RLM008``   subsumed query — the language is a strict subset of another
             query's (``A ∖ B`` is empty, product-DFA check)
``RLM009``   significant overlap — ``A ∩ B`` is nonempty and its exact
             big-int string mass is a large fraction of the smaller language
``RLM010``   shared token prefix — queries share a forced token prefix of
             length ≥ k; the shared caches reuse those prefix-state (KV)
             entries whatever the submit order
``RLM011``   set analysis budget exhausted — some pairwise relations are
             "unknown" (never a wrong verdict; the product/minimisation
             state budget was hit)
===========  ==================================================================

``RLM000``–``RLM006`` are per-query findings (:class:`QueryReport`);
``RLM007``–``RLM011`` are *cross-query* findings emitted by
:class:`repro.core.analyze_set.QuerySetAnalyzer` into a ``SetReport``.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Any, Iterator, Mapping

__all__ = [
    "Severity",
    "Finding",
    "CostEstimate",
    "QueryReport",
]


class Severity(enum.IntEnum):
    """Finding severity, ordered so ``max()`` picks the worst.

    ``ERROR`` means the query cannot produce a match (the scheduler's
    admission control rejects it up front); ``WARNING`` flags likely
    pathologies (unbounded length, state blowup); ``INFO`` is advisory.
    """

    INFO = 0
    WARNING = 1
    ERROR = 2

    @property
    def label(self) -> str:
        """Lower-case name for reports and JSON (``"error"`` etc.)."""
        return self.name.lower()


@dataclass(frozen=True)
class Finding:
    """One diagnostic: a stable code, a severity, and a human message.

    ``data`` carries machine-readable details (counts, offending symbols)
    for ``--json`` consumers; keys are finding-specific but stable.
    """

    code: str
    severity: Severity
    message: str
    data: Mapping[str, Any] = field(default_factory=dict)

    def as_dict(self) -> dict[str, Any]:
        """Plain-dict view for JSON serialisation."""
        return {
            "code": self.code,
            "severity": self.severity.label,
            "message": self.message,
            "data": dict(self.data),
        }

    def render(self) -> str:
        """One-line text rendering (``RLM001 error    message``)."""
        return f"{self.code} {self.severity.label:<7} {self.message}"


@dataclass(frozen=True)
class CostEstimate:
    """EXPLAIN-style static cost model of one compiled query.

    All counts are exact big-int DP results (the §3.3 walk-counting
    combinatorics via :class:`~repro.automata.walks.WalkCounter`), computed
    within ``horizon`` tokens; ``None`` means the automaton exceeded the
    analyzer's DP budget and the quantity was skipped, never that it is
    zero.  ``language_size`` counts *token paths* — under all-encodings
    compilation a string contributes once per surviving encoding.
    """

    #: Token horizon the DP unrolled to (``sequence_length`` or the
    #: analyzer default).
    horizon: int
    #: Token-automaton size (the product automaton the executor walks).
    num_states: int
    num_edges: int
    #: Character-level (natural language) automaton size.
    char_states: int
    #: True when the *token* automaton has a reachable cycle.
    language_infinite: bool
    #: Number of accepting token paths: exact over all lengths when the
    #: language is finite, else within ``horizon``.
    language_size: int | None = None
    #: Number of accepted character strings (finite languages only).
    char_language_size: int | None = None
    #: Max number of distinct automaton states live at any single depth —
    #: an upper bound on how wide a synchronous frontier can spread.
    max_frontier_width: int | None = None
    #: Upper bound on LM contexts an exhaustive (unpruned) traversal
    #: scores within ``horizon``: the number of distinct live walk
    #: prefixes (each is one context, scored at most once via the cache).
    lm_calls_bound: int | None = None

    def as_dict(self) -> dict[str, Any]:
        """Plain-dict view for JSON serialisation (big ints stay ints)."""
        return {
            "horizon": self.horizon,
            "num_states": self.num_states,
            "num_edges": self.num_edges,
            "char_states": self.char_states,
            "language_infinite": self.language_infinite,
            "language_size": self.language_size,
            "char_language_size": self.char_language_size,
            "max_frontier_width": self.max_frontier_width,
            "lm_calls_bound": self.lm_calls_bound,
        }

    def render(self) -> str:
        """One-line text rendering for ``relm explain``."""

        def fmt(value: int | None) -> str:
            if value is None:
                return "?"
            if value >= 10**12:
                return f"{value:.2e}"
            return str(value)

        size = fmt(self.language_size)
        if self.language_infinite:
            size = f"∞ ({size} within horizon)"
        return (
            f"states={self.num_states} edges={self.num_edges} "
            f"char_states={self.char_states} horizon={self.horizon} "
            f"language={size} frontier≤{fmt(self.max_frontier_width)} "
            f"lm_calls≤{fmt(self.lm_calls_bound)}"
        )


@dataclass(frozen=True)
class QueryReport:
    """The static analyzer's verdict on one query.

    ``findings`` are ordered most-severe first (stable within a severity);
    ``cost`` is ``None`` only when analysis was disabled mid-way.  The
    report is attached to :class:`~repro.core.compiler.CompiledQuery` and
    surfaces through :class:`~repro.core.api.SearchSession`,
    :class:`~repro.core.scheduler.ScheduledQuery`, and the ``lint`` /
    ``explain`` CLI subcommands.
    """

    query_str: str
    prefix_str: str | None
    findings: tuple[Finding, ...]
    cost: CostEstimate | None = None

    def __iter__(self) -> Iterator[Finding]:
        return iter(self.findings)

    @property
    def errors(self) -> tuple[Finding, ...]:
        """Findings at ``ERROR`` severity."""
        return tuple(f for f in self.findings if f.severity is Severity.ERROR)

    @property
    def warnings(self) -> tuple[Finding, ...]:
        """Findings at ``WARNING`` severity."""
        return tuple(f for f in self.findings if f.severity is Severity.WARNING)

    @property
    def has_errors(self) -> bool:
        """True when any finding is an error (admission control rejects)."""
        return any(f.severity is Severity.ERROR for f in self.findings)

    @property
    def codes(self) -> frozenset[str]:
        """The set of finding codes present."""
        return frozenset(f.code for f in self.findings)

    @property
    def verdict(self) -> str:
        """``"error"``, ``"warning"``, or ``"ok"`` — the worst severity."""
        if not self.findings:
            return "ok"
        worst = max(f.severity for f in self.findings)
        return worst.label if worst is not Severity.INFO else "ok"

    def finding(self, code: str) -> Finding | None:
        """The first finding with *code*, or ``None``."""
        for f in self.findings:
            if f.code == code:
                return f
        return None

    def as_dict(self) -> dict[str, Any]:
        """Plain-dict view for ``--json`` output."""
        return {
            "query": self.query_str,
            "prefix": self.prefix_str,
            "verdict": self.verdict,
            "findings": [f.as_dict() for f in self.findings],
            "cost": self.cost.as_dict() if self.cost is not None else None,
        }

    def render(self) -> str:
        """Multi-line text rendering for the ``lint`` subcommand."""
        lines = [f.render() for f in self.findings]
        if self.cost is not None:
            lines.append(f"cost: {self.cost.render()}")
        lines.append(f"verdict: {self.verdict}")
        return "\n".join(lines)
