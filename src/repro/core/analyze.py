"""Static query analyzer: compile-time diagnostics and an EXPLAIN cost model.

ReLM's pipeline (§3) compiles a regex through a character DFA into a token
automaton before any LM call — which means most query pathologies are
statically detectable *before* spending LM rounds: empty languages,
vocabulary-coverage gaps (regex alphabet symbols no tokenizer token can
produce — the tokenizer/automaton misalignment Koo et al. and Willard &
Louf identify as the dominant correctness hazard in this class of system),
unbounded match length, and state blowup.

:class:`QueryAnalyzer` turns those checks into a
:class:`~repro.core.findings.QueryReport` of severity-ranked findings with
stable ``RLMxxx`` codes, plus a :class:`~repro.core.findings.CostEstimate`
built from the same exact big-int walk DP the uniform sampler uses
(:class:`~repro.automata.walks.WalkCounter`): language size, frontier
width, and an upper bound on the LM calls an exhaustive traversal would
issue.

The analyzer runs inside :meth:`GraphCompiler.compile` (the report rides
on :class:`~repro.core.compiler.CompiledQuery`), powers the scheduler's
admission control, and backs the ``relm lint`` / ``relm explain`` CLI
subcommands.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Iterable, Mapping

from repro.automata.walks import WalkCounter
from repro.core.findings import CostEstimate, Finding, QueryReport, Severity
from repro.core.query import (
    QueryTokenizationStrategy,
    SimpleSearchQuery,
)

if TYPE_CHECKING:  # imported lazily to avoid a compiler <-> analyze cycle
    from repro.automata.dfa import DFA
    from repro.core.compiler import CompiledQuery, GraphCompiler, TokenAutomaton
    from repro.tokenizers.bpe import BPETokenizer

__all__ = [
    "QueryAnalyzer",
    "TokenGraphView",
    "analyze_query",
    "syntax_error_report",
]


def syntax_error_report(
    query_str: str, prefix_str: str | None, message: str
) -> QueryReport:
    """An ``RLM000`` error report for a pattern that does not parse.

    The CLI builds one of these when :func:`repro.regex.compile_dfa`
    raises, so ``lint`` renders syntax errors like any other error finding
    (and exits non-zero) instead of dumping a traceback.
    """
    return QueryReport(
        query_str=query_str,
        prefix_str=prefix_str,
        findings=(
            Finding(
                code="RLM000",
                severity=Severity.ERROR,
                message=f"pattern does not parse: {message}",
                data={"error": message},
            ),
        ),
        cost=None,
    )


class TokenGraphView:
    """Duck-typed DFA view of a token automaton.

    Exposes the ``start`` / ``accepts`` / ``states`` / ``transitions``
    surface :class:`~repro.automata.walks.WalkCounter` expects, with token
    ids in place of characters (for the analyzer and the executor's
    elimination tracker).
    """

    def __init__(self, automaton: "TokenAutomaton") -> None:
        self.accepts = automaton.accepts
        self.transitions = automaton.edges
        seen = {automaton.start} | set(automaton.accepts) | set(automaton.edges)
        for row in automaton.edges.values():
            seen.update(row.values())
        self._states = sorted(seen)
        self.start = automaton.start

    @property
    def states(self) -> list[int]:
        return self._states


def _reachable(start: int, edges: Mapping[int, Mapping[int, int]]) -> set[int]:
    """States reachable from *start* over *edges*."""
    seen = {start}
    stack = [start]
    while stack:
        state = stack.pop()
        for dst in edges.get(state, {}).values():
            if dst not in seen:
                seen.add(dst)
                stack.append(dst)
    return seen


def _coaccessible(
    accepts: Iterable[int], edges: Mapping[int, Mapping[int, int]]
) -> set[int]:
    """States from which some accepting state is reachable."""
    reverse: dict[int, set[int]] = {}
    for src, row in edges.items():
        for dst in row.values():
            reverse.setdefault(dst, set()).add(src)
    seen = set(accepts)
    stack = list(seen)
    while stack:
        state = stack.pop()
        for prev in reverse.get(state, ()):
            if prev not in seen:
                seen.add(prev)
                stack.append(prev)
    return seen


def _has_cycle(start: int, edges: Mapping[int, Mapping[int, int]]) -> bool:
    """True iff a cycle is reachable from *start* (iterative DFS)."""
    WHITE, GREY, BLACK = 0, 1, 2
    colour: dict[int, int] = {start: GREY}
    stack = [(start, iter(edges.get(start, {}).values()))]
    while stack:
        state, it = stack[-1]
        advanced = False
        for nxt in it:
            c = colour.get(nxt, WHITE)
            if c == GREY:
                return True
            if c == WHITE:
                colour[nxt] = GREY
                stack.append((nxt, iter(edges.get(nxt, {}).values())))
                advanced = True
                break
        if not advanced:
            colour[state] = BLACK
            stack.pop()
    return False


class QueryAnalyzer:
    """Static analysis over compiled queries, for one tokenizer.

    Thresholds are analyzer-level policy, not query semantics:

    * ``state_threshold`` / ``edge_threshold`` — token-automaton sizes
      beyond which ``RLM004`` (state blowup) fires.
    * ``default_horizon`` — token horizon for the cost DP when the query
      sets no ``sequence_length`` (cycles are unrolled to it, §3.3).
    * ``dp_budget`` — cap on ``(states + edges) * horizon`` beyond which
      the exact big-int cost DP is skipped (the report then carries
      ``None`` for the DP-derived quantities).
    * ``ambiguity_threshold`` — encodings-per-string ratio at which
      ``RLM005`` escalates from info to warning.
    """

    def __init__(
        self,
        tokenizer: "BPETokenizer",
        *,
        state_threshold: int = 20_000,
        edge_threshold: int = 500_000,
        default_horizon: int = 64,
        dp_budget: int = 2_000_000,
        ambiguity_threshold: float = 4.0,
    ) -> None:
        self.tokenizer = tokenizer
        self.state_threshold = state_threshold
        self.edge_threshold = edge_threshold
        self.default_horizon = default_horizon
        self.dp_budget = dp_budget
        self.ambiguity_threshold = ambiguity_threshold
        #: Characters producible by at least one ordinary vocabulary token.
        self._covered_chars = frozenset(
            ch for word, _ in tokenizer.vocab.ordinary_items() for ch in word
        )

    # -- entry points -------------------------------------------------------------
    def analyze_compiled(
        self,
        compiled: "CompiledQuery",
        query: SimpleSearchQuery | None = None,
    ) -> QueryReport:
        """Produce the full report for an already-compiled query.

        *query* overrides ``compiled.query`` when re-analyzing a cached
        compilation on behalf of a different query object.
        """
        if query is None:
            query = compiled.query
        char_dfa = compiled.char_dfa
        automaton = compiled.token_automaton.measured
        findings: list[Finding] = []

        char_empty = char_dfa.is_empty()
        reachable = _reachable(automaton.start, automaton.edges)
        coaccessible = _coaccessible(automaton.accepts, automaton.edges)
        token_empty = automaton.start not in coaccessible

        uncovered = self._uncovered_chars(char_dfa)
        findings.extend(self._check_coverage(char_dfa, uncovered))
        if token_empty:
            findings.append(self._empty_finding(query, char_empty, bool(uncovered)))
        else:
            dead = sorted(reachable - coaccessible)
            if dead:
                findings.append(
                    Finding(
                        code="RLM006",
                        severity=Severity.WARNING,
                        message=(
                            f"{len(dead)} token-automaton state(s) cannot reach "
                            "acceptance; traversal work entering them is wasted"
                        ),
                        data={"dead_states": len(dead), "total_states": len(reachable)},
                    )
                )

        char_infinite = compiled.char_infinite
        if char_infinite and not token_empty and query.sequence_length is None:
            findings.append(_rlm003(self.default_horizon))

        cost = self._cost_estimate(query, char_dfa, char_infinite, automaton, coaccessible)

        if cost.num_states > self.state_threshold or cost.num_edges > self.edge_threshold:
            findings.append(
                Finding(
                    code="RLM004",
                    severity=Severity.WARNING,
                    message=(
                        f"token automaton has {cost.num_states} states / "
                        f"{cost.num_edges} edges (thresholds "
                        f"{self.state_threshold}/{self.edge_threshold}); expect "
                        "slow compilation and wide frontiers"
                    ),
                    data={"num_states": cost.num_states, "num_edges": cost.num_edges},
                )
            )

        findings.extend(self._check_canonical_divergence(query, cost))

        findings.sort(key=lambda f: (-int(f.severity), f.code))
        return QueryReport(
            query_str=query.query_string.query_str,
            prefix_str=query.query_string.prefix_str,
            findings=tuple(findings),
            cost=cost,
        )

    def rebind(self, compiled: "CompiledQuery", query: SimpleSearchQuery) -> QueryReport:
        """Re-derive a cached report for a new query object.

        Compilation-cache hits share automata across queries that differ
        only in runtime fields; of the findings, only ``RLM003`` depends on
        such a field (``sequence_length``), so it is recomputed and the
        rest of the report is reused verbatim — unless the effective cost
        horizon changed, in which case the whole analysis is redone.
        """
        report = compiled.report
        if report is None:
            return self.analyze_compiled(compiled, query)
        effective_horizon = query.sequence_length or self.default_horizon
        if report.cost is not None and report.cost.horizon != effective_horizon:
            return self.analyze_compiled(compiled, query)
        findings = [f for f in report.findings if f.code != "RLM003"]
        if (
            query.sequence_length is None
            and not report.has_errors
            and compiled.char_infinite  # decided once, by the base analysis
        ):
            findings.append(_rlm003(self.default_horizon))
        findings.sort(key=lambda f: (-int(f.severity), f.code))
        return QueryReport(
            query_str=report.query_str,
            prefix_str=report.prefix_str,
            findings=tuple(findings),
            cost=report.cost,
        )

    # -- individual checks --------------------------------------------------------
    def _uncovered_chars(self, char_dfa: "DFA") -> tuple[str, ...]:
        used = {ch for row in char_dfa.transitions.values() for ch in row}
        return tuple(sorted(used - self._covered_chars))

    def _check_coverage(
        self, char_dfa: "DFA", uncovered: tuple[str, ...]
    ) -> list[Finding]:
        """RLM002: regex symbols no tokenizer byte sequence can produce."""
        if not uncovered:
            return []
        bad = set(uncovered)
        stripped_edges = {
            src: {ch: dst for ch, dst in row.items() if ch not in bad}
            for src, row in char_dfa.transitions.items()
        }
        co = _coaccessible(char_dfa.accepts, stripped_edges)
        fatal = char_dfa.start not in co
        display = ", ".join(repr(ch) for ch in uncovered[:8])
        if len(uncovered) > 8:
            display += ", …"
        return [
            Finding(
                code="RLM002",
                severity=Severity.ERROR if fatal else Severity.WARNING,
                message=(
                    f"no vocabulary token can produce symbol(s) {display}; "
                    + (
                        "every match requires one, so no string is reachable"
                        if fatal
                        else "strings requiring them are unreachable in token space"
                    )
                ),
                data={"uncovered": list(uncovered), "fatal": fatal},
            )
        ]

    def _empty_finding(
        self, query: SimpleSearchQuery, char_empty: bool, has_gap: bool
    ) -> Finding:
        if char_empty:
            reason = "char-empty"
            message = (
                "the query language is empty: the pattern (after preprocessors) "
                "matches no string"
            )
        elif has_gap:
            reason = "vocab-coverage"
            message = (
                "the token-level language is empty: every match needs a symbol "
                "outside the tokenizer's coverage (see RLM002)"
            )
        else:
            reason = "token-empty"
            message = (
                "the token-level language is empty: no tokenization of any "
                "matching string is walkable"
            )
        return Finding(
            code="RLM001",
            severity=Severity.ERROR,
            message=message,
            data={"reason": reason},
        )

    def _check_canonical_divergence(
        self, query: SimpleSearchQuery, cost: CostEstimate
    ) -> list[Finding]:
        """RLM005: canonical-vs-all-encodings divergence hazards."""
        if (
            query.tokenization_strategy is QueryTokenizationStrategy.ALL_TOKENS
            and not cost.language_infinite
            and cost.language_size
            and cost.char_language_size
            and cost.language_size > cost.char_language_size
        ):
            ratio = cost.language_size / cost.char_language_size
            return [
                Finding(
                    code="RLM005",
                    severity=(
                        Severity.WARNING
                        if ratio >= self.ambiguity_threshold
                        else Severity.INFO
                    ),
                    message=(
                        f"all-encodings compilation yields {cost.language_size} token "
                        f"paths for {cost.char_language_size} strings "
                        f"({ratio:.1f}x encoding ambiguity); canonical tokenization "
                        "would shrink the search space"
                    ),
                    data={
                        "token_paths": cost.language_size,
                        "strings": cost.char_language_size,
                        "ratio": ratio,
                    },
                )
            ]
        return []

    # -- cost model ---------------------------------------------------------------
    def _cost_estimate(
        self,
        query: SimpleSearchQuery,
        char_dfa: "DFA",
        char_infinite: bool,
        automaton: "TokenAutomaton",
        coaccessible: set[int],
    ) -> CostEstimate:
        view = TokenGraphView(automaton)
        num_states = len(view.states)
        num_edges = sum(len(row) for row in automaton.edges.values())
        char_states = len(char_dfa.states)
        horizon = query.sequence_length or self.default_horizon
        infinite = _has_cycle(automaton.start, automaton.edges)

        within_budget = (num_states + num_edges) * max(horizon, 1) <= self.dp_budget
        language_size: int | None = None
        char_language_size: int | None = None
        lm_calls: int | None = None
        frontier: int | None = None
        if within_budget:
            # Finite languages get their exact all-lengths count (paths in a
            # DAG never exceed num_states edges); infinite ones are counted
            # within the horizon, the §3.3 cycle unrolling.
            depth = min(num_states, horizon) if not infinite else horizon
            counter = WalkCounter(view, max_length=depth)
            language_size = counter.total()
            if not char_infinite:
                char_counter = WalkCounter(char_dfa, max_length=len(char_dfa.states))
                char_language_size = char_counter.total()
            lm_calls = self._lm_call_bound(view, counter, horizon, depth)
            frontier = self._max_frontier_width(automaton, coaccessible, horizon)
        return CostEstimate(
            horizon=horizon,
            num_states=num_states,
            num_edges=num_edges,
            char_states=char_states,
            language_infinite=infinite,
            language_size=language_size,
            char_language_size=char_language_size,
            max_frontier_width=frontier,
            lm_calls_bound=lm_calls,
        )

    def _lm_call_bound(
        self, view: TokenGraphView, counter: WalkCounter, horizon: int, depth: int
    ) -> int:
        """Upper bound on contexts an exhaustive traversal scores.

        Counts distinct *live* walk prefixes within the horizon: a walk of
        length ``d`` from the start is one LM context, and it is only ever
        scored if an accepting continuation remains within the budget
        (``counter`` holds the backward counts at every level).  With the
        shared logits cache each distinct context is scored at most once,
        so this is the paper's "test vectors scheduled" figure, not a
        wall-clock proxy.
        """
        forward: dict[int, int] = {view.start: 1}
        total = 0
        for d in range(depth + 1):
            remaining = depth - d
            alive = counter.counts_at(remaining)
            live_now = {
                state: ways
                for state, ways in forward.items()
                if alive.get(state, 0) > 0
            }
            # Only walks with a scorable continuation demand an LM call.
            total += sum(
                ways
                for state, ways in live_now.items()
                if view.transitions.get(state)
            )
            if d == depth:
                break
            nxt: dict[int, int] = {}
            for state, ways in live_now.items():
                for dst in view.transitions.get(state, {}).values():
                    nxt[dst] = nxt.get(dst, 0) + ways
            forward = nxt
            if not forward:
                break
        return total

    def _max_frontier_width(
        self,
        automaton: "TokenAutomaton",
        coaccessible: set[int],
        horizon: int,
    ) -> int:
        """Max distinct live states at any single depth ≤ horizon."""
        frontier = {automaton.start} & coaccessible
        widest = len(frontier)
        seen: set[frozenset[int]] = {frozenset(frontier)}
        for _ in range(horizon):
            nxt: set[int] = set()
            for state in frontier:
                for dst in automaton.edges.get(state, {}).values():
                    if dst in coaccessible:
                        nxt.add(dst)
            if not nxt:
                break
            widest = max(widest, len(nxt))
            key = frozenset(nxt)
            if key in seen:  # the level sequence cycled; width is periodic
                break
            seen.add(key)
            frontier = nxt
        return widest


def _rlm003(horizon: int) -> Finding:
    return Finding(
        code="RLM003",
        severity=Severity.WARNING,
        message=(
            "the language is infinite and the query sets no sequence_length; "
            f"match length is capped only by the model's limit (cost model "
            f"unrolled to {horizon} tokens)"
        ),
        data={"horizon": horizon},
    )


def analyze_query(
    query: SimpleSearchQuery,
    tokenizer: "BPETokenizer",
    *,
    compiler: "GraphCompiler | None" = None,
    analyzer: QueryAnalyzer | None = None,
) -> QueryReport:
    """Compile *query* (through *compiler*, if given) and return its report.

    The one-stop entry point behind ``relm lint`` / ``relm explain``:
    compilation goes through the normal
    :class:`~repro.core.compiler.GraphCompiler` pipeline (and its cache,
    when a shared compiler is passed), so the verdict matches exactly what
    execution would see.
    """
    from repro.core.compiler import GraphCompiler

    if compiler is None:
        compiler = GraphCompiler(tokenizer, analyzer=analyzer)
    compiled = compiler.compile(query)
    if compiled.report is not None:
        return compiled.report
    chosen = analyzer if analyzer is not None else QueryAnalyzer(tokenizer)
    return chosen.analyze_compiled(compiled)
