"""Cross-query static analysis: relational findings over a whole query set.

The single-query analyzer (:mod:`repro.core.analyze`) inspects one compiled
query at a time, but every real validation workload — ``lint --set all``,
the bias/knowledge loops, :func:`repro.core.api.search_many` — submits
*dozens* of overlapping patterns.  Because ReLM compiles queries to
automata, the relations between them are **decidable** before any LM call:
language equivalence via minimized-DFA canonical forms
(:meth:`~repro.automata.dfa.DFA.canonical_form`), containment and
disjointness via product constructions
(:meth:`~repro.automata.dfa.DFA.difference` /
:meth:`~repro.automata.dfa.DFA.intersect`), and overlap mass via the same
exact big-int walk DP the uniform sampler uses
(:class:`~repro.automata.walks.WalkCounter`).

:class:`QuerySetAnalyzer` turns those checks into a :class:`SetReport` of
pairwise findings with stable codes:

* ``RLM007`` — duplicate query (language-equivalent to an earlier one);
* ``RLM008`` — subsumed query (strict subset of another's language);
* ``RLM009`` — significant overlap (nonempty intersection whose exact
  string mass is a large fraction of the smaller language);
* ``RLM010`` — shared forced token prefix ≥ k (those contexts are scored
  once and reused through the shared logits / prefix-state caches,
  whatever the submit order);
* ``RLM011`` — analysis budget exhausted: some relations are "unknown".

Everything is bounded by ``state_budget``: minimisation and product
constructions that would blow past it degrade the affected pairs to
``"unknown"`` — the analyzer never stalls and **never reports a wrong
equivalence or containment verdict** (canonical forms are compared for
actual equality inside each fingerprint bucket, so even a hash collision
cannot produce a false RLM007).

The report is advice to the portfolio's *author* — ``relm lint-set`` /
``lint --set`` print it and CI gates on it: drop (or merge) the RLM007 /
RLM008 query.  Nothing at run time consumes it; the scheduler does not
need to, because a duplicate that does run asks only for contexts its twin
also asks for, and the shared :class:`~repro.lm.base.LogitsCache` scores
each of those once (``tests/test_scheduler.py::TestDuplicateQueries``).
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Iterator, Mapping, Sequence

from repro.automata.dfa import DFA, ProductBudgetExceeded
from repro.automata.walks import WalkCounter
from repro.core.findings import Finding, Severity

if TYPE_CHECKING:  # avoid a compiler <-> analyze_set import cycle
    from repro.core.compiler import CompiledQuery

__all__ = ["PairRelation", "SetReport", "QuerySetAnalyzer"]

#: Relation verdicts between two queries' languages, as stored in
#: :attr:`SetReport.relations` (for the index pair ``(i, j)`` with
#: ``i < j``; ``"subset"`` means ``L(i) ⊂ L(j)``, ``"superset"`` the
#: reverse).  ``"unknown"`` only ever appears on budget exhaustion.
RELATIONS = (
    "equivalent", "subset", "superset", "overlap", "disjoint", "unknown"
)

#: Matrix glyph per relation (the ``lint-set`` text rendering).
_GLYPH = {
    "equivalent": "=",
    "subset": "<",
    "superset": ">",
    "overlap": "o",
    "disjoint": ".",
    "unknown": "?",
}


@dataclass(frozen=True)
class PairRelation:
    """One pairwise verdict: query *a* vs query *b* (set indices)."""

    a: int
    b: int
    relation: str
    #: Exact number of shared strings (within the analyzer horizon when
    #: either language is infinite); ``None`` when not computed.
    overlap_mass: int | None = None

    def as_dict(self, names: Sequence[str]) -> dict[str, Any]:
        return {
            "a": names[self.a],
            "b": names[self.b],
            "relation": self.relation,
            "overlap_mass": self.overlap_mass,
        }


@dataclass(frozen=True)
class SetReport:
    """The query-set analyzer's verdict on N compiled queries.

    ``findings`` are cross-query (RLM007–RLM011), ordered most-severe
    first; per-query findings stay on each query's own
    :class:`~repro.core.findings.QueryReport`.  ``relations`` holds one
    entry per unordered index pair; ``duplicate_groups`` lists equivalence
    classes of size ≥ 2 (first member is the one to keep);
    ``subsumptions`` maps each strictly-subsumed query index to one
    superset's index; ``prefix_clusters`` groups queries sharing a forced
    token prefix of length ≥ k.  ``unknown_pairs`` counts relations the
    state budget left undecided.
    """

    names: tuple[str, ...]
    findings: tuple[Finding, ...]
    relations: Mapping[tuple[int, int], PairRelation]
    duplicate_groups: tuple[tuple[int, ...], ...]
    subsumptions: Mapping[int, int]
    prefix_clusters: tuple[tuple[int, ...], ...]
    unknown_pairs: int
    state_budget: int
    analysis_ms: float = 0.0
    #: What the author can delete from the portfolio: redundant duplicates
    #: (RLM007), strictly-subsumed queries (RLM008), and the summed static
    #: LM-call bound of both — their *requested*-context budget, not model
    #: work, since the shared logits cache already scores a repeated
    #: context once (``None`` when no per-query cost estimate was
    #: available).
    projected_dedupe: int = 0
    projected_subsumed: int = 0
    projected_lm_calls_saved: int | None = None

    def __iter__(self) -> Iterator[Finding]:
        return iter(self.findings)

    @property
    def codes(self) -> frozenset[str]:
        """The set of cross-query finding codes present."""
        return frozenset(f.code for f in self.findings)

    def relation(self, i: int, j: int) -> str:
        """The relation between queries *i* and *j* (order-normalised:
        ``"subset"`` always means ``L(i) ⊂ L(j)``)."""
        if i == j:
            return "equivalent"
        pair = self.relations.get((min(i, j), max(i, j)))
        if pair is None:
            return "unknown"
        if i < j:
            return pair.relation
        flipped = {"subset": "superset", "superset": "subset"}
        return flipped.get(pair.relation, pair.relation)

    def findings_for(self, name: str) -> tuple[Finding, ...]:
        """Cross-query findings that mention query *name*."""
        out = []
        for f in self.findings:
            data = f.data
            mentioned = {
                data.get("query"), data.get("of"), data.get("superset"),
                data.get("a"), data.get("b"),
            }
            mentioned.update(data.get("members", ()))
            if name in mentioned:
                out.append(f)
        return tuple(out)

    def matrix_rows(self) -> list[str]:
        """The relation matrix as glyph strings (row i, column j)."""
        n = len(self.names)
        rows = []
        for i in range(n):
            rows.append(
                "".join(
                    _GLYPH[self.relation(i, j)] if i != j else "="
                    for j in range(n)
                )
            )
        return rows

    def as_dict(self) -> dict[str, Any]:
        """Plain-dict view for ``--json`` output."""
        return {
            "queries": list(self.names),
            "findings": [f.as_dict() for f in self.findings],
            "pairs": [
                pair.as_dict(self.names)
                for _, pair in sorted(self.relations.items())
            ],
            "matrix": self.matrix_rows(),
            "duplicate_groups": [
                [self.names[i] for i in group] for group in self.duplicate_groups
            ],
            "subsumptions": {
                self.names[sub]: self.names[sup]
                for sub, sup in sorted(self.subsumptions.items())
            },
            "prefix_clusters": [
                [self.names[i] for i in cluster] for cluster in self.prefix_clusters
            ],
            "unknown_pairs": self.unknown_pairs,
            "state_budget": self.state_budget,
            "analysis_ms": self.analysis_ms,
            "projected": {
                "deduped_queries": self.projected_dedupe,
                "subsumed_queries": self.projected_subsumed,
                "lm_calls_bound_saved": self.projected_lm_calls_saved,
            },
        }

    def render(self) -> str:
        """Multi-line text rendering for the ``lint-set`` subcommand."""
        lines = []
        n = len(self.names)
        if n <= 24:
            width = max((len(name) for name in self.names), default=0)
            for i, row in enumerate(self.matrix_rows()):
                lines.append(f"{self.names[i]:<{width}}  {row}")
        for finding in self.findings:
            lines.append(finding.render())
        budget = (
            str(self.projected_lm_calls_saved)
            if self.projected_lm_calls_saved is not None
            else "?"
        )
        lines.append(
            f"# {n} queries, {len(self.duplicate_groups)} duplicate group(s), "
            f"{len(self.subsumptions)} subsumed, {self.unknown_pairs} unknown "
            f"pair(s); deletable queries request ≤ {budget} contexts "
            f"({self.analysis_ms:.1f}ms)"
        )
        return "\n".join(lines)


@dataclass
class _Entry:
    """Per-query precomputation: minimized DFA, canonical form, prefixes."""

    name: str
    compiled: "CompiledQuery"
    minimized: DFA | None = None
    form: tuple | None = None  # None = state budget exceeded
    fingerprint: str | None = None
    prefix_form: tuple | None | str = "unconditioned"
    forced_prefix: tuple[int, ...] = ()
    group: int = -1  # duplicate-group id, -1 = singleton
    lm_calls_bound: int | None = field(default=None)


class QuerySetAnalyzer:
    """Pairwise relational analysis over N compiled queries.

    Thresholds are analyzer policy, mirroring :class:`QueryAnalyzer`:

    * ``state_budget`` — cap on char-DFA states fed to minimisation *and*
      on pair states a product construction may explore; exceeding it
      degrades the affected queries/pairs to ``"unknown"``.
    * ``dp_budget`` — cap on ``(states + edges) * horizon`` for the
      overlap-mass walk DP (skipped, never wrong, when exceeded).
    * ``horizon`` — unroll depth for overlap mass on infinite languages.
    * ``overlap_threshold`` — overlap mass as a fraction of the smaller
      language at which RLM009 fires.
    * ``min_shared_prefix`` — forced-token-prefix length at which RLM010
      clusters queries.
    """

    def __init__(
        self,
        *,
        state_budget: int = 4096,
        dp_budget: int = 2_000_000,
        horizon: int = 64,
        overlap_threshold: float = 0.25,
        min_shared_prefix: int = 2,
        max_prefix_tokens: int = 64,
    ) -> None:
        if state_budget < 1:
            raise ValueError("state_budget must be >= 1")
        self.state_budget = state_budget
        self.dp_budget = dp_budget
        self.horizon = horizon
        self.overlap_threshold = overlap_threshold
        self.min_shared_prefix = min_shared_prefix
        self.max_prefix_tokens = max_prefix_tokens

    # -- entry point --------------------------------------------------------------
    def analyze(
        self, entries: Sequence[tuple[str, "CompiledQuery"]]
    ) -> SetReport:
        """Produce the :class:`SetReport` for ``[(name, compiled), ...]``."""
        started = time.perf_counter()
        prepared = [self._prepare(name, compiled) for name, compiled in entries]
        findings: list[Finding] = []
        groups = self._duplicate_groups(prepared, findings)
        relations, subsumptions, unknown = self._pairwise(prepared, findings)
        clusters = self._prefix_clusters(prepared, findings)
        if unknown:
            examples = [
                (prepared[i].name, prepared[j].name)
                for (i, j), pair in sorted(relations.items())
                if pair.relation == "unknown"
            ][:4]
            findings.append(
                Finding(
                    code="RLM011",
                    severity=Severity.INFO,
                    message=(
                        f"{unknown} pairwise relation(s) undecided: the "
                        f"{self.state_budget}-state analysis budget was "
                        "exhausted (verdicts degrade to unknown, never guess)"
                    ),
                    data={
                        "pairs": unknown,
                        "state_budget": self.state_budget,
                        "examples": examples,
                    },
                )
            )
        dedupe_count = sum(len(g) - 1 for g in groups)
        saved, saved_known = 0, True
        for group in groups:
            for i in group[1:]:
                bound = prepared[i].lm_calls_bound
                if bound is None:
                    saved_known = False
                else:
                    saved += bound
        for sub in subsumptions:
            bound = prepared[sub].lm_calls_bound
            if bound is None:
                saved_known = False
            else:
                saved += bound
        findings.sort(key=lambda f: (-int(f.severity), f.code, str(sorted(f.data.items()))))
        return SetReport(
            names=tuple(e.name for e in prepared),
            findings=tuple(findings),
            relations=relations,
            duplicate_groups=groups,
            subsumptions=subsumptions,
            prefix_clusters=clusters,
            unknown_pairs=unknown,
            state_budget=self.state_budget,
            analysis_ms=(time.perf_counter() - started) * 1e3,
            projected_dedupe=dedupe_count,
            projected_subsumed=len(subsumptions),
            projected_lm_calls_saved=saved if saved_known else (saved or None),
        )

    # -- per-query preparation ----------------------------------------------------
    def _prepare(self, name: str, compiled: "CompiledQuery") -> _Entry:
        entry = _Entry(name=name, compiled=compiled)
        char_dfa = compiled.char_dfa
        if len(char_dfa.states) <= self.state_budget:
            entry.minimized = char_dfa.minimized()
            entry.form = entry.minimized.canonical_form()
            entry.fingerprint = entry.minimized.canonical_fingerprint()
        prefix_dfa = compiled.prefix_dfa
        if prefix_dfa is None:
            entry.prefix_form = "unconditioned"
        elif len(prefix_dfa.states) <= self.state_budget:
            entry.prefix_form = prefix_dfa.canonical_form()
        else:
            entry.prefix_form = None  # over budget: never claim equality
        entry.forced_prefix = self._forced_token_prefix(compiled)
        report = compiled.report
        if report is not None and report.cost is not None:
            entry.lm_calls_bound = report.cost.lm_calls_bound
        return entry

    def _forced_token_prefix(self, compiled: "CompiledQuery") -> tuple[int, ...]:
        """Canonical token ids of the text every match must start with.

        The char DFA's deterministic spine (single outgoing edge, not yet
        accepting) is the forced prefix; its canonical encoding is the
        context chain the prefix-state cache keys on.  Under all-encodings
        compilation the token automaton branches per encoding, but every
        member of a cluster explores the same canonical chain, so shared
        forced text still means shared cache entries.
        """
        dfa = compiled.char_dfa
        state = dfa.start
        seen = {state}
        chars: list[str] = []
        while len(chars) < self.max_prefix_tokens * 8:
            if state in dfa.accepts:
                break
            row = dfa.transitions.get(state, {})
            if len(row) != 1:
                break
            ch, dst = next(iter(row.items()))
            if dst in seen:  # forced cycle: stop rather than loop
                break
            chars.append(ch)
            seen.add(dst)
            state = dst
        if not chars:
            return ()
        try:
            tokens = compiled.tokenizer.encode("".join(chars))
        except ValueError:
            return ()
        return tuple(tokens[: self.max_prefix_tokens])

    # -- duplicates (O(N) via fingerprint buckets) --------------------------------
    def _duplicate_groups(
        self, prepared: list[_Entry], findings: list[Finding]
    ) -> tuple[tuple[int, ...], ...]:
        buckets: dict[tuple, list[int]] = {}
        for i, entry in enumerate(prepared):
            if entry.form is None or entry.prefix_form is None:
                continue  # budget-exceeded queries never claim equivalence
            key = (
                entry.compiled.query.tokenization_strategy,
                entry.fingerprint,
                entry.prefix_form,
            )
            buckets.setdefault(key, []).append(i)
        groups: list[tuple[int, ...]] = []
        for indices in buckets.values():
            if len(indices) < 2:
                continue
            # Hash-equal is only a bucket: confirm by exact canonical-form
            # equality so a collision can never yield a wrong RLM007.
            by_form: dict[tuple, list[int]] = {}
            for i in indices:
                form = prepared[i].form
                assert form is not None
                by_form.setdefault(form, []).append(i)
            for members in by_form.values():
                if len(members) < 2:
                    continue
                group_id = len(groups)
                for i in members:
                    prepared[i].group = group_id
                groups.append(tuple(members))
                canonical = prepared[members[0]]
                for i in members[1:]:
                    entry = prepared[i]
                    exact = entry.compiled.query == canonical.compiled.query
                    findings.append(
                        Finding(
                            code="RLM007",
                            severity=Severity.WARNING,
                            message=(
                                f"'{entry.name}' is a duplicate of "
                                f"'{canonical.name}': the languages are "
                                "equivalent"
                                + ("" if exact else
                                   " (spelled differently; runtime "
                                   "parameters may still differ)")
                            ),
                            data={
                                "query": entry.name,
                                "of": canonical.name,
                                "exact": exact,
                            },
                        )
                    )
        return tuple(groups)

    # -- pairwise products --------------------------------------------------------
    def _pairwise(
        self, prepared: list[_Entry], findings: list[Finding]
    ) -> tuple[dict[tuple[int, int], PairRelation], dict[int, int], int]:
        relations: dict[tuple[int, int], PairRelation] = {}
        subsumptions: dict[int, int] = {}
        unknown = 0
        for i in range(len(prepared)):
            for j in range(i + 1, len(prepared)):
                a, b = prepared[i], prepared[j]
                if a.group >= 0 and a.group == b.group:
                    relations[(i, j)] = PairRelation(i, j, "equivalent")
                    continue
                if a.minimized is None or b.minimized is None:
                    relations[(i, j)] = PairRelation(i, j, "unknown")
                    unknown += 1
                    continue
                pair = self._relate(i, j, a.minimized, b.minimized)
                relations[(i, j)] = pair
                if pair.relation == "unknown":
                    unknown += 1
                elif pair.relation == "subset":
                    subsumptions.setdefault(i, j)
                    findings.append(_rlm008(a.name, b.name))
                elif pair.relation == "superset":
                    subsumptions.setdefault(j, i)
                    findings.append(_rlm008(b.name, a.name))
                elif pair.relation == "overlap" and pair.overlap_mass:
                    self._maybe_rlm009(a, b, pair, findings)
        return relations, subsumptions, unknown

    def _relate(self, i: int, j: int, ma: DFA, mb: DFA) -> PairRelation:
        budget = self.state_budget
        try:
            inter = ma.intersect(mb, max_states=budget)
            if inter.is_empty():
                return PairRelation(i, j, "disjoint")
            a_only_empty = ma.difference(mb, max_states=budget).is_empty()
            b_only_empty = mb.difference(ma, max_states=budget).is_empty()
        except ProductBudgetExceeded:
            return PairRelation(i, j, "unknown")
        if a_only_empty and not b_only_empty:
            return PairRelation(i, j, "subset")
        if b_only_empty and not a_only_empty:
            return PairRelation(i, j, "superset")
        # (both empty ⇒ equivalent, but equivalence was settled by the
        # canonical forms above — treat it as overlap defensively.)
        return PairRelation(i, j, "overlap", overlap_mass=self._mass(inter))

    def _mass(self, dfa: DFA) -> int | None:
        """Exact big-int string count of *dfa* (within ``horizon`` when
        infinite), or ``None`` past the DP budget."""
        states = dfa.states
        num_edges = sum(len(row) for row in dfa.transitions.values())
        depth = len(states) if not dfa.has_cycle() else self.horizon
        if (len(states) + num_edges) * max(depth, 1) > self.dp_budget:
            return None
        return WalkCounter(dfa, max_length=depth).total()

    def _maybe_rlm009(
        self, a: _Entry, b: _Entry, pair: PairRelation, findings: list[Finding]
    ) -> None:
        assert a.minimized is not None and b.minimized is not None
        mass = pair.overlap_mass
        assert mass is not None
        size_a = self._mass(a.minimized)
        size_b = self._mass(b.minimized)
        if size_a is None or size_b is None:
            return
        smaller = min(size_a, size_b)
        if smaller <= 0:
            return
        ratio = 1.0 if mass >= smaller else mass / smaller
        if ratio < self.overlap_threshold:
            return
        findings.append(
            Finding(
                code="RLM009",
                severity=Severity.INFO,
                message=(
                    f"'{a.name}' and '{b.name}' overlap: {mass} shared "
                    f"string(s), {100 * ratio:.0f}% of the smaller language"
                ),
                data={
                    "a": a.name,
                    "b": b.name,
                    "overlap_mass": mass,
                    "ratio": ratio,
                },
            )
        )

    # -- shared token prefixes ----------------------------------------------------
    def _prefix_clusters(
        self, prepared: list[_Entry], findings: list[Finding]
    ) -> tuple[tuple[int, ...], ...]:
        k = self.min_shared_prefix
        buckets: dict[tuple, list[int]] = {}
        for i, entry in enumerate(prepared):
            if len(entry.forced_prefix) < k:
                continue
            # Token ids are tokenizer-relative: never cluster across
            # tokenizers (``--set all`` mixes worlds).
            key = (id(entry.compiled.tokenizer), entry.forced_prefix[:k])
            buckets.setdefault(key, []).append(i)
        clusters = tuple(
            tuple(members)
            for _, members in sorted(
                buckets.items(), key=lambda kv: min(kv[1])
            )
            if len(members) >= 2
        )
        for cluster in clusters:
            shared = list(prepared[cluster[0]].forced_prefix)
            for i in cluster[1:]:
                other = prepared[i].forced_prefix
                limit = min(len(shared), len(other))
                cut = 0
                while cut < limit and shared[cut] == other[cut]:
                    cut += 1
                del shared[cut:]
            expected_hits = (len(cluster) - 1) * len(shared)
            findings.append(
                Finding(
                    code="RLM010",
                    severity=Severity.INFO,
                    message=(
                        f"{len(cluster)} queries share a forced "
                        f"{len(shared)}-token prefix; the shared caches "
                        f"reuse ≈{expected_hits} prefix-state (KV) entries "
                        "whatever the submit order"
                    ),
                    data={
                        "members": [prepared[i].name for i in cluster],
                        "shared_tokens": len(shared),
                        "expected_prefix_hits": expected_hits,
                    },
                )
            )
        return clusters


def _rlm008(sub_name: str, sup_name: str) -> Finding:
    return Finding(
        code="RLM008",
        severity=Severity.WARNING,
        message=(
            f"'{sub_name}' is subsumed by '{sup_name}': every match of the "
            "former is a match of the latter (strict subset)"
        ),
        data={"query": sub_name, "superset": sup_name},
    )
