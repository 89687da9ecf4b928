"""ReLM's Graph Compiler (§3.2): character automata → LLM token automata.

The compiler takes the Natural Language Automaton (a character-level DFA
produced from the query regex, possibly rewritten by preprocessors) and
produces the *LLM Automaton*, whose edges are vocabulary token ids:

* **All encodings** (unconditional generation): every token whose character
  string is readable between two states becomes a "shortcut" edge — the
  Appendix-B algorithm, implemented as one memoised (vocabulary-trie ×
  automaton) walk shared by all states.  Every ambiguous tokenization of every matching string is
  a path.  When the result is provably minimal, each state's row is built
  (and lowered to arrays) the first time a traversal touches the state.
* **Canonical encodings** (conditional generation): only the tokenizer's
  canonical encoding of each string is kept.  Finite, small languages are
  enumerated and re-encoded exactly (the paper's first recovery option);
  infinite or huge languages fall back to the all-encodings automaton plus
  dynamic canonicality pruning in the executor (the second option).

Prefix handling: the compiler also tracks, per state, whether the string
read so far is still within the *prefix region* — a prefix of some string
of the query's prefix language.  Token edges landing in the prefix region
bypass decoding rules (§3.3).
"""

from __future__ import annotations

import os
import time
from collections import OrderedDict
from dataclasses import asdict, dataclass, field, replace
from typing import Hashable, Iterable, Iterator, Mapping

from repro.automata.dfa import DFA
from repro.automata.partition import refine
from repro.automata.trie import SharedWalk, Trie
from repro.core.analyze import QueryAnalyzer
from repro.core.arrays import AutomatonArrays
from repro.core.compile_cache import CompileCacheEntry, CompileDiskCache
from repro.core.findings import QueryReport
from repro.core.query import (
    QueryTokenizationStrategy,
    SimpleSearchQuery,
)
from repro.regex import compile_dfa
from repro.tokenizers.bpe import BPETokenizer

__all__ = [
    "TokenAutomaton",
    "TokenRows",
    "CompiledQuery",
    "CompileMetrics",
    "CompilationCache",
    "GraphCompiler",
    "prefixes_of",
]


@dataclass(frozen=True)
class CompileMetrics:
    """What one compilation cost and produced (see cookbook §13).

    ``token_states``/``token_edges`` describe the automaton as constructed;
    ``minimized_states``/``minimized_edges`` describe what the executor
    actually traverses (after token-level minimization).
    ``compile_ms`` is the wall-clock of the :meth:`GraphCompiler.compile`
    call that produced this object — near zero on cache hits.  ``source``
    records where the compilation came from: ``"cold"`` (built from
    scratch), ``"memory"`` (in-process :class:`CompilationCache` hit), or
    ``"disk"`` (persistent :class:`~repro.core.compile_cache.CompileDiskCache`
    hit).
    """

    token_states: int = 0
    token_edges: int = 0
    minimized_states: int = 0
    minimized_edges: int = 0
    compile_ms: float = 0.0
    source: str = "cold"

    def as_dict(self) -> dict[str, int | float | str]:
        """Plain-dict view for JSON reports: exactly the fields."""
        return asdict(self)


def _sorted_row(row: dict[int, int]) -> dict[int, int]:
    """*row* in canonical ascending-token-id order: makes equivalent
    states' rows identical (the minimizer's bit-identity precondition) and
    matches the reference scan's natural order.  (Sorting the int keys
    alone is ~2.5x faster than sorting the item pairs.)"""
    tokens = sorted(row)
    return dict(zip(tokens, map(row.__getitem__, tokens)))


class TokenRows(Mapping[int, dict[int, int]]):
    """The edges of an all-encodings automaton over a char automaton whose
    states are ``0 … num_states-1``: ``get`` / ``[]`` build one sorted row
    with the shared trie walk and memoise it; iteration and ``len`` build
    every row, then drop the walk and its memo.  ``num_edges`` is counted on
    first read, from the rows once all are built, else by
    :meth:`SharedWalk.count`.  Pickles as the char transitions (and a count
    already made); an unpickled mapping needs ``_walk`` set again.
    """

    def __init__(
        self,
        transitions: dict[int, dict[str, int]],
        num_states: int,
        walk: SharedWalk | None = None,
        num_edges: int | None = None,
    ) -> None:
        self.transitions = transitions
        self.num_states = num_states
        self._walk = walk
        self._num_edges = num_edges
        self._rows: dict[int, dict[int, int]] = {}
        self._complete = False

    @property
    def num_edges(self) -> int:
        """Total number of token edges (counted once, on first read)."""
        if self._num_edges is None:
            self._num_edges = (
                sum(map(len, self._rows.values())) if self._complete
                else self._walk.count(range(self.num_states))  # type: ignore[union-attr]
            )
        return self._num_edges

    def get(  # type: ignore[override]
        self, state: int, default: dict[int, int] | None = None
    ) -> dict[int, int] | None:
        row = self._rows.get(state)
        if row is None and not self._complete:
            built = self._walk.row(state)  # type: ignore[union-attr]
            if built:
                row = self._rows[state] = _sorted_row(built)
        return default if row is None else row

    def step(self, state: int, token_id: int) -> int | None:
        """``self.get(state, {}).get(token_id)``, building no row."""
        row = self._rows.get(state)
        if row is not None or self._complete:
            return None if row is None else row.get(token_id)
        return self._walk.step(state, token_id)  # type: ignore[union-attr]

    def __getitem__(self, state: int) -> dict[int, int]:
        row = self.get(state)
        if row is None:
            raise KeyError(state)
        return row

    def _all(self) -> dict[int, dict[int, int]]:
        if not self._complete:
            for state in range(self.num_states):
                self.get(state)  # memoises every non-empty row
            self._rows = dict(sorted(self._rows.items()))
            self._complete = True
            self._walk = None
        return self._rows

    def __iter__(self) -> Iterator[int]:
        return iter(self._all())

    def __len__(self) -> int:
        return len(self._all())

    def __reduce__(self) -> tuple:
        return TokenRows, (self.transitions, self.num_states, None, self._num_edges)


@dataclass
class TokenAutomaton:
    """A token-space automaton: edges are vocabulary token ids.

    ``edges[q][token_id]`` is the successor state; ``edges`` is a plain dict
    or, for an automaton :meth:`GraphCompiler.compile_all_tokens` proved
    minimal, :class:`TokenRows` that build each row on first read.
    ``prefix_live`` marks states whose path-so-far still lies within the
    prefix region (edges *into* such states are exempt from decoding
    rules).  When ``dynamic_canonical`` is set, paths must additionally be
    canonical encodings — enforced by the executor at traversal time.
    """

    start: int
    accepts: frozenset[int]
    edges: Mapping[int, dict[int, int]] = field(default_factory=dict)
    prefix_live: frozenset[int] = frozenset()
    dynamic_canonical: bool = False
    #: Memoised array lowering (see :meth:`arrays`); not part of identity.
    _arrays: AutomatonArrays | None = field(
        default=None, repr=False, compare=False
    )
    #: Set by :meth:`GraphCompiler.compile_all_tokens` when it has proved
    #: this automaton is already its own :meth:`minimized`; not part of
    #: identity.
    _minimal: bool = field(default=False, repr=False, compare=False)

    def successors(self, state: int) -> dict[int, int]:
        """Token edges leaving *state* (empty dict if none)."""
        return self.edges.get(state, {})

    def step(self, state: int, token_id: int) -> int | None:
        """The successor of *state* on *token_id* (``None`` if no edge);
        lazy rows answer it without building the row."""
        if isinstance(self.edges, TokenRows):
            return self.edges.step(state, token_id)
        return self.edges.get(state, {}).get(token_id)

    def is_prefix_edge(self, dst: int) -> bool:
        """True iff an edge landing at *dst* lies within the prefix region."""
        return dst in self.prefix_live

    @property
    def num_states(self) -> int:
        """Number of distinct states mentioned by the automaton."""
        if isinstance(self.edges, TokenRows):
            return self.edges.num_states
        seen = {self.start} | set(self.accepts) | set(self.edges)
        for row in self.edges.values():
            seen.update(row.values())
        return len(seen)

    @property
    def num_edges(self) -> int:
        """Total number of token edges."""
        if isinstance(self.edges, TokenRows):
            return self.edges.num_edges
        return sum(len(row) for row in self.edges.values())

    def accepts_tokens(self, tokens: Iterable[int]) -> bool:
        """True iff the token path exists and ends in an accepting state."""
        state: int | None = self.start
        for tok in tokens:
            state = self.step(state, tok)
            if state is None:
                return False
        return state in self.accepts

    def arrays(
        self, vocab_size: int | None = None, intervals: bool = False
    ) -> AutomatonArrays:
        """The array lowering of this automaton (made once, then memoised;
        each row is lowered on first touch).  ``vocab_size`` and
        ``intervals`` are accepted and ignored."""
        if self._arrays is None:
            self._arrays = AutomatonArrays(self.edges, self.prefix_live)
        return self._arrays

    # -- state-space reductions --------------------------------------------------
    def _reachable(self) -> set[int]:
        seen = {self.start}
        stack = [self.start]
        while stack:
            for dst in self.edges.get(stack.pop(), {}).values():
                if dst not in seen:
                    seen.add(dst)
                    stack.append(dst)
        return seen

    def trimmed(self) -> "TokenAutomaton":
        """Drop states not on any start→accept token path.

        Dead/unreachable states never contribute a match, so removing them
        preserves the token language (and therefore every match stream)
        exactly while shrinking the executor's working set.  States are
        renumbered compactly (sorted survivor order); edge-row key order is
        preserved.  The start state is always kept.
        """
        reachable = self._reachable()
        reverse: dict[int, set[int]] = {}
        for src in reachable:
            for dst in self.edges.get(src, {}).values():
                reverse.setdefault(dst, set()).add(src)
        useful = set(self.accepts) & reachable
        queue = list(useful)
        while queue:
            for prev in reverse.get(queue.pop(), ()):
                if prev not in useful:
                    useful.add(prev)
                    queue.append(prev)
        keep = useful | {self.start}
        remap = {old: new for new, old in enumerate(sorted(keep))}
        edges: dict[int, dict[int, int]] = {}
        for src in sorted(keep):
            if src not in useful and src != self.start:
                continue
            row = {
                tok: remap[dst]
                for tok, dst in self.edges.get(src, {}).items()
                if dst in useful
            }
            if row:
                edges[remap[src]] = row
        return TokenAutomaton(
            start=remap[self.start],
            accepts=frozenset(remap[q] for q in self.accepts if q in keep),
            edges=edges,
            prefix_live=frozenset(remap[q] for q in self.prefix_live if q in keep),
            dynamic_canonical=self.dynamic_canonical,
        )

    def minimized(self) -> "TokenAutomaton":
        """The minimal equivalent automaton (trim, partial).

        The state partition comes from :func:`repro.automata.partition.refine`
        — the kernel :meth:`repro.automata.dfa.DFA.minimized` uses — seeded
        with (accepting, prefix-live) labels, so ``is_prefix_edge`` answers
        (and therefore the §3.3 decoding-rule bypass) survive merging.
        Each block is named by its id (ids ascend with the block's minimum
        member) and takes that member's edges in ascending token id.  The
        token language is unchanged, and because compiled edge rows are
        canonically sorted by token id, every traversal order — heap
        tie-breaks, beam argsorts, the sampling RNG stream — is
        bit-identical to the unminimized automaton's.  A quotient of a trim
        automaton is trim, so the result needs no further trimming.

        An automaton :meth:`GraphCompiler.compile_all_tokens` proved minimal
        on its character-level product is returned unchanged.
        """
        if self._minimal:
            return self
        base = self.trimmed()
        if not base.accepts:
            return base
        block_of, representatives = refine(
            base.edges,
            {q: (q in base.accepts, q in base.prefix_live) for q in base._reachable()},
        )
        edges: dict[int, dict[int, int]] = {}
        for block, rep in enumerate(representatives):
            row = base.edges.get(rep)
            if row:
                edges[block] = {tok: block_of[row[tok]] for tok in sorted(row)}
        return TokenAutomaton(
            start=block_of[base.start],
            accepts=frozenset(block_of[q] for q in base.accepts),
            edges=edges,
            prefix_live=frozenset(block_of[q] for q in base.prefix_live),
            dynamic_canonical=base.dynamic_canonical,
        )


class _LazyReport:
    """The descriptor behind :attr:`CompiledQuery.report`: computed when
    somebody first reads it, cached, and assignable.

    As a dataclass field default it reads ``None`` at class level, and the
    generated ``__init__`` routes ``report=`` through :meth:`__set__`.
    """

    def __get__(
        self, compiled: "CompiledQuery | None", owner: type | None = None
    ) -> QueryReport | None:
        if compiled is None:
            return None
        analyzer = compiled._analyzer
        if compiled._report is None and analyzer is not None:
            shared = compiled._rebind_from
            compiled._report = (
                analyzer.analyze_compiled(compiled)
                if shared is None
                else analyzer.rebind(shared, compiled.query)
            )
        return compiled._report

    def __set__(self, compiled: "CompiledQuery", report: QueryReport | None) -> None:
        compiled._report = report


@dataclass
class CompiledQuery:
    """Everything the executor needs to run a query (Figure 2's pipeline
    output).

    ``char_dfa`` is the preprocessed Natural Language Automaton;
    ``prefix_dfa`` the preprocessed prefix language (``None`` when
    unconditioned); ``prefix_closure`` accepts every string in the prefix
    region (used for uniform prefix sampling); ``token_automaton`` the LLM
    automaton.
    """

    query: SimpleSearchQuery
    tokenizer: BPETokenizer
    char_dfa: DFA
    prefix_dfa: DFA | None
    prefix_closure: DFA | None
    token_automaton: TokenAutomaton
    #: Static-analysis verdict, computed on first read — by ``lint`` /
    #: ``explain``, :attr:`SearchSession.report`, the scheduler's admission
    #: control; a ``prepare(...)`` → first-match run never pays for it.
    #: ``None`` when the compiler's analyzer is disabled and for hand-built
    #: compilations nobody assigned one to.
    report: QueryReport | None = _LazyReport()  # type: ignore[assignment]
    #: Compile-time measurements (``None`` for hand-built compilations).
    metrics: CompileMetrics | None = None
    #: What computes ``report``: the compiler's analyzer and, on a cache
    #: hit, the shared compilation whose report is re-bound to ``query``
    #: (only ``RLM003`` and the cost horizon depend on the query object).
    _analyzer: QueryAnalyzer | None = field(default=None, repr=False, compare=False)
    _rebind_from: "CompiledQuery | None" = field(
        default=None, repr=False, compare=False
    )
    _char_infinite: bool | None = field(default=None, repr=False, compare=False)

    @property
    def char_infinite(self) -> bool:
        """True iff ``char_dfa`` has a cycle (what ``RLM003`` turns on).

        One DFS per compilation, on the first analysis: cache hits re-bind
        their report from the shared compilation and read it there, and
        the disk cache persists it with the entry.
        """
        if self._char_infinite is None:
            self._char_infinite = self.char_dfa.has_cycle()
        return self._char_infinite

    @property
    def is_empty(self) -> bool:
        """True iff no token path reaches acceptance (RLM001 territory).
        A proven-minimal automaton is trim: it is empty iff nothing accepts."""
        automaton = self.token_automaton
        if automaton._minimal:
            return not automaton.accepts
        seen = {automaton.start}
        stack = [automaton.start]
        while stack:
            state = stack.pop()
            if state in automaton.accepts:
                return False
            for dst in automaton.edges.get(state, {}).values():
                if dst not in seen:
                    seen.add(dst)
                    stack.append(dst)
        return True


def prefixes_of(dfa: DFA) -> DFA:
    """The prefix-closure language: every prefix of every string in
    ``L(dfa)``.

    Because our DFAs are trim, this is simply the same automaton with every
    state accepting.
    """
    trimmed = dfa.trimmed()
    return DFA(
        start=trimmed.start,
        accepts=frozenset(trimmed.states),
        transitions={q: dict(row) for q, row in trimmed.transitions.items()},
    )


class CompilationCache:
    """A bounded LRU cache of compiled queries, shareable across compilers.

    Keys capture everything compilation depends on — regex and prefix
    strings, tokenization strategy, the preprocessor pipeline's signature,
    the tokenizer fingerprint, and the enumeration limit — so templated
    experiment loops (bias/toxicity/memorization compile hundreds of
    near-identical patterns) skip straight to the compiled automaton.
    Runtime-only query fields (seed, sample counts, decoding rules) are
    deliberately absent from the key; hits are re-bound to the incoming
    query object.
    """

    def __init__(
        self, max_entries: int = 256, max_bytes: int | None = 64 << 20
    ) -> None:
        if max_entries <= 0:
            raise ValueError("max_entries must be positive")
        if max_bytes is not None and max_bytes <= 0:
            raise ValueError("max_bytes must be positive (or None for unbounded)")
        self.max_entries = max_entries
        self.max_bytes = max_bytes
        self._store: OrderedDict[Hashable, CompiledQuery] = OrderedDict()
        self._sizes: dict[Hashable, int] = {}
        self.bytes_estimate = 0
        self.hits = 0
        self.misses = 0
        self.evictions = 0

    def __len__(self) -> int:
        return len(self._store)

    @staticmethod
    def entry_bytes(compiled: CompiledQuery) -> int:
        """Rough resident size of one entry, from its automaton shape.

        Per state: the edge dict plus array-row overhead; per edge: dict
        slot plus three array cells.  Deliberately cheap and deterministic —
        this sizes the byte budget, it is not an exact memory audit.
        """
        automaton = compiled.token_automaton
        return 128 * automaton.num_states + 40 * automaton.num_edges

    def get(self, key: Hashable) -> CompiledQuery | None:
        """The cached compilation for *key* (LRU-touched), or ``None``."""
        cached = self._store.get(key)
        if cached is None:
            self.misses += 1
            return None
        self._store.move_to_end(key)
        self.hits += 1
        return cached

    def put(self, key: Hashable, compiled: CompiledQuery) -> None:
        """Insert *compiled*, evicting least-recently-used entries while the
        cache is over its entry count *or* its byte budget.

        Sizing by entry count alone let one huge product automaton pin
        ``max_entries`` slots' worth of memory; the byte budget
        (``max_bytes``, default 64 MiB) caps the estimated resident size of
        the automata actually held.  The newest entry is never evicted, so
        an oversized compilation still caches (alone).
        """
        previous = self._sizes.pop(key, None)
        if previous is not None:
            self.bytes_estimate -= previous
        size = self.entry_bytes(compiled)
        self._store[key] = compiled
        self._store.move_to_end(key)
        self._sizes[key] = size
        self.bytes_estimate += size
        while len(self._store) > 1 and (
            len(self._store) > self.max_entries
            or (self.max_bytes is not None and self.bytes_estimate > self.max_bytes)
        ):
            evicted_key, _ = self._store.popitem(last=False)
            self.bytes_estimate -= self._sizes.pop(evicted_key)
            self.evictions += 1

    def clear(self) -> None:
        """Drop all entries (counters are preserved)."""
        self._store.clear()
        self._sizes.clear()
        self.bytes_estimate = 0

    @property
    def hit_rate(self) -> float:
        """Fraction of lookups served from cache (0 when unused)."""
        total = self.hits + self.misses
        return self.hits / total if total else 0.0

    def stats(self) -> dict[str, int | float]:
        """Plain-dict counter view for logging/reporting."""
        return {
            "entries": len(self._store),
            "bytes_estimate": self.bytes_estimate,
            "hits": self.hits,
            "misses": self.misses,
            "evictions": self.evictions,
            "hit_rate": self.hit_rate,
        }


class GraphCompiler:
    """Compiles queries for one tokenizer (the vocabulary trie is shared).

    ``cache`` enables cross-query compilation reuse; by default each
    compiler owns a private :class:`CompilationCache`, and callers that
    share a tokenizer across compilers may pass a shared one instead.
    ``cache=False`` disables caching entirely.

    Every compilation is minimized (:meth:`TokenAutomaton.minimized`; the
    token-level pass is skipped only when :meth:`compile_all_tokens` has
    proved the automaton minimal on its character-level product) — a pure
    state/edge shrink; every match stream is bit-identical to the
    unminimized automaton's (the differential grid pins this against
    hand-built unminimized compilations).  A proven-minimal automaton's
    token rows are built, and lowered to arrays, the first time a
    traversal touches their state.  The static analyzer is *not* run
    here: a compilation computes its :attr:`~CompiledQuery.report` when
    somebody reads it.
    ``disk_cache`` (a directory path or a prebuilt
    :class:`~repro.core.compile_cache.CompileDiskCache`) persists
    compilations across processes and runs: service restarts, ``--resume``
    sweeps, and fresh CLI invocations skip straight to the compiled
    automaton.
    """

    def __init__(
        self,
        tokenizer: BPETokenizer,
        enumeration_limit: int = 20000,
        cache: CompilationCache | bool | None = None,
        analyzer: QueryAnalyzer | bool | None = None,
        disk_cache: CompileDiskCache | str | os.PathLike[str] | None = None,
    ) -> None:
        self.tokenizer = tokenizer
        self.enumeration_limit = enumeration_limit
        self._trie = Trie(tokenizer.vocab.ordinary_items())
        #: Characters that are tokens by themselves (see ``_proves_minimal``).
        self._char_tokens = frozenset(
            ch for ch, node in self._trie.root.children.items() if node.token_ids
        )
        if cache is None or cache is True:
            cache = CompilationCache()
        elif cache is False:
            cache = None
        self.cache = cache
        if analyzer is None or analyzer is True:
            analyzer = QueryAnalyzer(tokenizer)
        elif analyzer is False:
            analyzer = None
        self.analyzer = analyzer
        if disk_cache is not None and not isinstance(disk_cache, CompileDiskCache):
            disk_cache = CompileDiskCache(disk_cache)
        self.disk_cache = disk_cache
        self._fingerprint = tokenizer.fingerprint()

    # -- public entry point ------------------------------------------------------
    def cache_key(self, query: SimpleSearchQuery) -> Hashable | None:
        """The compilation-cache key for *query* (``None`` = uncacheable)."""
        signatures = []
        for preprocessor in query.preprocessors:
            signature = getattr(preprocessor, "cache_signature", lambda: None)()
            if signature is None:
                return None  # opaque rewrite: never share compilations
            signatures.append(signature)
        return (
            query.query_string.query_str,
            query.query_string.prefix_str,
            query.tokenization_strategy,
            tuple(signatures),
            self._fingerprint,
            self.enumeration_limit,
        )

    def compile(self, query: SimpleSearchQuery) -> CompiledQuery:
        """Run the full Figure 2 pipeline for *query*, consulting the
        in-process compilation cache, then the persistent disk cache, before
        cold-compiling.

        Cache hits share the (immutable-in-practice) automata and DFAs but
        carry the incoming query object, so runtime parameters like seeds
        and decoding rules stay per-query.
        """
        started = time.perf_counter()
        key = self.cache_key(query) if self.cache is not None else None
        if key is not None:
            cached = self.cache.get(key)
            if cached is not None:
                return self._bind(cached, query, started, source="memory")
        fingerprint: str | None = None
        if self.disk_cache is not None:
            disk_key = self.cache_key(query)
            if disk_key is not None:
                fingerprint = CompileDiskCache.fingerprint(disk_key)
                entry = self.disk_cache.get(fingerprint)
                if entry is not None:
                    loaded = self._from_disk(entry, query)
                    if key is not None:
                        self.cache.put(key, loaded)
                    return self._bind(loaded, query, started, source="disk")
        compiled = self._compile_uncached(query)
        assert compiled.metrics is not None
        compiled.metrics = replace(
            compiled.metrics, compile_ms=(time.perf_counter() - started) * 1e3
        )
        if fingerprint is not None and self.disk_cache is not None:
            self.disk_cache.put(fingerprint, CompileCacheEntry.from_compiled(compiled))
        if key is not None:
            self.cache.put(key, compiled)
        return compiled

    def _bind(
        self, shared: CompiledQuery, query: SimpleSearchQuery, started: float, source: str
    ) -> CompiledQuery:
        """A cache hit: *shared*'s automata carrying *query*, this call's
        metrics, and a report re-bound from *shared*'s when it is read."""
        return replace(
            shared,
            query=query,
            # Named, because ``replace`` copies the fields it is not given
            # by reading them — which would compute the shared report here.
            report=None,
            metrics=self._hit_metrics(shared, started, source),
            _analyzer=self.analyzer,
            _rebind_from=shared,
        )

    def _hit_metrics(
        self, compiled: CompiledQuery, started: float, source: str
    ) -> CompileMetrics:
        """Metrics for a cache hit: the cached shape, this call's latency."""
        base = compiled.metrics
        if base is None:
            automaton = compiled.token_automaton
            base = CompileMetrics(
                token_states=automaton.num_states,
                token_edges=automaton.num_edges,
                minimized_states=automaton.num_states,
                minimized_edges=automaton.num_edges,
            )
        return replace(
            base, compile_ms=(time.perf_counter() - started) * 1e3, source=source
        )

    def _from_disk(self, entry: CompileCacheEntry, query: SimpleSearchQuery) -> CompiledQuery:
        """A persisted compilation as this compiler would have built it for
        *query*: same automata, the persisted report (if one had been
        computed), this tokenizer and analyzer.  Lazy token rows were
        persisted as their char product; they walk this compiler's trie.
        """
        edges = entry.token_automaton.edges
        if isinstance(edges, TokenRows):
            edges._walk = SharedWalk(self._trie, edges.transitions)
        return CompiledQuery(
            query=query,
            tokenizer=self.tokenizer,
            char_dfa=entry.char_dfa,
            prefix_dfa=entry.prefix_dfa,
            prefix_closure=entry.prefix_closure,
            token_automaton=entry.token_automaton,
            report=entry.report,
            metrics=entry.metrics,
            _analyzer=self.analyzer,
            _char_infinite=entry.char_infinite,
        )

    def _compile_uncached(self, query: SimpleSearchQuery) -> CompiledQuery:
        char_dfa = compile_dfa(query.query_string.query_str)
        prefix_dfa: DFA | None = None
        if query.query_string.prefix_str is not None:
            prefix_dfa = compile_dfa(query.query_string.prefix_str)
        for preprocessor in query.preprocessors:
            char_dfa = preprocessor.apply(char_dfa)
            if prefix_dfa is not None and preprocessor.applies_to_prefix:
                prefix_dfa = preprocessor.apply(prefix_dfa)
        if char_dfa.is_empty():
            # Statically empty language: return a degenerate compilation
            # (no accepting states) instead of raising — the analyzer tags
            # it RLM001 and the executor/scheduler short-circuit with a
            # clean empty result.
            return CompiledQuery(
                query=query,
                tokenizer=self.tokenizer,
                char_dfa=char_dfa,
                prefix_dfa=prefix_dfa,
                prefix_closure=None,
                token_automaton=TokenAutomaton(start=0, accepts=frozenset()),
                metrics=CompileMetrics(),
                _analyzer=self.analyzer,
            )
        prefix_closure = None
        if prefix_dfa is not None:
            # The prefix *region*: every string that is a prefix of some
            # prefix-language string, restricted to prefixes consistent with
            # the (possibly rewritten) full language — so partially-consumed
            # prefixes are recognised as decoding-exempt and sampled
            # prefixes always extend to a match.
            prefix_closure = (
                prefixes_of(prefix_dfa).intersect(prefixes_of(char_dfa)).minimized()
            )

        if query.tokenization_strategy is QueryTokenizationStrategy.ALL_TOKENS:
            token_automaton = self.compile_all_tokens(char_dfa, prefix_closure)
        else:
            token_automaton = self.compile_canonical(char_dfa, prefix_closure)
        raw_states = token_automaton.num_states
        raw_edges = token_automaton.num_edges
        token_automaton = token_automaton.minimized()
        return CompiledQuery(
            query=query,
            tokenizer=self.tokenizer,
            char_dfa=char_dfa,
            prefix_dfa=prefix_dfa,
            prefix_closure=prefix_closure,
            token_automaton=token_automaton,
            metrics=CompileMetrics(
                token_states=raw_states,
                token_edges=raw_edges,
                minimized_states=token_automaton.num_states,
                minimized_edges=token_automaton.num_edges,
            ),
            _analyzer=self.analyzer,
        )

    # -- all-encodings construction ---------------------------------------------
    def compile_all_tokens(self, char_dfa: DFA, prefix_closure: DFA | None) -> TokenAutomaton:
        """Appendix-B construction: add one shortcut edge per readable
        token.

        States of the result are product states (char state, prefix state or
        dead); with no prefix they coincide with char states.  When
        :meth:`_proves_minimal` holds, the rows are :class:`TokenRows`, built
        when first read; otherwise every row is built here.  Either way one
        walk serves all states; only lazy rows keep it (and its memo).
        """
        product, prefix_live = _prefix_product(char_dfa, prefix_closure)
        states = product.states
        minimal = self._proves_minimal(product, states, prefix_live)
        walk = SharedWalk(self._trie, product.transitions)
        edges: Mapping[int, dict[int, int]]
        if minimal:
            edges = TokenRows(product.transitions, len(states), walk)
        else:
            edges = {q: _sorted_row(row) for q in states if (row := walk.row(q))}
        return TokenAutomaton(
            start=product.start,
            accepts=product.accepts,
            edges=edges,
            prefix_live=prefix_live,
            _minimal=minimal,
        )

    def _proves_minimal(
        self, product: DFA, states: list[int], prefix_live: frozenset[int]
    ) -> bool:
        """True iff the token automaton built on *product* is provably its
        own :meth:`TokenAutomaton.minimized`, decided where the edges are
        characters (a few thousand) instead of tokens (a few hundred
        thousand).  Three conditions, all required:

        1. every character labelling a product transition is itself a
           token.  Then a token-stable partition is character-stable (those
           single-character tokens *are* the character transitions) and a
           character-stable one is token-stable (a token edge is a character
           walk), so the coarsest partitions of the two automata coincide;
        2. the product is trim and numbered ``0 … n-1`` — under (1) the
           token automaton has the same reachable and co-accessible states,
           so ``trimmed()`` neither drops nor renumbers anything;
        3. :func:`~repro.automata.partition.refine` on the product, labelled
           like the token pass, merges nothing.

        Rows are in ascending token id and ``edges`` in ascending state, so
        minimizing would rebuild this automaton exactly.
        """
        if states != list(range(len(states))):
            return False
        if not all(map(self._char_tokens.issuperset, product.transitions.values())):
            return False
        if not product.is_trim():
            return False
        _, representatives = refine(
            product.transitions,
            {q: (q in product.accepts, q in prefix_live) for q in states},
        )
        return len(representatives) == len(states)

    # -- canonical construction ---------------------------------------------------
    def compile_canonical(self, char_dfa: DFA, prefix_closure: DFA | None) -> TokenAutomaton:
        """Canonical-encodings automaton (§3.2, Figure 3b).

        Finite languages within ``enumeration_limit`` strings are enumerated
        and re-encoded exactly; otherwise returns the all-encodings
        automaton flagged for dynamic canonicality pruning.
        """
        finite = not char_dfa.has_cycle()
        if finite and char_dfa.count_strings() <= self.enumeration_limit:
            return self._canonical_by_enumeration(char_dfa, prefix_closure)
        automaton = self.compile_all_tokens(char_dfa, prefix_closure)
        automaton.dynamic_canonical = True
        return automaton

    def _canonical_by_enumeration(
        self, char_dfa: DFA, prefix_closure: DFA | None
    ) -> TokenAutomaton:
        tokenizer = self.tokenizer
        next_id = 1
        edges: dict[int, dict[int, int]] = {}
        accepts: set[int] = set()
        prefix_live: set[int] = set()

        def live(text: str) -> bool:
            if prefix_closure is None:
                return False
            return prefix_closure.accepts_string(text)

        if live(""):
            prefix_live.add(0)
        for string in char_dfa.enumerate_strings():
            tokens = tokenizer.encode(string)
            state = 0
            consumed = ""
            for tok in tokens:
                consumed += tokenizer.vocab.token_of(tok)
                row = edges.setdefault(state, {})
                nxt = row.get(tok)
                if nxt is None:
                    nxt = next_id
                    next_id += 1
                    row[tok] = nxt
                state = nxt
                if live(consumed):
                    prefix_live.add(state)
            accepts.add(state)
        return TokenAutomaton(
            start=0,
            accepts=frozenset(accepts),
            edges={state: dict(sorted(row.items())) for state, row in edges.items()},
            prefix_live=frozenset(prefix_live),
        )


def _prefix_product(char_dfa: DFA, prefix_closure: DFA | None) -> tuple[DFA, frozenset[int]]:
    """Product of the query DFA with the prefix-closure DFA.

    Returns ``(product, prefix_live)`` where ``prefix_live`` contains the
    product states whose prefix component is still alive.  With no prefix
    the input DFA is returned unchanged and nothing is live.
    """
    if prefix_closure is None:
        return char_dfa, frozenset()
    DEAD = -1
    ids: dict[tuple[int, int], int] = {}
    order: list[tuple[int, int]] = []

    def pid(pair: tuple[int, int]) -> int:
        existing = ids.get(pair)
        if existing is None:
            existing = len(ids)
            ids[pair] = existing
            order.append(pair)
        return existing

    start_pair = (char_dfa.start, prefix_closure.start)
    pid(start_pair)
    transitions: dict[int, dict[str, int]] = {}
    accepts: set[int] = set()
    live: set[int] = set()
    index = 0
    while index < len(order):
        pair = order[index]
        index += 1
        q, p = pair
        sid = ids[pair]
        if q in char_dfa.accepts:
            accepts.add(sid)
        if p != DEAD and p in prefix_closure.accepts:
            # Prefix-closure accepts every state, so "alive" == accepting.
            live.add(sid)
        row: dict[str, int] = {}
        for ch, dst in char_dfa.transitions.get(q, {}).items():
            if p == DEAD:
                np_ = DEAD
            else:
                np_ = prefix_closure.transitions.get(p, {}).get(ch, DEAD)
            row[ch] = pid((dst, np_))
        if row:
            transitions[sid] = row
    product = DFA(start=ids[start_pair], accepts=frozenset(accepts), transitions=transitions)
    return product, frozenset(live)
