"""Tests for the Graph Compiler (repro.core.compiler) — §3.2 of the paper."""

from __future__ import annotations

import pytest

from repro.core.compiler import CanonicalRows, GraphCompiler, prefixes_of
from repro.core.query import (
    QuerySearchStrategy,
    QueryString,
    QueryTokenizationStrategy,
    SearchQuery,
    SimpleSearchQuery,
)
from repro.regex import compile_dfa
from repro.tokenizers.bpe import train_bpe
from repro.tokenizers.vocab import Vocabulary
from repro.tokenizers.bpe import BPETokenizer


def _toy_tokenizer():
    """Hand-built vocabulary mirroring the paper's Figure 3: T, h, e, Th,
    he, The (plus the rest of the alphabet as base tokens)."""
    from repro.automata.alphabet import ALPHABET_SET

    base = sorted(ALPHABET_SET)
    vocab = Vocabulary.build(base + ["Th", "he", "The"])
    merges = [("T", "h"), ("h", "e"), ("Th", "e")]
    return BPETokenizer(vocab=vocab, merges=merges)


class TestAllEncodings:
    def test_figure3a_four_paths(self):
        """The paper's Figure 3a: `The` has exactly 4 ambiguous encodings
        when the vocabulary holds T, h, e, Th, he, The."""
        tok = _toy_tokenizer()
        for needed in ("Th", "he", "The"):
            assert needed in tok.vocab, f"vocab missing {needed}"
        compiler = GraphCompiler(tok)
        query = SearchQuery("The")
        compiled = compiler.compile(query)
        ta = compiled.token_automaton
        # Count distinct accepting token paths by DFS.
        def paths(state, depth=0):
            total = 1 if state in ta.accepts else 0
            if depth < 4:
                for dst in ta.successors(state).values():
                    total += paths(dst, depth + 1)
            return total
        assert paths(ta.start) == 4  # T-h-e, Th-e, T-he, The

    def test_every_path_decodes_into_language(self, tokenizer):
        compiler = GraphCompiler(tokenizer)
        compiled = compiler.compile(SearchQuery("The ((cat)|(dog))"))
        ta = compiled.token_automaton
        # Enumerate all accepting token paths and decode them.
        stack = [(ta.start, ())]
        decoded = set()
        while stack:
            state, path = stack.pop()
            if state in ta.accepts:
                decoded.add(tokenizer.decode(path))
            if len(path) < 12:
                for tid, dst in ta.successors(state).items():
                    stack.append((dst, path + (tid,)))
        assert decoded == {"The cat", "The dog"}

    def test_canonical_path_always_present(self, tokenizer):
        compiler = GraphCompiler(tokenizer)
        compiled = compiler.compile(SearchQuery("The cat sat on the mat\\."))
        toks = tokenizer.encode("The cat sat on the mat.")
        assert compiled.token_automaton.accepts_tokens(toks)

    def test_infinite_language_compiles(self, tokenizer):
        compiler = GraphCompiler(tokenizer)
        compiled = compiler.compile(SearchQuery("[0-9]+"))
        ta = compiled.token_automaton
        assert ta.accepts_tokens(tokenizer.encode("123"))
        assert ta.accepts_tokens(tokenizer.encode("5"))

    def test_rejects_strings_outside_language(self, tokenizer):
        compiler = GraphCompiler(tokenizer)
        compiled = compiler.compile(SearchQuery("The cat"))
        assert not compiled.token_automaton.accepts_tokens(tokenizer.encode("The dog"))

    def test_empty_language_compiles_to_empty_automaton(self, tokenizer):
        # A statically-empty language no longer raises: it compiles to a
        # degenerate automaton (no accepting states) flagged RLM001, so the
        # executor/scheduler can short-circuit with a clean empty result.
        compiler = GraphCompiler(tokenizer)
        from repro.core.preprocessors import FilterPreprocessor

        empty_query = SimpleSearchQuery(
            query_string=QueryString("a"),
            preprocessors=(FilterPreprocessor(["a"]),),
        )
        compiled = compiler.compile(empty_query)
        assert compiled.is_empty
        assert compiled.token_automaton.accepts == frozenset()
        assert compiled.report is not None
        assert "RLM001" in compiled.report.codes
        assert compiled.report.has_errors


class TestCanonical:
    def test_enumerated_canonical_single_paths(self, tokenizer):
        compiler = GraphCompiler(tokenizer)
        query = SearchQuery(
            "The ((cat)|(dog))",
            tokenization=QueryTokenizationStrategy.CANONICAL,
        )
        compiled = compiler.compile(query)
        ta = compiled.token_automaton
        assert not isinstance(ta.edges, CanonicalRows)  # finite: built whole
        # Exactly two accepting paths: the canonical encodings.
        assert ta.accepts_tokens(tokenizer.encode("The cat"))
        assert ta.accepts_tokens(tokenizer.encode("The dog"))
        # The char-split path must not exist.
        chars = [tokenizer.vocab.id_of(c) for c in "The cat"]
        assert not ta.accepts_tokens(chars)

    def test_canonical_edge_count_is_minimal(self, tokenizer):
        compiler = GraphCompiler(tokenizer)
        all_enc = compiler.compile(SearchQuery("The ((cat)|(dog))")).token_automaton
        canonical = compiler.compile(
            SearchQuery("The ((cat)|(dog))", tokenization=QueryTokenizationStrategy.CANONICAL)
        ).token_automaton
        assert canonical.num_edges < all_enc.num_edges

    @pytest.mark.parametrize(
        "pattern", ["[0-9]{5}", "[0-9]+"], ids=["100000_strings", "cyclic"]
    )
    def test_large_or_infinite_language_builds_rows_on_first_touch(self, tokenizer, pattern):
        compiled = GraphCompiler(tokenizer).compile(
            SearchQuery(pattern, tokenization=QueryTokenizationStrategy.CANONICAL)
        )
        ta = compiled.token_automaton
        rows = ta.edges
        assert isinstance(rows, CanonicalRows)
        assert not rows._rows  # compiling (metrics included) built no product row
        # The metrics describe the all-encodings automaton the product filters.
        assert compiled.metrics.token_states == rows.base.num_states
        assert compiled.metrics.token_edges == rows.base.num_edges
        for text in ("12345", "90210", "55555"):
            canonical = tokenizer.encode(text)
            assert ta.accepts_tokens(canonical)
            digits = [tokenizer.vocab.id_of(c) for c in text]
            assert ta.accepts_tokens(digits) is (digits == canonical)
        assert not compiled.is_empty


class TestPrefixRegion:
    def test_prefix_edges_marked(self, tokenizer):
        compiler = GraphCompiler(tokenizer)
        compiled = compiler.compile(
            SearchQuery("The cat sat", prefix="The cat")
        )
        ta = compiled.token_automaton
        state = ta.start
        flags = []
        for tok in tokenizer.encode("The cat sat"):
            dst = ta.successors(state)[tok]
            flags.append(ta.is_prefix_edge(dst))
            state = dst
        # Tokens inside "The cat" are prefix edges; " sat" is not.
        assert flags[0] is True
        assert flags[-1] is False

    def test_boundary_spanning_token_is_scored(self, tokenizer):
        """A token crossing the prefix boundary must not be exempt."""
        compiler = GraphCompiler(tokenizer)
        compiled = compiler.compile(SearchQuery("The cat", prefix="The c"))
        ta = compiled.token_automaton
        # " cat" spans from inside the prefix ("The c") past its end.
        state = ta.start
        for tok in tokenizer.encode("The"):
            state = ta.successors(state)[tok]
        cat = tokenizer.encode(" cat")[0]
        dst = ta.successors(state).get(cat)
        assert dst is not None
        assert not ta.is_prefix_edge(dst)

    def test_no_prefix_means_nothing_live(self, tokenizer):
        compiled = GraphCompiler(tokenizer).compile(SearchQuery("The cat"))
        assert not compiled.token_automaton.prefix_live

    def test_prefix_closure_language(self, tokenizer):
        compiled = GraphCompiler(tokenizer).compile(
            SearchQuery("The ((cat)|(dog))", prefix="The ((cat)|(dog))")
        )
        closure = compiled.prefix_closure
        for s in ["", "T", "The ", "The c", "The cat", "The d"]:
            assert closure.accepts_string(s), s
        assert not closure.accepts_string("The x")


class TestPrefixesOf:
    def test_all_prefixes_accepted(self):
        dfa = compile_dfa("abc|abd")
        closure = prefixes_of(dfa)
        for s in ["", "a", "ab", "abc", "abd"]:
            assert closure.accepts_string(s)
        assert not closure.accepts_string("abx")

    def test_empty_language_closure(self):
        from repro.automata.dfa import DFA

        closure = prefixes_of(DFA.from_strings([]))
        assert closure.accepts_string("")


def _no_stop_inputs(env):
    """Char DFA and prefix region of a ``no_stop`` cloze query (§4.4): a
    literal context, a word loop and the ``SuffixFilterPreprocessor``
    stop-word product — the shape shared sub-walks are for."""
    from repro.experiments.lambada_eval import build_query

    compiled = GraphCompiler(env.tokenizer, cache=False).compile(
        build_query(env.lambada.items[0], "no_stop")
    )
    return compiled.char_dfa, compiled.prefix_closure


def _assert_edge_identical(compiler, char_dfa, closure):
    from repro.core.compiler import _prefix_product
    from tests.reference import compile_all_tokens_scan

    trie = compiler.compile_all_tokens(char_dfa, closure)
    scan = compile_all_tokens_scan(compiler, char_dfa, closure)
    assert (trie.start, trie.accepts, trie.prefix_live) == (
        scan.start, scan.accepts, scan.prefix_live
    )
    assert trie.edges == scan.edges
    assert list(trie.edges) == list(scan.edges)
    assert [list(row) for row in trie.edges.values()] == [
        list(row) for row in scan.edges.values()
    ]
    # ... and, state by state, the per-state reference walk's rows.
    product, _ = _prefix_product(char_dfa, closure)
    for state in product.states:
        assert trie.edges.get(state, {}) == dict(
            compiler._trie.walk_dfa(product.transitions, state)
        )


class TestTrieVsScan:
    """The trie-guided construction against the paper's per-token scan
    (``tests/reference.py``) and the per-state ``Trie.walk_dfa``:
    identical automata, row order included."""

    @pytest.mark.parametrize(
        "pattern,prefix",
        [
            (r"https://www\.([a-z]|-)+\.([a-z]|/)+", None),
            ("The ((cat)|(dog)) sat", "The "),
            ("[0-9]{1,3}(\\.[0-9]+)?", None),
        ],
    )
    def test_edge_identical(self, tokenizer, pattern, prefix):
        char_dfa = compile_dfa(pattern)
        closure = None
        if prefix is not None:
            closure = (
                prefixes_of(compile_dfa(prefix)).intersect(prefixes_of(char_dfa)).minimized()
            )
        _assert_edge_identical(GraphCompiler(tokenizer, cache=False), char_dfa, closure)

    def test_edge_identical_on_a_suffix_filtered_cloze_query(self, env):
        _assert_edge_identical(
            GraphCompiler(env.tokenizer, cache=False), *_no_stop_inputs(env)
        )

    def test_sub_walks_are_shared_and_dropped(self, env, monkeypatch):
        """One (trie node, state) expansion serves every source state that
        reaches it — strictly fewer expansions than walking each state on
        its own — and the memo dies once every row is built: with the
        ``compile_all_tokens`` call when it builds them all, at the first
        full iteration of lazy :class:`TokenRows`."""
        import gc
        import weakref

        from repro.core import compiler as compiler_module
        from repro.core.compiler import _prefix_product

        compiler = GraphCompiler(env.tokenizer, cache=False)
        char_dfa, closure = _no_stop_inputs(env)
        product, _ = _prefix_product(char_dfa, closure)
        states = product.states
        walk = compiler_module.SharedWalk(compiler._trie, product.transitions)
        for state in states:
            walk.row(state)
        shared = len(states) + len(walk.memo)  # one root expansion per state
        per_state = 0
        for state in states:
            # ``walk_dfa`` pops one (node, state) pair per expansion.
            stack = [(compiler._trie.root, state)]
            while stack:
                node, q = stack.pop()
                per_state += 1
                row = product.transitions.get(q, {})
                stack.extend(
                    (child, row[ch])
                    for ch, child in node.children.items()
                    if ch in row and child.children
                )
        assert 4 * shared < per_state, (shared, per_state)  # ~12x; not a close call

        made = []

        class RecordedWalk(compiler_module.SharedWalk):
            def __init__(self, *args):
                super().__init__(*args)
                made.append(weakref.ref(self))

        monkeypatch.setattr(compiler_module, "SharedWalk", RecordedWalk)
        automaton = compiler.compile_all_tokens(char_dfa, closure)
        gc.collect()
        assert automaton.num_edges > 0
        assert isinstance(automaton.edges, compiler_module.TokenRows)
        assert len(made) == 1 and made[0]() is not None
        # Every char is a token here, so a state has a row iff it has a char edge.
        assert len(automaton.edges) == sum(1 for q in states if product.transitions.get(q))
        gc.collect()
        assert [ref() for ref in made] == [None]
        assert sum(map(len, automaton.edges.values())) == automaton.num_edges

        made.clear()
        monkeypatch.setattr(GraphCompiler, "_proves_minimal", lambda *a: False)
        eager = compiler.compile_all_tokens(char_dfa, closure)
        gc.collect()
        assert eager.edges == automaton.edges
        assert [ref() for ref in made] == [None]


class TestMinimizationCounts:
    """What token-level minimization does, as counts rather than timings."""

    def test_lambada_queries_are_already_minimal(self, env):
        """A minimal char DFA under a vocabulary holding every base
        character gives a minimal token automaton: the pass is a fixed
        point on the §4.4 cloze queries, and has to be cheap there."""
        from repro.experiments.lambada_eval import STRATEGIES, build_query

        compiler = GraphCompiler(env.tokenizer, cache=False, analyzer=False)
        item = env.lambada.items[0]
        for strategy in STRATEGIES:
            metrics = compiler.compile(build_query(item, strategy)).metrics
            assert metrics.token_states > 0
            assert metrics.minimized_states == metrics.token_states, strategy
            assert metrics.minimized_edges == metrics.token_edges, strategy

    def test_lambada_queries_prove_minimality_on_characters(self, env, monkeypatch):
        """... and is skipped there: one character-level ``refine`` per cold
        compile proves the token automaton minimal, the token-level pass
        never runs, and nobody pays for a report on the way to a match."""
        from repro.core import compiler as compiler_module
        from repro.core.analyze import QueryAnalyzer
        from repro.experiments.lambada_eval import STRATEGIES, build_query

        levels = []

        def spy(rows, labels):
            symbols = {type(symbol) for row in rows.values() for symbol in row}
            levels.append("token" if symbols == {int} else "char")
            assert symbols <= {int} or symbols == {str}
            return refine(rows, labels)

        refine = compiler_module.refine
        monkeypatch.setattr(compiler_module, "refine", spy)
        for name in ("analyze_compiled", "rebind"):
            monkeypatch.setattr(
                QueryAnalyzer, name, lambda *a, **k: pytest.fail("analyzer ran")
            )
        compiler = GraphCompiler(env.tokenizer)
        kinds = sorted({item.kind for item in env.lambada.items})
        for kind in kinds:
            item = env.lambada.of_kind(kind)[0]
            for strategy in STRATEGIES:
                compiled = compiler.compile(build_query(item, strategy))
                assert compiled.token_automaton._minimal
                assert not compiled.is_empty
        assert compiler.cache.misses + compiler.cache.hits == 4 * len(kinds)
        assert levels == ["char"] * compiler.cache.misses

    def test_lambada_cold_compiles_walk_each_automaton_once(self, env, monkeypatch):
        """... and walks each DFA it builds once.  Per cold compile of a
        §4.4 query: four co-accessibility walks (the two subset
        constructions, the prefix-closure product and the minimality
        proof's ``is_trim``), six for ``no_stop`` (its completion trie and
        difference product), each after one forward walk.  The
        ``trimmed()`` / ``minimized()`` / ``is_empty()`` calls in between
        read what those constructors recorded.  No edge count is taken:
        nothing reads it.  (Before the facts were recorded: 10 and 13
        co-accessibility walks, 18 and 24 forward walks, one
        ``SharedWalk.count`` per compile.)"""
        from repro.automata.dfa import DFA
        from repro.automata.trie import SharedWalk
        from repro.core.preprocessors import _completion_language
        from repro.experiments.lambada_eval import STRATEGIES, build_query

        walks: list[str] = []
        for cls, name in (
            (DFA, "_coaccessible_states"), (DFA, "_accessible_states"), (SharedWalk, "count"),
        ):
            def spy(*args, _name=name, _original=getattr(cls, name), **kwargs):
                walks.append(_name)
                return _original(*args, **kwargs)

            monkeypatch.setattr(cls, name, spy)
        compiler = GraphCompiler(env.tokenizer, cache=False, analyzer=False)
        for kind in sorted({item.kind for item in env.lambada.items}):
            item = env.lambada.of_kind(kind)[0]
            for strategy in STRATEGIES:
                _completion_language.cache_clear()  # ``no_stop`` builds its trie cold
                walks.clear()
                compiled = compiler.compile(build_query(item, strategy))
                trims = 6 if strategy == "no_stop" else 4
                assert walks.count("_coaccessible_states") == trims, (kind, strategy)
                assert walks.count("_accessible_states") == trims, (kind, strategy)
                assert "count" not in walks, (kind, strategy)
                metrics = compiled.metrics
                assert metrics.token_edges == metrics.minimized_edges > 0
                assert walks.count("count") == 1  # taken when first read

    def test_lazy_entry_is_sized_by_what_it_holds(self, env):
        """The compilation cache sizes a lazy-row entry from its char
        product and the rows built so far (none, at ``put``), not from the
        edge count it could build."""
        from repro.experiments.lambada_eval import build_query

        compiler = GraphCompiler(env.tokenizer, analyzer=False)
        compiled = compiler.compile(build_query(env.lambada.items[0], "baseline"))
        rows = compiled.token_automaton.edges
        char_edges = sum(map(len, rows.transitions.values()))
        assert not rows._rows and rows._num_edges is None
        assert compiler.cache.bytes_estimate == 128 * rows.num_states + 40 * char_edges
        assert char_edges < rows.num_edges

    def test_lambada_first_match_builds_only_expanded_rows(self, env):
        """... and its token rows are built when the search first touches
        them: the literal context is fast-forwarded by token steps, which
        build nothing, and every row built is one the executor lowered for
        an expansion — a small fraction of the automaton."""
        from repro.core.api import prepare
        from repro.core.compiler import TokenRows
        from repro.experiments.lambada_eval import STRATEGIES, build_query

        item = env.lambada.items[0]
        for strategy in STRATEGIES:
            session = prepare(
                env.model("xl"), env.tokenizer, build_query(item, strategy),
                compiler=GraphCompiler(env.tokenizer), max_expansions=3000,
            )
            assert next(iter(session), None) is not None, strategy
            automaton = session.compiled.token_automaton
            assert isinstance(automaton.edges, TokenRows)
            built = set(automaton.edges._rows)
            assert built <= set(automaton.arrays()._rows), strategy
            assert 0 < len(built) <= session.stats.nodes_expanded, strategy
            assert 4 * len(built) < automaton.num_states, strategy

    def test_vocabulary_missing_a_base_character_still_merges(self):
        """Why the pass stays: ``b`` is not a token, so after ``x`` and
        after ``y`` only ``c`` can be read — the two char states, distinct
        in the char DFA, are one token state."""
        tok = BPETokenizer(vocab=Vocabulary.build(["x", "y", "c"]), merges=[])
        compiled = GraphCompiler(tok, cache=False, analyzer=False).compile(
            SearchQuery("x(b|c)|yc")
        )
        assert len(compiled.char_dfa.states) == 4
        assert (compiled.metrics.token_states, compiled.metrics.minimized_states) == (4, 3)
        automaton = compiled.token_automaton
        ids = [tok.vocab.id_of(t) for t in "xyc"]
        assert automaton.accepts_tokens([ids[0], ids[2]])
        assert automaton.accepts_tokens([ids[1], ids[2]])
        assert automaton.edges[automaton.start][ids[0]] == automaton.edges[automaton.start][ids[1]]
