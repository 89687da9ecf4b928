"""Persistent compile cache, token-automaton minimization, lazily lowered
arrays, and the size-aware in-memory compilation cache.

Covers the compile-time fast path's correctness edges: disk entries round
trip bit-identically, corrupted/version-mismatched entries warn and miss
(never crash), warm runs recompile nothing, resumed runs share the
directory, and the in-memory cache evicts by bytes as well as by entry
count.
"""

from __future__ import annotations

import pickle
import warnings

import pytest

from repro.core.api import search_many
from repro.core.compile_cache import (
    COMPILE_CACHE_VERSION,
    CompileCacheEntry,
    CompileDiskCache,
)
from repro.core.compiler import CompilationCache, GraphCompiler
from repro.core.query import SearchQuery
from repro.core.scheduler import QueryScheduler

from .conftest import build_model, build_tokenizer
from .reference import compile_unminimized

PATTERNS = [
    "The (cat|dog)",
    "The (man|woman) was",
    "My phone number is [0-9]{3}",
    "The cat sat",
]


@pytest.fixture(scope="module")
def tok():
    return build_tokenizer()


@pytest.fixture(scope="module")
def lm(tok):
    return build_model(tok)


def run_streams(model, tok, compiler):
    handles = search_many(
        model, tok, [SearchQuery(p) for p in PATTERNS], compiler=compiler
    )
    return [
        [(m.tokens, m.text, m.logprob, m.total_logprob) for m in h.results]
        for h in handles
    ]


class TestDiskRoundTrip:
    def test_cold_then_disk_hit(self, tok, tmp_path):
        c1 = GraphCompiler(tok, disk_cache=tmp_path)
        a = c1.compile(SearchQuery(PATTERNS[0]))
        assert a.metrics.source == "cold"
        assert c1.disk_cache.writes == 1
        # Fresh compiler (fresh process stand-in), same directory.
        c2 = GraphCompiler(tok, disk_cache=tmp_path)
        b = c2.compile(SearchQuery(PATTERNS[0]))
        assert b.metrics.source == "disk"
        assert b.token_automaton.edges == a.token_automaton.edges
        assert b.token_automaton.accepts == a.token_automaton.accepts
        assert b.token_automaton.prefix_live == a.token_automaton.prefix_live

    def test_lazy_entry_persists_the_char_product(self, tok, tmp_path):
        """A proven-minimal compile is written as its char product — never
        the trie, never the rows — and a fresh compiler loading it builds
        rows equal to a cold eager compile's."""
        from repro.core.compiler import TokenRows

        query = SearchQuery("The ((cat)|(dog)) sat", prefix="The")
        cold = GraphCompiler(tok, disk_cache=tmp_path).compile(query)
        edges = cold.token_automaton.edges
        assert isinstance(edges, TokenRows)
        entry = pickle.loads(next(tmp_path.glob("*.relmc")).read_bytes())
        stored = entry.token_automaton.edges
        assert isinstance(stored, TokenRows)
        assert stored.transitions == edges.transitions
        assert stored._walk is None and not stored._rows  # bound on load
        before = len(pickle.dumps(edges))
        assert len(edges) > 0  # builds every row
        assert len(pickle.dumps(edges)) == before

        compiler = GraphCompiler(tok, cache=False, disk_cache=tmp_path)
        loaded = compiler.compile(query)
        assert loaded.metrics.source == "disk"
        eager = compile_unminimized(compiler, query).token_automaton
        lazy = loaded.token_automaton
        assert (lazy.num_states, lazy.num_edges) == (eager.num_states, eager.num_edges)
        arr, ref = lazy.arrays(), eager.arrays()
        for state in range(eager.num_states):
            assert lazy.edges.get(state) == eager.edges.get(state)
            assert list(lazy.successors(state).items()) == list(
                eager.successors(state).items()
            )
            assert _lowered(arr, state) == _lowered(ref, state)
        assert lazy.edges == eager.edges

    def test_disk_hit_results_bit_identical(self, tok, lm, tmp_path):
        cold = run_streams(lm, tok, GraphCompiler(tok, disk_cache=tmp_path))
        warm = run_streams(lm, tok, GraphCompiler(tok, disk_cache=tmp_path))
        assert warm == cold

    def test_warm_run_recompiles_zero_queries(self, tok, tmp_path):
        c1 = GraphCompiler(tok, disk_cache=tmp_path)
        for p in PATTERNS:
            c1.compile(SearchQuery(p))
        c2 = GraphCompiler(tok, disk_cache=tmp_path)
        for p in PATTERNS:
            assert c2.compile(SearchQuery(p)).metrics.source == "disk"
        assert c2.disk_cache.hits == len(PATTERNS)
        assert c2.disk_cache.misses == 0
        assert c2.disk_cache.writes == 0

    def test_no_leftover_tmp_files(self, tok, tmp_path):
        c = GraphCompiler(tok, disk_cache=tmp_path)
        for p in PATTERNS:
            c.compile(SearchQuery(p))
        assert list(tmp_path.glob("*.tmp")) == []
        assert len(list(tmp_path.glob("*.relmc"))) == len(PATTERNS)

    def test_distinct_options_get_distinct_entries(self, tok, tmp_path):
        GraphCompiler(tok, disk_cache=tmp_path).compile(SearchQuery(PATTERNS[0]))
        c2 = GraphCompiler(tok, disk_cache=tmp_path, enumeration_limit=7)
        compiled = c2.compile(SearchQuery(PATTERNS[0]))
        # enumeration_limit is part of the fingerprint: no false sharing.
        assert compiled.metrics.source == "cold"
        assert len(list(tmp_path.glob("*.relmc"))) == 2


class TestCorruptionHandling:
    def entry_path(self, tok, tmp_path):
        c = GraphCompiler(tok, disk_cache=tmp_path)
        c.compile(SearchQuery(PATTERNS[0]))
        return next(tmp_path.glob("*.relmc"))

    def test_corrupted_entry_warns_and_recompiles(self, tok, tmp_path):
        path = self.entry_path(tok, tmp_path)
        path.write_bytes(b"not a pickle")
        c = GraphCompiler(tok, disk_cache=tmp_path)
        with pytest.warns(RuntimeWarning, match="corrupted"):
            compiled = c.compile(SearchQuery(PATTERNS[0]))
        assert compiled.metrics.source == "cold"
        assert c.disk_cache.invalid == 1

    def test_truncated_entry_warns_and_recompiles(self, tok, tmp_path):
        path = self.entry_path(tok, tmp_path)
        path.write_bytes(path.read_bytes()[:40])
        c = GraphCompiler(tok, disk_cache=tmp_path)
        with pytest.warns(RuntimeWarning, match="corrupted"):
            assert c.compile(SearchQuery(PATTERNS[0])).metrics.source == "cold"

    def test_version_mismatch_warns_and_recompiles(self, tok, tmp_path):
        path = self.entry_path(tok, tmp_path)
        entry = pickle.loads(path.read_bytes())
        entry.version = COMPILE_CACHE_VERSION + 1
        path.write_bytes(pickle.dumps(entry))
        c = GraphCompiler(tok, disk_cache=tmp_path)
        with pytest.warns(RuntimeWarning, match="mismatch"):
            assert c.compile(SearchQuery(PATTERNS[0])).metrics.source == "cold"
        assert c.disk_cache.invalid == 1

    def test_version_1_entry_is_a_plain_miss(self, tok, tmp_path, monkeypatch):
        """Version 1 pickled every token row as a plain dict.  The version is
        hashed into the file name, so a version-1 entry sits under another
        fingerprint: the current cache never opens it and recompiles with
        no warning, and the old file stays on disk."""
        import repro.core.compile_cache as compile_cache

        from .reference import compile_all_tokens_eager

        assert COMPILE_CACHE_VERSION == 2
        monkeypatch.setattr(compile_cache, "COMPILE_CACHE_VERSION", 1)
        old = self.entry_path(tok, tmp_path)
        entry = pickle.loads(old.read_bytes())
        assert entry.version == 1
        entry.token_automaton = compile_all_tokens_eager(
            GraphCompiler(tok), entry.char_dfa, entry.prefix_closure
        )
        old.write_bytes(pickle.dumps(entry))
        monkeypatch.undo()

        c = GraphCompiler(tok, disk_cache=tmp_path)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert c.compile(SearchQuery(PATTERNS[0])).metrics.source == "cold"
        assert (c.disk_cache.misses, c.disk_cache.invalid) == (1, 0)
        assert old.exists() and len(list(tmp_path.glob("*.relmc"))) == 2

    def test_wrong_object_type_warns(self, tmp_path):
        cache = CompileDiskCache(tmp_path)
        path = cache.path_for("f" * 32)
        path.write_bytes(pickle.dumps({"not": "an entry"}))
        with pytest.warns(RuntimeWarning, match="mismatch"):
            assert cache.get("f" * 32) is None

    def test_fingerprint_mismatch_rejected(self, tok, tmp_path):
        # An entry renamed to another fingerprint's slot must not serve it.
        path = self.entry_path(tok, tmp_path)
        cache = CompileDiskCache(tmp_path)
        moved = cache.path_for("0" * 32)
        path.rename(moved)
        with pytest.warns(RuntimeWarning, match="mismatch"):
            assert cache.get("0" * 32) is None

    def test_missing_file_is_silent_miss(self, tmp_path):
        cache = CompileDiskCache(tmp_path)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert cache.get("a" * 32) is None
        assert cache.misses == 1
        assert cache.invalid == 0


class TestSchedulerIntegration:
    def test_scheduler_shares_disk_cache(self, tok, lm, tmp_path):
        def sweep():
            comp = GraphCompiler(tok, cache=True, disk_cache=tmp_path)
            s = QueryScheduler(lm, tok, compiler=comp, concurrency=2)
            for p in PATTERNS:
                s.submit(SearchQuery(p))
            s.run()
            return s

        first = sweep()
        assert first.compiler.disk_cache.hits == 0
        assert all(q.compiled.metrics.source == "cold" for q in first.queries)
        second = sweep()
        assert second.compiler.disk_cache.hits == len(PATTERNS)
        assert all(q.compiled.metrics.source == "disk" for q in second.queries)
        for a, b in zip(first.queries, second.queries):
            assert [(m.tokens, m.text) for m in a.results] == [
                (m.tokens, m.text) for m in b.results
            ]


class TestCompileMetrics:
    def test_metrics_reach_the_session(self, tok, lm):
        from repro.core.api import prepare

        session = prepare(lm, tok, SearchQuery(PATTERNS[0]))
        metrics = session.compiled.metrics
        assert metrics.token_states > 0
        assert metrics.token_edges > 0
        assert 0 < metrics.minimized_states <= metrics.token_states
        assert metrics.compile_ms > 0.0
        assert metrics.source == "cold"
        assert "token_states" in metrics.as_dict()

    def test_scheduler_aggregates_compile_ms(self, tok, lm):
        s = QueryScheduler(lm, tok)
        for p in PATTERNS:
            s.submit(SearchQuery(p))
        s.run()
        assert s.stats.compile_ms > 0.0
        assert s.compiler.cache.misses == len(PATTERNS)
        assert "compile_ms" in s.stats.as_dict()


def _lowered(arrays, state):
    row = arrays.row(state)
    if row is None:
        return None
    return row.token_ids.tolist(), row.dst_states.tolist(), row.is_prefix.tolist()


class TestLazyArrays:
    def test_lazy_lowering_equals_eager_lowering(self, tok):
        """A proven-minimal compile builds and lowers each row on first
        touch; every row equals the eager build's (``tests/reference.py``)
        lowered by the same arrays, and the bytes cover only what was
        lowered."""
        compiler = GraphCompiler(tok, cache=False)
        for pattern in PATTERNS:
            for prefix in (None, "The"):
                query = SearchQuery(pattern, prefix=prefix)
                lazy = compiler.compile(query).token_automaton
                eager = compile_unminimized(compiler, query).token_automaton
                assert lazy._minimal, pattern
                arr = lazy.arrays(vocab_size=len(tok), intervals=True)
                assert arr.bytes_estimate == 0
                ref = eager.arrays()
                for state in range(lazy.num_states):
                    assert _lowered(arr, state) == _lowered(ref, state)
                    assert arr.row(state) is arr.row(state)
                assert arr.bytes_estimate == ref.bytes_estimate > 0

    def test_bytes_cover_rows_lowered_so_far(self):
        from repro.core.arrays import AutomatonArrays

        edges = {0: {t: 1 for t in range(1000)}, 1: {5: 2}}
        arrays = AutomatonArrays(edges, frozenset())
        assert arrays.bytes_estimate == 0
        assert arrays.row(2) is None
        assert arrays.bytes_estimate == 0
        assert arrays.row(1).token_ids.tolist() == [5]
        small = arrays.bytes_estimate
        assert small > 0
        row = arrays.row(0)
        assert row.token_ids.tolist() == list(range(1000))
        assert set(row.dst_states.tolist()) == {1}
        assert arrays.bytes_estimate > 100 * small

    def test_prefix_mask_covers_every_destination(self):
        """``is_prefix`` comes from a boolean state mask; destinations past
        the largest live state are not live."""
        from repro.core.arrays import AutomatonArrays

        edges = {0: {1: 1, 2: 2, 3: 7, 4: 3}, 3: {9: 0}}
        arrays = AutomatonArrays(edges, frozenset({0, 2}))
        assert arrays.row(0).is_prefix.tolist() == [False, True, False, False]
        assert arrays.row(3).is_prefix.tolist() == [True]
        assert AutomatonArrays(edges, frozenset()).row(0).is_prefix.tolist() == [False] * 4


class TestTokenMinimization:
    def test_minimized_preserves_match_semantics(self, tok):
        on = GraphCompiler(tok)
        for pattern in PATTERNS:
            a = on.compile(SearchQuery(pattern)).token_automaton
            b = compile_unminimized(on, SearchQuery(pattern)).token_automaton

            def paths(auto, limit=2000):
                out = []
                stack = [(auto.start, ())]
                while stack and len(out) < limit:
                    state, path = stack.pop()
                    if state in auto.accepts:
                        out.append(path)
                    if len(path) >= 8:
                        continue
                    for tokid, dst in sorted(auto.edges.get(state, {}).items()):
                        stack.append((dst, path + (tokid,)))
                return sorted(out)

            assert paths(a) == paths(b)

    def test_minimized_state_count_never_larger(self, tok):
        on = GraphCompiler(tok)
        for pattern in PATTERNS:
            m = on.compile(SearchQuery(pattern)).metrics
            assert m.minimized_states <= m.token_states


class TestCompilationCacheBytes:
    def make(self, states, edges):
        # A stand-in CompiledQuery: only num_states/num_edges are read.
        class Auto:
            pass

        class Compiled:
            pass

        c = Compiled()
        auto = Auto()
        auto.num_states = states
        auto.num_edges = edges
        c.token_automaton = auto
        return c

    def test_bytes_estimate_in_stats(self):
        cache = CompilationCache(max_entries=8)
        cache.put("a", self.make(10, 100))
        stats = cache.stats()
        assert stats["bytes_estimate"] == cache.entry_bytes(self.make(10, 100))
        assert stats["entries"] == 1

    def test_byte_budget_evicts_lru(self):
        entry_cost = CompilationCache.entry_bytes(self.make(10, 100))
        cache = CompilationCache(max_entries=64, max_bytes=3 * entry_cost)
        for key in "abcd":
            cache.put(key, self.make(10, 100))
        assert len(cache._store) == 3
        assert cache.get("a") is None  # oldest evicted by byte budget
        assert cache.get("d") is not None
        assert cache.bytes_estimate <= 3 * entry_cost

    def test_one_huge_entry_is_kept(self):
        # A single over-budget automaton must still cache (never evict the
        # only entry: that would thrash every templated loop).
        cache = CompilationCache(max_entries=64, max_bytes=1024)
        cache.put("huge", self.make(10_000, 1_000_000))
        assert cache.get("huge") is not None
        assert len(cache._store) == 1

    def test_replacement_updates_bytes(self):
        cache = CompilationCache(max_entries=8)
        cache.put("a", self.make(10, 100))
        first = cache.bytes_estimate
        cache.put("a", self.make(20, 200))
        assert cache.bytes_estimate == CompilationCache.entry_bytes(self.make(20, 200))
        assert cache.bytes_estimate != first

    def test_clear_resets_bytes(self):
        cache = CompilationCache()
        cache.put("a", self.make(10, 100))
        cache.clear()
        assert cache.bytes_estimate == 0
        assert cache.stats()["bytes_estimate"] == 0
