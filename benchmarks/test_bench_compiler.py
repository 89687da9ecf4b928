"""A1/A2 — compiler ablations (design choices called out in DESIGN.md).

A1: the Appendix-B shortcut-edge construction costs O(V·k·m_max) —
measured against automaton size.

A2: the trie-batched product DFS against the paper's literal per-token
scan.  Both produce identical automata; the trie amortises shared token
prefixes, so it should win by a growing factor as the vocabulary grows.
"""

from __future__ import annotations

import time

import pytest

from conftest import print_table
from repro.core.compiler import GraphCompiler
from repro.regex import compile_dfa
from tests.reference import compile_all_tokens_scan


@pytest.fixture(scope="module")
def compiler(env):
    return GraphCompiler(env.tokenizer)


def test_bench_a1_compile_cost_vs_pattern_size(env, compiler, benchmark):
    """A1: wall time of all-encodings compilation as the pattern grows."""
    patterns = {
        "small (29 states)": "The ((cat)|(dog))",
        "medium (URL)": r"https://www\.([a-zA-Z0-9]|-)+\.([a-zA-Z0-9]|/)+",
        "large (bias template)": (
            "The ((man)|(woman)) was trained in ((art)|(science)|(business)|"
            "(medicine)|(computer science)|(engineering)|(humanities)|"
            "(social sciences)|(information systems)|(math))"
        ),
    }
    rows = []
    for name, pattern in patterns.items():
        dfa = compile_dfa(pattern)
        start = time.perf_counter()
        automaton = compiler.compile_all_tokens(dfa, None)
        elapsed = time.perf_counter() - start
        rows.append(
            [name, len(dfa.states), automaton.num_edges, f"{1000 * elapsed:.1f} ms"]
        )
    print_table(
        "A1: all-encodings compile cost", ["pattern", "char states", "token edges", "time"], rows
    )
    # Benchmark the largest one for the pytest-benchmark table.
    dfa = compile_dfa(patterns["large (bias template)"])
    benchmark(lambda: compiler.compile_all_tokens(dfa, None))


def test_bench_a2_trie_vs_scan(env, compiler, benchmark):
    """A2: trie-batched DFS vs the paper's per-token scan (same output)."""
    dfa = compile_dfa(r"https://www\.([a-zA-Z0-9]|-)+\.([a-zA-Z0-9]|/)+")

    trie_result = benchmark.pedantic(
        lambda: compiler.compile_all_tokens(dfa, None), rounds=5, iterations=1
    )
    start = time.perf_counter()
    scan_result = compile_all_tokens_scan(compiler, dfa, None)
    scan_time = time.perf_counter() - start
    start = time.perf_counter()
    compiler.compile_all_tokens(dfa, None)
    trie_time = time.perf_counter() - start

    print_table(
        "A2: shortcut-edge construction",
        ["algorithm", "time", "edges"],
        [
            ["trie product DFS", f"{1000 * trie_time:.1f} ms", trie_result.num_edges],
            [
                "per-token scan (paper Algorithm 2)",
                f"{1000 * scan_time:.1f} ms",
                scan_result.num_edges,
            ],
        ],
    )
    # Equivalence: identical edge sets (the ablation's correctness anchor).
    assert trie_result.edges == scan_result.edges
    assert trie_result.accepts == scan_result.accepts


def test_bench_canonical_enumeration_cost(env, compiler, benchmark):
    """Cost of the canonical construction on a moderately sized finite
    language (6 months * 110 days * 10 years): within the eager bound, so
    the whole product is built and trimmed, and it must hold exactly one
    token path per string — each string's canonical encoding."""
    months = "|".join(
        f"({m})" for m in ["January", "February", "March", "April", "May", "June"]
    )
    # 6 * 110 * 10 = 6600 strings: inside EAGER_CANONICAL_STRINGS.
    dfa = compile_dfa(f"({months}) [0-9]{{1,2}}, 173[0-9]")
    automaton = benchmark.pedantic(
        lambda: compiler.compile_canonical(dfa, None), rounds=1, iterations=1
    )
    print(f"\ncanonical automaton: {automaton.num_states} states, "
          f"{automaton.num_edges} edges")
    paths = []
    stack = [(automaton.start, ())]
    while stack:
        state, path = stack.pop()
        if state in automaton.accepts:
            paths.append(path)
        stack.extend((dst, path + (tok,)) for tok, dst in automaton.successors(state).items())
    tokenizer = compiler.tokenizer
    assert len(paths) == len({tokenizer.decode(p) for p in paths}) == 6600
    assert all(list(p) == tokenizer.encode(tokenizer.decode(p)) for p in paths)


def test_bench_compilation_cache(env, benchmark):
    """Cross-query compilation cache on the bias experiment's query loop.

    The bias probes compile the same two templated patterns hundreds of
    times (one per gender x seed); with a shared compiler the loop is >90%
    cache hits and the amortised compile cost collapses to a dict lookup.
    """
    from repro.core.compiler import CompilationCache
    from repro.experiments.bias import FIGURE7_CONFIGS, bias_query

    config = FIGURE7_CONFIGS[1]
    queries = [
        bias_query(config, gender, 10, seed)
        for seed in range(25)
        for gender in ("man", "woman")
    ]

    def cold_loop():
        compiler = GraphCompiler(env.tokenizer, cache=False)
        for query in queries:
            compiler.compile(query)

    cache = CompilationCache()
    warm_compiler = GraphCompiler(env.tokenizer, cache=cache)

    def warm_loop():
        for query in queries:
            warm_compiler.compile(query)

    start = time.perf_counter()
    cold_loop()
    cold_time = time.perf_counter() - start
    benchmark.pedantic(warm_loop, rounds=3, iterations=1)
    start = time.perf_counter()
    warm_loop()
    warm_time = time.perf_counter() - start
    print_table(
        "Compilation cache (50-query bias loop)",
        ["configuration", "time", "hit rate"],
        [
            ["no cache", f"{1000 * cold_time:.1f} ms", "-"],
            ["shared cache", f"{1000 * warm_time:.1f} ms", f"{cache.hit_rate:.2f}"],
        ],
    )
    assert cache.hit_rate > 0.9
