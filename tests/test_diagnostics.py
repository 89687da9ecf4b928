"""Tests for the elimination-tracking diagnostic (§3.3: the token
sequences a pruned edge transitively removes)."""

from __future__ import annotations

from repro.core.api import prepare
from repro.core.diagnostics import EliminationTracker
from repro.core.query import SearchQuery


class TestEliminationTracker:
    def test_tracks_killed_sequences(self, model, tokenizer):
        query = SearchQuery("[0-9]{2}", top_k=2, sequence_length=6)
        session = prepare(
            model, tokenizer, query, max_expansions=500, track_elimination=True
        )
        list(session)
        tracker = session.executor.elimination_tracker
        assert tracker is not None
        assert tracker.events == session.stats.pruned_edges
        assert 0 <= tracker.eliminated <= tracker.total_sequences()

    def test_no_pruning_no_elimination(self, model, tokenizer):
        query = SearchQuery("The ((cat)|(dog))")  # no decision rule
        session = prepare(model, tokenizer, query, track_elimination=True)
        list(session)
        assert session.executor.elimination_tracker.eliminated == 0

    def test_tracker_counts_against_manual_dp(self, model, tokenizer):
        """One pruned edge at the root of [0-9]{2} kills exactly the
        10 two-digit strings through it (one encoding each at depth 2)."""
        from repro.core.compiler import GraphCompiler

        compiled = GraphCompiler(tokenizer).compile(SearchQuery("[0-9]{2}"))
        tracker = EliminationTracker(compiled.token_automaton, max_tokens=2)
        # Pick a single-character first edge and prune it.
        start = compiled.token_automaton.start
        row = compiled.token_automaton.successors(start)
        one_char = [
            (tid, dst)
            for tid, dst in row.items()
            if len(tokenizer.vocab.token_of(tid)) == 1
        ]
        tid, dst = one_char[0]
        killed = tracker.record_pruned_edge(dst, 0)
        # From dst with 1 token budget left: exactly the 10 second digits.
        assert killed == 10

    def test_disabled_by_default(self, model, tokenizer):
        session = prepare(model, tokenizer, SearchQuery("ab"))
        assert session.executor.elimination_tracker is None
