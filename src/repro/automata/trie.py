"""Character tries, used to batch the Appendix-B shortcut-edge search.

The graph compiler must find, for every automaton state, every vocabulary
token whose character walk exists from that state.  Scanning token-by-token
is the paper's O(V·k·m_max) algorithm; walking the product of a vocabulary
trie with the automaton discovers all tokens from one state in a single DFS,
which is asymptotically the same but with far better constants because
shared token prefixes are traversed once.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Iterator

__all__ = ["Trie", "SharedWalk"]


@dataclass(eq=False)  # identity-hashed: SharedWalk keys its memo by node
class _TrieNode:
    children: dict[str, "_TrieNode"] = field(default_factory=dict)
    #: token ids terminating at this node (a string may name several ids only
    #: in pathological vocabularies; normally 0 or 1).
    token_ids: list[int] = field(default_factory=list)


class Trie:
    """A character trie over (string, token-id) pairs."""

    def __init__(self, items: Iterable[tuple[str, int]] = ()) -> None:
        self.root = _TrieNode()
        self._size = 0
        #: ``texts[token_id]`` is the string inserted for that id.
        self.texts: dict[int, str] = {}
        for text, token_id in items:
            self.insert(text, token_id)

    def insert(self, text: str, token_id: int) -> None:
        """Insert *text* mapping to *token_id*.  Empty strings are rejected
        (a zero-length token would add self-loops to every state)."""
        if not text:
            raise ValueError("cannot insert the empty string")
        node = self.root
        for ch in text:
            node = node.children.setdefault(ch, _TrieNode())
        node.token_ids.append(token_id)
        self.texts[token_id] = text
        self._size += 1

    def __len__(self) -> int:
        return self._size

    def lookup(self, text: str) -> list[int]:
        """Token ids whose string is exactly *text* (empty list if absent)."""
        node = self.root
        for ch in text:
            node = node.children.get(ch)
            if node is None:
                return []
        return list(node.token_ids)

    def walk_dfa(
        self, transitions: dict[int, dict[str, int]], state: int
    ) -> Iterator[tuple[int, int]]:
        """Yield ``(token_id, landing_state)`` for every token whose
        character walk exists in *transitions* starting at *state*.

        This is the product DFS at the heart of the all-encodings graph
        compiler: each yielded pair becomes one "shortcut" token edge.
        """
        stack: list[tuple[_TrieNode, int]] = [(self.root, state)]
        while stack:
            node, q = stack.pop()
            row = transitions.get(q)
            if row is None:
                continue
            for ch, child in node.children.items():
                nxt = row.get(ch)
                if nxt is None:
                    continue
                for token_id in child.token_ids:
                    yield token_id, nxt
                if child.children:
                    stack.append((child, nxt))


class SharedWalk:
    """:meth:`Trie.walk_dfa` for many states of one automaton, sharing what
    the states have in common.

    The tokens readable below trie node ``n`` from automaton state ``q``
    depend only on ``(n, q)``, and most characters send most source states
    to the same few landing states, so that sub-result is computed once per
    ``(n, q)`` and merged wherever it recurs instead of being re-walked per
    source state.  ``memo`` holds one entry per expanded (node below the
    root, state) pair and lives as long as this object: the compiler's
    lazy token rows keep one until every row is built.
    """

    def __init__(self, trie: Trie, transitions: dict[int, dict[str, int]]) -> None:
        self._root = trie.root
        self._texts = trie.texts
        self._transitions = transitions
        self.memo: dict[tuple[_TrieNode, int], dict[int, int]] = {}

    def row(self, state: int) -> dict[int, int]:
        """``{token_id: landing_state}`` for every token whose character
        walk exists from *state* — ``dict(trie.walk_dfa(transitions,
        state))`` up to insertion order."""
        return self._expand(self._root, state)

    def step(self, state: int, token_id: int) -> int | None:
        """``self.row(state).get(token_id)`` without building the row: the
        landing state of *token_id*'s character walk from *state*."""
        text = self._texts.get(token_id)
        if text is None:
            return None
        transitions = self._transitions
        for ch in text:
            state = transitions.get(state, {}).get(ch)
            if state is None:
                return None
        return state

    def count(self, states: Iterable[int]) -> int:
        """``sum(len(self.row(q)) for q in states)`` without building a row:
        each token id ends at exactly one trie node, so the ids found below
        sibling nodes are disjoint and their counts add up (memoised per
        ``(node, state)`` pair for the duration of the call)."""
        memo: dict[tuple[_TrieNode, int], int] = {}
        transitions = self._transitions

        def below(node: _TrieNode, state: int) -> int:
            row = transitions.get(state)
            if row is None:
                return 0
            children = node.children
            small, large = (row, children) if len(row) < len(children) else (children, row)
            total = 0
            for ch in small:
                if ch in large:
                    child = children[ch]
                    total += len(child.token_ids)
                    if child.children:
                        key = (child, row[ch])
                        if key not in memo:
                            memo[key] = below(*key)
                        total += memo[key]
            return total

        return sum(below(self._root, q) for q in states)

    def _expand(self, node: _TrieNode, state: int) -> dict[int, int]:
        out: dict[int, int] = {}
        row = self._transitions.get(state)
        if row is None:
            return out
        children = node.children
        memo = self.memo
        # Iterate the smaller side: a literal chain state has one
        # out-character, the trie root one child per base character.
        small, large = (row, children) if len(row) < len(children) else (children, row)
        for ch in small:
            if ch in large:
                child = children[ch]
                nxt = row[ch]
                for token_id in child.token_ids:
                    out[token_id] = nxt
                if child.children:
                    key = (child, nxt)
                    below = memo.get(key)
                    if below is None:
                        below = memo[key] = self._expand(child, nxt)
                    out.update(below)
        return out
