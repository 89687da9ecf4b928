"""Prefix-state (KV) cache: reusable per-context model state for
incremental decoding.

ReLM's traversals grow frontier contexts one token at a time (§3.3): a
child context is always its parent plus one token.  A transformer's
forward pass over such a child repays almost all of its cost to attention
positions it already computed for the parent.  :class:`PrefixStateCache`
stores that per-prefix state — for the NumPy transformer, the per-layer
key/value arrays — keyed by the token tuple that produced it, so scoring
a child reduces to a *single-token* attention step against the parent's
cached K/V.  This is the engine analogue of the prefix/KV caching every
serving stack uses to amortize autoregressive decoding.

Structure: a trie over token ids (one node per token, payloads on the
nodes whose full path was stored) plus an LRU list over payload-bearing
nodes.  The trie gives O(|context|) longest-cached-prefix lookup — the
operation incremental decoding needs, since any cached ancestor shortens
the chunk that must be recomputed — and the LRU bounds residency by a
*byte* budget (states are large; entry counts are the wrong unit).

The cache is model-agnostic: payloads are opaque to it.  It only tracks
``nbytes`` per entry for the budget, and hit/miss/eviction/byte counters
that the executor and scheduler surface in their statistics.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Any, Sequence

__all__ = ["PrefixStateCache", "DEFAULT_KV_CACHE_BYTES"]

#: Default byte budget (64 MiB) — roomy for the NumPy models, small
#: enough that a laptop never notices.  Override via ``max_bytes`` /
#: ``--kv-cache-mb``.
DEFAULT_KV_CACHE_BYTES = 64 << 20


class _Node:
    """One trie node: children by token id, optional stored payload."""

    __slots__ = ("children", "key", "state", "nbytes")

    def __init__(self) -> None:
        self.children: dict[int, _Node] = {}
        self.key: tuple[int, ...] | None = None  # set while a payload is stored
        self.state: Any = None
        self.nbytes: int = 0


class PrefixStateCache:
    """Byte-budgeted LRU trie of per-prefix model states.

    ``get``/``longest_prefix``/``peek`` look up the deepest stored
    ancestor of a context; ``put`` stores the state computed for a context
    so its children can decode incrementally.  Counters:

    * ``hits`` / ``misses`` — lookups that found / did not find a usable
      cached prefix (a lookup that finds *any* non-empty prefix is a hit:
      even a partial ancestor shrinks the recompute chunk).
    * ``evictions`` — entries dropped to stay under ``max_bytes``.
    * ``bytes`` — current resident payload bytes (≤ ``max_bytes``).
    """

    def __init__(self, max_bytes: int = DEFAULT_KV_CACHE_BYTES) -> None:
        if max_bytes <= 0:
            raise ValueError("max_bytes must be positive")
        self.max_bytes = max_bytes
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self.bytes = 0
        self._root = _Node()
        #: LRU order over payload-bearing nodes, keyed by their token tuple.
        self._lru: OrderedDict[tuple[int, ...], _Node] = OrderedDict()

    def __len__(self) -> int:
        return len(self._lru)

    # -- lookup -------------------------------------------------------------------
    def _deepest(
        self, context: Sequence[int], max_len: int | None
    ) -> tuple[int, _Node | None]:
        """The trie walk behind :meth:`peek` and :meth:`longest_prefix`:
        ``(matched length, payload node)``, no side effects."""
        key = tuple(context)
        limit = len(key) if max_len is None else min(max_len, len(key))
        node = self._root
        best_len = 0
        best: _Node | None = None
        for depth in range(limit):
            node = node.children.get(key[depth])  # type: ignore[assignment]
            if node is None:
                break
            if node.key is not None:
                best_len = depth + 1
                best = node
        return best_len, best

    def peek(self, context: Sequence[int], max_len: int | None = None) -> int:
        """Length :meth:`longest_prefix` would match, without charging a
        hit or miss and without touching the LRU order."""
        return self._deepest(context, max_len)[0]

    def longest_prefix(
        self, context: Sequence[int], max_len: int | None = None
    ) -> tuple[int, Any]:
        """Deepest stored prefix of *context* no longer than *max_len*.

        Returns ``(m, state)`` where ``m`` is the matched prefix length
        (0 when nothing usable is cached, with ``state None``).
        Incremental scorers pass ``max_len=len(context) - 1``: re-scoring
        a context must always process at least its final token, so an
        exact-key entry is not a usable ancestor.

        Every call charges exactly one hit or miss, so a scorer that wants
        ``hits + misses == contexts scored`` calls this once per context,
        when it commits to the ancestor, and plans with :meth:`peek`.
        """
        best_len, best = self._deepest(context, max_len)
        if best is None:
            self.misses += 1
            return 0, None
        self.hits += 1
        self._lru.move_to_end(best.key)  # type: ignore[index]
        return best_len, best.state

    def get(self, context: Sequence[int]) -> Any:
        """Exact-key lookup (same hit/miss accounting as a full-length
        :meth:`longest_prefix` that only accepts a total match)."""
        key = tuple(context)
        node = self._lru.get(key)
        if node is None:
            self.misses += 1
            return None
        self.hits += 1
        self._lru.move_to_end(key)
        return node.state

    # -- insertion / eviction -----------------------------------------------------
    def put(self, context: Sequence[int], state: Any, nbytes: int) -> None:
        """Store *state* for *context*, evicting LRU entries over budget."""
        key = tuple(context)
        node = self._root
        for tok in key:
            child = node.children.get(tok)
            if child is None:
                child = _Node()
                node.children[tok] = child
            node = child
        if node.key is not None:  # replace in place
            self.bytes -= node.nbytes
        node.key = key
        node.state = state
        node.nbytes = int(nbytes)
        self.bytes += node.nbytes
        self._lru[key] = node
        self._lru.move_to_end(key)
        while self.bytes > self.max_bytes and self._lru:
            _, victim = self._lru.popitem(last=False)
            self._drop(victim)

    def _drop(self, node: _Node) -> None:
        """Release *node*'s payload and prune its now-empty trie chain."""
        assert node.key is not None
        key = node.key
        self.bytes -= node.nbytes
        self.evictions += 1
        node.key = None
        node.state = None
        node.nbytes = 0
        # Prune childless, payload-free nodes bottom-up so the trie does
        # not accumulate dead chains as the LRU churns.
        if not node.children:
            path = [self._root]
            walk = self._root
            alive = True
            for tok in key:
                walk = walk.children.get(tok)  # type: ignore[assignment]
                if walk is None:
                    alive = False
                    break
                path.append(walk)
            if alive:
                for depth in range(len(key), 0, -1):
                    child = path[depth]
                    if child.children or child.key is not None:
                        break
                    del path[depth - 1].children[key[depth - 1]]

    def clear(self) -> None:
        """Drop every stored state (counters are cumulative and survive)."""
        self._root = _Node()
        self._lru.clear()
        self.bytes = 0

    # -- reporting ----------------------------------------------------------------
    @property
    def hit_rate(self) -> float:
        """Fraction of lookups that found a cached prefix (0 when unused)."""
        total = self.hits + self.misses
        return self.hits / total if total else 0.0

    def stats(self) -> dict:
        """Plain-dict counter view for logging/reporting."""
        return {
            "entries": len(self._lru),
            "bytes": self.bytes,
            "max_bytes": self.max_bytes,
            "hits": self.hits,
            "misses": self.misses,
            "evictions": self.evictions,
            "hit_rate": self.hit_rate,
        }

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"PrefixStateCache(entries={len(self._lru)}, "
            f"bytes={self.bytes}/{self.max_bytes}, "
            f"hits={self.hits}, misses={self.misses}, evictions={self.evictions})"
        )
