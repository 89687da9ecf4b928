"""The autoregressive language-model interface ReLM executes against.

ReLM only ever needs one operation from a model: the next-token
log-probability vector given a token context (§2.4).  Everything else —
decoding rules, traversals, scoring — lives in the engine.  Two concrete
models implement this interface: :class:`repro.lm.ngram.NGramModel` (the
workhorse, which visibly memorises its training corpus) and
:class:`repro.lm.transformer.TransformerModel` (a pure-NumPy GPT used to
show the engine is architecture-agnostic).
"""

from __future__ import annotations

import pickle
from abc import ABC, abstractmethod
from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Any, Callable, Hashable, Iterable, Sequence

import numpy as np

__all__ = ["LanguageModel", "LogitsCache", "CountingModel", "ModelSpec", "RoundPlan"]


@dataclass(frozen=True)
class ModelSpec:
    """A picklable recipe for rebuilding a model in another process.

    The parallel evaluation service (:mod:`repro.core.parallel`) ships one
    spec to each worker, which calls :meth:`build` exactly once to obtain a
    private replica.  Models customise what crosses the process boundary via
    ``__getstate__``/``__setstate__`` — derived state (LRU row caches,
    optimiser moments, prefix-state caches) is dropped and rebuilt fresh on
    the worker side, so the payload stays small and replicas start cold.
    """

    #: Pickled model payload (already serialised, so the spec itself stays
    #: cheap to re-pickle when crossing a ``spawn`` process boundary).
    payload: bytes
    #: Mirrors of the interface constants workers need before building.
    vocab_size: int
    eos_id: int

    def build(self) -> "LanguageModel":
        """Reconstruct a private model replica from the payload."""
        model = pickle.loads(self.payload)
        if not isinstance(model, LanguageModel):
            raise TypeError(f"spec payload is not a LanguageModel: {type(model)!r}")
        return model


class LanguageModel(ABC):
    """Abstract autoregressive LM over a fixed token vocabulary.

    A concrete model implements :meth:`logprobs`; it may also override
    :meth:`logprobs_batch` (a batched forward), :attr:`round_width` (how
    many contexts a query should put in one round) and :attr:`row_key`
    (what part of a context the row depends on — every cache of rows keys
    by it).
    """

    #: Number of tokens in the vocabulary (including specials).
    vocab_size: int
    #: Id of the end-of-sequence token.
    eos_id: int
    #: Maximum context length the model supports; used to unroll cycles
    #: when counting walks (§3.3) and to cap generations.
    max_sequence_length: int = 256
    #: Optional :class:`~repro.lm.state_cache.PrefixStateCache` holding
    #: per-prefix recurrent state (the transformer's K/V arrays).  Models
    #: whose per-step cost does not grow with context length (the n-gram)
    #: leave it ``None``.  It owns its counters: read ``prefix_cache.stats()``.
    prefix_cache = None

    @property
    def round_width(self) -> int:
        """Contexts one query may put in one model round by default.

        1 means "score what is asked": a forward that costs per context
        (the n-gram) gains nothing from company.  A model whose forward
        costs per *call* sets a class constant above 1
        (:class:`~repro.lm.transformer.TransformerModel`), and a query
        that misses then fills the round with the contexts it will need
        next (:class:`~repro.core.executor.LmRequest` lookahead).  A
        proxy holding the real model as ``.inner`` reports that model's
        width, so wrapping a model never regroups its rounds.
        """
        inner: LanguageModel | None = getattr(self, "inner", None)
        return inner.round_width if inner is not None else 1

    @property
    def row_key(self) -> Callable[[Sequence[int]], Hashable]:
        """The function of a context that :meth:`logprobs` depends on.

        Two contexts with equal keys get bit-identical rows, so a
        :class:`LogitsCache` stores one row per key rather than one per
        context.  It must be idempotent (``row_key(row_key(c)) ==
        row_key(c)``) and a valid context itself, so a key scores like
        the contexts it stands for.  The default is ``tuple``: the whole
        context matters (the transformer).  The n-gram reads only its
        order-(n-1) suffix and returns that.  A proxy holding the real
        model as ``.inner`` reports that model's key.
        """
        inner: LanguageModel | None = getattr(self, "inner", None)
        return inner.row_key if inner is not None else tuple

    def enable_prefix_cache(self, max_bytes: int | None = None) -> Any | None:
        """Attach a prefix-state (KV) cache of *max_bytes*, if the model
        supports incremental decoding.

        The base implementation is a no-op returning ``None`` — a model
        without reusable per-prefix state has nothing to cache.  Models
        that override it (the NumPy transformer) return the attached
        :class:`~repro.lm.state_cache.PrefixStateCache`.
        """
        return None

    def disable_prefix_cache(self) -> None:
        """Detach the prefix-state cache (scoring reverts to full
        forwards); a no-op on models that never had one."""
        self.prefix_cache = None

    @abstractmethod
    def logprobs(self, context: Sequence[int]) -> np.ndarray:
        """Return ``log p(next | context)`` as a dense ``(vocab_size,)``
        float array.

        Must be a proper distribution (``logsumexp == 0``) so shortest-path
        costs are additive and comparable across branches.
        """

    def logprobs_batch(self, contexts: Sequence[Sequence[int]]) -> list[np.ndarray]:
        """Next-token log-probabilities for many contexts at once.

        The executor batches frontier expansions through this call — the
        paper's "scheduling massive sets of test vectors on accelerators"
        (§3.3).  The default loops over unique contexts (duplicates inside
        one batch are scored once and the row shared); models with
        hardware-style batched forwards (the NumPy transformer) override it.
        """
        unique: dict[tuple[int, ...], np.ndarray] = {}
        out: list[np.ndarray] = []
        for context in contexts:
            key = tuple(context)
            row = unique.get(key)
            if row is None:
                row = self.logprobs(key)
                unique[key] = row
            out.append(row)
        return out

    def spec(self) -> ModelSpec:
        """A picklable :class:`ModelSpec` that rebuilds this model elsewhere.

        The default pickles the model itself; models override
        ``__getstate__`` to strip derived caches from the payload rather
        than overriding this method.
        """
        return ModelSpec(
            payload=pickle.dumps(self, protocol=pickle.HIGHEST_PROTOCOL),
            vocab_size=self.vocab_size,
            eos_id=self.eos_id,
        )

    def sequence_logprob(self, tokens: Sequence[int], prefix: Sequence[int] = ()) -> float:
        """Total ``log p(tokens | prefix)`` under the chain rule.

        The *prefix* is conditioned on but not scored — matching the paper's
        treatment of query prefixes, which are "defined to be in the
        language" (§2.4).
        """
        context = list(prefix)
        total = 0.0
        for tok in tokens:
            total += float(self.logprobs(context)[tok])
            context.append(tok)
        return total

    def sample_token(
        self, context: Sequence[int], rng: Any, policy: Any | None = None
    ) -> int:
        """Sample one next token, optionally under a decoding policy.

        ``rng`` is either a :class:`random.Random` (``choices`` interface)
        or a NumPy-style generator exposing ``random()``.
        """
        lp = self.logprobs(context)
        if policy is not None:
            lp = policy.filtered_logprobs(lp)
        probs = np.exp(lp - np.max(lp))
        probs[~np.isfinite(lp)] = 0.0
        probs /= probs.sum()
        if hasattr(rng, "choices"):
            return int(rng.choices(range(self.vocab_size), weights=probs, k=1)[0])
        # Inverse-CDF fallback: float round-off can leave the final cumsum
        # below 1.0, in which case searchsorted returns vocab_size — clamp
        # to the last valid token id.
        index = int(np.searchsorted(np.cumsum(probs), rng.random()))
        return min(index, self.vocab_size - 1)

    def generate(
        self,
        prefix: Sequence[int],
        rng: Any,
        max_new_tokens: int,
        policy: Any | None = None,
        stop_at_eos: bool = True,
    ) -> list[int]:
        """Free-running sampling — the paper's baseline generation loop.

        Returns the newly generated tokens (without the prefix); generation
        stops at EOS (if ``stop_at_eos``) or after ``max_new_tokens``.
        """
        context = list(prefix)
        out: list[int] = []
        for _ in range(max_new_tokens):
            tok = self.sample_token(context, rng, policy)
            if stop_at_eos and tok == self.eos_id:
                break
            out.append(tok)
            context.append(tok)
            if len(context) >= self.max_sequence_length:
                break
        return out


@dataclass
class RoundPlan:
    """In-flight state of a split-phase :class:`LogitsCache` round.

    Produced by :meth:`LogitsCache.begin_round`; consumed (exactly once) by
    :meth:`LogitsCache.finish_round`.  Everything is keyed by the model's
    :attr:`~LanguageModel.row_key`.  ``missing`` maps each round-unique
    uncached key to the first context that requested it, in first-request
    order — the evaluation order every backend (in-process or worker pool)
    must preserve for bit-identical results — and ``overlay`` snapshots
    the rows that were already cached when the round began.  ``lookahead``
    maps keys no group asked for (:meth:`LogitsCache.add_lookahead`) to
    their context: they are evaluated after the missing ones in the same
    model call and their rows only inserted.
    """

    keys_per_group: list[list[Hashable]]
    missing: dict[Hashable, tuple[int, ...]]
    overlay: dict[Hashable, np.ndarray]
    lookahead: dict[Hashable, tuple[int, ...]] = field(default_factory=dict)

    def missing_contexts(self) -> list[tuple[int, ...]]:
        """The contexts to evaluate, in the order rows must come back."""
        return [*self.missing.values(), *self.lookahead.values()]

    @property
    def total_contexts(self) -> int:
        """Occurrence count across all groups (cache lookups this round)
        plus the lookahead contexts riding along."""
        return sum(len(keys) for keys in self.keys_per_group) + len(self.lookahead)


class LogitsCache:
    """A bounded LRU cache of log-probability vectors keyed by the model's
    :attr:`~LanguageModel.row_key`.

    Graph traversals repeatedly expand sibling edges that share a context;
    caching the model call is the single biggest engine optimisation (it is
    the analogue of the paper batching test vectors on the GPU).  Keying by
    what the model reads, not by the whole context, makes every context
    whose row is already held a hit: on an n-gram, two paths that end in
    the same order-(n-1) tokens share one row.  Counters and capacity are
    per key.
    """

    def __init__(self, model: LanguageModel, capacity: int = 4096) -> None:
        if capacity <= 0:
            raise ValueError("capacity must be positive")
        self.model = model
        self.capacity = capacity
        self._key = model.row_key
        self._store: OrderedDict[Hashable, np.ndarray] = OrderedDict()
        self.hits = 0
        self.misses = 0
        #: Rows inserted ahead of need (:meth:`add_lookahead`): nobody
        #: looked them up, so they are neither hits nor misses.
        self.lookahead_rows = 0

    def logprobs(self, context: Sequence[int]) -> np.ndarray:
        """Cached equivalent of ``model.logprobs(context)``."""
        key = self._key(context)
        cached = self._store.get(key)
        if cached is not None:
            self._store.move_to_end(key)
            self.hits += 1
            return cached
        self.misses += 1
        value = self.model.logprobs(tuple(context))
        self._insert(key, value)
        return value

    def logprobs_batch(self, contexts: Sequence[Sequence[int]]) -> list[np.ndarray]:
        """Cached batched lookup: cache misses are forwarded to the model
        in one ``logprobs_batch`` call.

        Duplicate contexts within the call are deduped down to a single
        model score — this is a one-group :meth:`logprobs_round`.
        """
        rows, _, _ = self.logprobs_round([contexts])
        return rows[0]

    def cached_rows(self, contexts: Sequence[Sequence[int]]) -> list[np.ndarray] | None:
        """The rows for *contexts* if every one is cached, else ``None``.

        The all-hit probe both drivers try before they build a round: a
        success counts each occurrence as a hit and touches it in LRU
        order, exactly as a one-group :meth:`logprobs_round` over cached
        contexts would; a failure returns at the first miss with counters
        and recency untouched, so the caller can still take the round path
        as if it had never probed.
        """
        store = self._store
        keys = list(map(self._key, contexts))
        rows = []
        for key in keys:
            row = store.get(key)
            if row is None:
                return None
            rows.append(row)
        for key in keys:
            store.move_to_end(key)
        self.hits += len(keys)
        return rows

    def logprobs_round(
        self, groups: Sequence[Sequence[Sequence[int]]]
    ) -> tuple[list[list[np.ndarray]], list[int], list[int]]:
        """Serve one *coalesced* LM round for many queries at once.

        ``groups`` holds one context batch per query.  Contexts whose
        ``row_key`` collides anywhere in the round — within a group or
        across groups — are scored once: the whole round issues **at most
        one** ``model.logprobs_batch`` call, over the first context of each
        round-unique uncached key only.  This is the cross-query dedupe the
        multi-query scheduler relies on; per-call dedupe alone would
        re-score a context requested by two different queries in the same
        round.

        The single batched model call is also what feeds the model's
        prefix-state (KV) cache, when it has one: the round-unique missing
        contexts arrive as one ``logprobs_batch``, whose incremental path
        gathers each context's cached parent state and runs one stacked
        single-token step for the whole coalesced frontier (see
        :mod:`repro.lm.state_cache`).  Because the cache lives on the
        model, every query sharing this :class:`LogitsCache` — and every
        scheduler round — shares one prefix-state cache too.

        Returns ``(rows_per_group, hits_per_group, misses_per_group)``.
        Hit/miss attribution is per occurrence: the first requester of an
        uncached key is charged the miss; every other occurrence in the
        round (cached earlier, or scored for another group this round)
        counts as a hit.  The per-group tallies let a scheduler credit each
        query's :class:`~repro.core.results.ExecutionStats` exactly even
        though the cache is shared.

        Internally this is :meth:`begin_round` (detect the round-unique
        missing contexts) + one model call + :meth:`finish_round`
        (attribute rows).  Callers that evaluate the missing set elsewhere
        — e.g. shard it across a worker pool — use the split-phase API
        directly.
        """
        plan = self.begin_round(groups)
        fresh = self.model.logprobs_batch(plan.missing_contexts()) if plan.missing else []
        return self.finish_round(plan, fresh)

    def begin_round(self, groups: Sequence[Sequence[Sequence[int]]]) -> RoundPlan:
        """Detection phase of a coalesced round: snapshot cached rows and
        collect the round-unique missing contexts, without calling the
        model.

        Returns a :class:`RoundPlan`; the caller evaluates
        ``plan.missing_contexts()`` however it likes (in-process, or
        sharded across a worker pool) and hands the resulting rows — in the
        same order — to :meth:`finish_round`.
        """
        row_key = self._key
        # The round-local overlay snapshots every row the round needs: rows
        # already cached at round start are copied in during this detection
        # pass, and rows for round-unique missing keys (``missing``, in
        # first-request order) are resolved into it after the model call.
        # Either way a mid-round LRU eviction — misses are inserted while
        # groups are still being read — can never lose a row a later group
        # needs.
        keys_per_group: list[list[Hashable]] = []
        missing: dict[Hashable, tuple[int, ...]] = {}
        overlay: dict[Hashable, np.ndarray] = {}
        for group in groups:
            keys = []
            for context in group:
                key = row_key(context)
                keys.append(key)
                if key in overlay or key in missing:
                    continue
                cached = self._store.get(key)
                if cached is not None:
                    overlay[key] = cached
                else:
                    missing[key] = tuple(context)
            keys_per_group.append(keys)
        return RoundPlan(keys_per_group=keys_per_group, missing=missing, overlay=overlay)

    def add_lookahead(self, plan: RoundPlan, contexts: Iterable[Sequence[int]]) -> int:
        """Let *contexts* ride along in *plan*'s model call ahead of need.

        Only contexts whose row the round would not score anyway are added
        — key not cached, not missing for some group, not already riding —
        and the count added is returned.  :meth:`finish_round` inserts their
        rows and does nothing else with them: whoever asks for one later
        finds it cached (a hit), or scores it again if it was evicted
        meanwhile.
        """
        lookahead = plan.lookahead
        before = len(lookahead)
        for context in contexts:
            key = self._key(context)
            if key not in self._store and key not in plan.missing and key not in lookahead:
                lookahead[key] = tuple(context)
        return len(lookahead) - before

    def finish_round(
        self, plan: RoundPlan, fresh: Sequence[np.ndarray]
    ) -> tuple[list[list[np.ndarray]], list[int], list[int]]:
        """Attribution phase of a coalesced round: fold the freshly scored
        rows (aligned with ``plan.missing_contexts()``) back into the cache
        and charge per-group hits/misses exactly as
        :meth:`logprobs_round` documents.
        """
        missing = plan.missing
        overlay = plan.overlay
        expected = len(missing) + len(plan.lookahead)
        if len(fresh) != expected:
            raise ValueError(f"round produced {len(fresh)} rows for {expected} contexts")
        overlay.update(zip(missing, fresh))
        keys_per_group = plan.keys_per_group
        rows_per_group: list[list[np.ndarray]] = []
        hits = [0] * len(keys_per_group)
        misses = [0] * len(keys_per_group)
        charged: set[Hashable] = set()
        for gi, keys in enumerate(keys_per_group):
            rows: list[np.ndarray] = []
            for key in keys:
                value = self._store.get(key)
                if value is not None:
                    self._store.move_to_end(key)
                    self.hits += 1
                    hits[gi] += 1
                elif key in missing and key not in charged:
                    value = overlay[key]
                    charged.add(key)
                    self.misses += 1
                    misses[gi] += 1
                    self._insert(key, value)
                else:
                    # Evicted mid-round after being scored this round, or a
                    # pre-cached row evicted by this round's inserts — the
                    # snapshot still serves it, and it counts as a hit.
                    value = overlay[key]
                    self.hits += 1
                    hits[gi] += 1
                rows.append(value)
            rows_per_group.append(rows)
        for key, value in zip(plan.lookahead, fresh[len(missing):]):
            self._insert(key, value)
        self.lookahead_rows += len(plan.lookahead)
        return rows_per_group, hits, misses

    def _insert(self, key: Hashable, value: np.ndarray) -> None:
        self._store[key] = value
        if len(self._store) > self.capacity:
            self._store.popitem(last=False)

    def dump_rows(
        self, max_bytes: int | None = None
    ) -> list[tuple[Hashable, np.ndarray]]:
        """Snapshot cached ``(row key, row)`` pairs for checkpointing, newest-last.

        Walks the LRU order newest-first until *max_bytes* of row data is
        collected (``None`` = everything), then returns the selection
        oldest-first so :meth:`preload` reinstates the same recency order.
        Rows are the cached arrays themselves (they are treated as
        immutable everywhere); the pickler copies them on write.
        """
        selected: list[tuple[Hashable, np.ndarray]] = []
        budget = max_bytes if max_bytes is not None else None
        spent = 0
        for key in reversed(self._store):
            row = self._store[key]
            if budget is not None:
                spent += row.nbytes
                if selected and spent > budget:
                    break
            selected.append((key, row))
        selected.reverse()
        return selected

    def preload(self, rows: Sequence[tuple[Sequence[int], np.ndarray]]) -> None:
        """Reinstate rows saved by :meth:`dump_rows` (oldest-first).

        Pure state restoration: hit/miss counters are untouched, so a
        resumed run's cache statistics reflect only its own traffic.  Each
        key goes through ``row_key``, which is idempotent, so rows saved
        under whole contexts (checkpoints written before the cache keyed by
        ``row_key``) resume as usable as rows saved under their keys.
        """
        row_key = self._key
        for key, row in rows:
            self._insert(row_key(key), row)

    @property
    def hit_rate(self) -> float:
        """Fraction of lookups served from cache (0 when unused)."""
        total = self.hits + self.misses
        return self.hits / total if total else 0.0

    def stats(self) -> dict[str, int | float]:
        """Plain-dict counter view for logging/reporting."""
        return {
            "entries": len(self._store),
            "capacity": self.capacity,
            "hits": self.hits,
            "misses": self.misses,
            "lookahead_rows": self.lookahead_rows,
            "hit_rate": self.hit_rate,
        }


class CountingModel(LanguageModel):
    """A transparent wrapper counting the LM traffic an inner model sees.

    ``batch_rounds`` counts ``logprobs_batch`` invocations (the unit the
    paper's accelerator-batching argument is about: one round = one GPU
    dispatch), ``single_calls`` counts direct ``logprobs`` calls, and
    ``contexts_scored`` counts the contexts actually forwarded.  Used by the
    scheduler acceptance tests and the benchmark smoke run to pin how many
    model rounds a workload really issued, independent of cache counters.
    """

    def __init__(self, inner: LanguageModel) -> None:
        self.inner = inner
        self.vocab_size = inner.vocab_size
        self.eos_id = inner.eos_id
        self.max_sequence_length = inner.max_sequence_length
        self.reset()

    def reset(self) -> None:
        """Zero all counters."""
        self.batch_rounds = 0
        self.single_calls = 0
        self.contexts_scored = 0

    def logprobs(self, context: Sequence[int]) -> np.ndarray:
        self.single_calls += 1
        self.contexts_scored += 1
        return self.inner.logprobs(context)

    def logprobs_batch(self, contexts: Sequence[Sequence[int]]) -> list[np.ndarray]:
        self.batch_rounds += 1
        self.contexts_scored += len(contexts)
        return self.inner.logprobs_batch(contexts)

    @property
    def total_rounds(self) -> int:
        """Model dispatches of either shape (batched rounds + singles)."""
        return self.batch_rounds + self.single_calls
