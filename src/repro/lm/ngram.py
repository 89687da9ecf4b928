"""Interpolated back-off n-gram language model (pure Python/NumPy).

This is the reproduction's stand-in for GPT-2: an autoregressive model that
assigns a proper distribution over the BPE vocabulary at every step.  An
n-gram model is ideal for the paper's validation experiments because it
*visibly memorises* its training corpus — high-count URLs, biased template
sentences, and toxic snippets all become high-probability continuations,
which is exactly the behaviour ReLM probes.

Smoothing is recursive additive interpolation:

    p_k(w | c) = (count_k(c, w) + alpha * p_{k-1}(w | c[1:])) / (count_k(c) + alpha)

grounded at the uniform distribution, so every token has non-zero
probability everywhere (GPT-2's language is likewise support-complete,
§2.4) while observed continuations dominate for small ``alpha``.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Callable, Iterable, Iterator, Sequence

import numpy as np

from repro.lm.base import LanguageModel
from repro.tokenizers.bpe import BPETokenizer

__all__ = ["NGramModel"]


class NGramModel(LanguageModel):
    """An order-``n`` interpolated n-gram model over token ids."""

    def __init__(
        self,
        vocab_size: int,
        eos_id: int,
        order: int = 4,
        alpha: float = 0.25,
        max_sequence_length: int = 256,
        cache_size: int = 65536,
    ) -> None:
        if order < 1:
            raise ValueError("order must be >= 1")
        if alpha <= 0:
            raise ValueError("alpha must be positive (zero would zero out unseen tokens)")
        self.vocab_size = vocab_size
        self.eos_id = eos_id
        self.order = order
        self.alpha = alpha
        self.max_sequence_length = max_sequence_length
        #: counts[k] maps a length-k context tuple to the counts of next
        #: tokens; counts[0] holds the unigram counts under the key ().  The
        #: inner tables are plain ``dict``s of ints, not ``Counter``s: CPython
        #: leaves such dicts out of the cyclic collector, whereas tens of
        #: thousands of ``Counter`` instances (re-created for every replica)
        #: make each full collection walk every count — ~25 ms that lands in
        #: whatever allocates next, usually a compile.
        self._counts: list[dict[tuple[int, ...], dict[int, int]]] = [
            {} for _ in range(order)
        ]
        self._totals: list[dict[tuple[int, ...], int]] = [{} for _ in range(order)]
        self._cache: OrderedDict[tuple[int, ...], np.ndarray] = OrderedDict()
        self._cache_size = cache_size
        self._trained = False
        #: CSR-style frozen counts (one block per order level), built at
        #: :meth:`fit` time.  When present and ``_use_csr`` is True,
        #: inference runs as pure array ops; the dict walk is kept as the
        #: reference path for differential tests and benchmark baselines.
        self._csr: list[dict] | None = None
        self._use_csr = True

    # -- training ------------------------------------------------------------
    def fit(self, sequences: Iterable[Sequence[int]], append_eos: bool = True) -> "NGramModel":
        """Count n-grams over token *sequences*.

        Each sequence is treated as one document.  EOS doubles as a
        begin-of-sequence marker (GPT-2 style): sequences are left-padded
        with ``order - 1`` EOS tokens so sentence-initial predictions are
        conditioned on "start of text", and EOS is appended (by default) so
        the model learns where strings end — required for the
        EOS-disambiguation the executor performs (§3.3).  May be called
        repeatedly to accumulate counts.
        """
        pad = [self.eos_id] * (self.order - 1)
        for seq in sequences:
            tokens = pad + list(seq)
            if append_eos:
                tokens.append(self.eos_id)
            for i in range(len(pad), len(tokens)):
                tok = tokens[i]
                for k in range(self.order):
                    context = tuple(tokens[i - k : i])
                    counter = self._counts[k].get(context)
                    if counter is None:
                        counter = self._counts[k][context] = {}
                    counter[tok] = counter.get(tok, 0) + 1
                    self._totals[k][context] = self._totals[k].get(context, 0) + 1
        self._cache.clear()
        self._trained = True
        self._freeze()
        return self

    @classmethod
    def train_on_text(
        cls,
        lines: Iterable[str],
        tokenizer: BPETokenizer,
        order: int = 4,
        alpha: float = 0.25,
        max_sequence_length: int = 256,
        encoding_noise: float = 0.0,
        noise_seed: int = 0,
    ) -> "NGramModel":
        """Convenience constructor: encode *lines* and fit.

        ``encoding_noise`` is the fraction of lines encoded with one
        non-canonical token split instead of the canonical encoding —
        planting the tokenization diversity that makes a fraction of GPT-2
        free samples non-canonical (§3.2; see DESIGN.md).
        """
        model = cls(
            vocab_size=len(tokenizer),
            eos_id=tokenizer.eos_id,
            order=order,
            alpha=alpha,
            max_sequence_length=max_sequence_length,
        )
        import random as _random

        rng = _random.Random(noise_seed)

        def encoded() -> Iterator[list[int]]:
            for line in lines:
                if encoding_noise > 0.0 and rng.random() < encoding_noise:
                    yield tokenizer.encode_noncanonical(line, rng)
                else:
                    yield tokenizer.encode(line)

        model.fit(encoded())
        return model

    # -- frozen (CSR) counts ---------------------------------------------------
    def _freeze(self) -> None:
        """Freeze the count dicts into CSR-style arrays, one block per
        order level: ``index`` maps a context tuple to its row, ``indptr``
        delimits that row's run in the parallel ``token_ids``/``counts``
        arrays, and ``totals`` holds the per-context count sums.  The
        arrays let :meth:`_distribution` and :meth:`logprobs_batch` run as
        scatter-adds instead of per-token dict loops, with the *same*
        element-wise operations in the same order — results stay
        bit-identical to the dict walk.
        """
        levels: list[dict] = []
        for k in range(self.order):
            contexts = self._counts[k]
            index: dict[tuple[int, ...], int] = {}
            indptr = np.zeros(len(contexts) + 1, dtype=np.int64)
            nnz = sum(len(counter) for counter in contexts.values())
            token_ids = np.empty(nnz, dtype=np.int64)
            counts = np.empty(nnz, dtype=np.float64)
            totals = np.empty(len(contexts), dtype=np.float64)
            pos = 0
            for ci, (ctx, counter) in enumerate(contexts.items()):
                index[ctx] = ci
                totals[ci] = self._totals[k][ctx]
                for tok, cnt in counter.items():
                    token_ids[pos] = tok
                    counts[pos] = cnt
                    pos += 1
                indptr[ci + 1] = pos
            levels.append(
                {
                    "index": index,
                    "indptr": indptr,
                    "token_ids": token_ids,
                    "counts": counts,
                    "totals": totals,
                }
            )
        self._csr = levels

    # -- inference ------------------------------------------------------------
    def _context_key(self, context: Sequence[int]) -> tuple[int, ...]:
        """Order-``n-1`` suffix of *context*, left-padded with EOS to match
        training — the key inference, the LRU cache and the engine's
        :class:`~repro.lm.base.LogitsCache` (:attr:`row_key`) share.
        O(order): only the suffix is copied."""
        width = self.order - 1
        n = len(context)
        if n >= width:
            return tuple(context[n - width :])
        return (self.eos_id,) * (width - n) + tuple(context)

    @property
    def row_key(self) -> Callable[[Sequence[int]], tuple[int, ...]]:
        """:meth:`_context_key`: a row depends on the last ``order - 1``
        tokens only."""
        return self._context_key

    def _distribution(self, context: tuple[int, ...]) -> np.ndarray:
        """Probability vector for the longest usable context suffix."""
        if self._use_csr and self._csr is not None:
            return self._distribution_csr(context)
        return self._distribution_dict(context)

    def _distribution_dict(self, context: tuple[int, ...]) -> np.ndarray:
        """Reference dict-walk interpolation (pre-freeze path)."""
        probs = np.full(self.vocab_size, 1.0 / self.vocab_size)
        # Build up from unigrams to the longest matching context so each
        # level interpolates with the one below it.
        for k in range(self.order):
            ctx = context[len(context) - k :] if k else ()
            if k > len(context):
                break
            counter = self._counts[k].get(ctx)
            if counter is None:
                continue
            total = self._totals[k][ctx]
            level = probs * self.alpha
            for tok, cnt in counter.items():
                level[tok] += cnt
            probs = level / (total + self.alpha)
        return probs

    def _distribution_csr(self, context: tuple[int, ...]) -> np.ndarray:
        """CSR interpolation: one scatter-add per matched level."""
        probs = np.full(self.vocab_size, 1.0 / self.vocab_size)
        for k in range(self.order):
            ctx = context[len(context) - k :] if k else ()
            if k > len(context):
                break
            level = self._csr[k]  # type: ignore[index]
            ci = level["index"].get(ctx)
            if ci is None:
                continue
            lo = level["indptr"][ci]
            hi = level["indptr"][ci + 1]
            out = probs * self.alpha
            out[level["token_ids"][lo:hi]] += level["counts"][lo:hi]
            probs = out / (level["totals"][ci] + self.alpha)
        return probs

    def logprobs(self, context: Sequence[int]) -> np.ndarray:
        """Dense ``log p(next | context)`` with LRU caching.

        Contexts shorter than ``order - 1`` are left-padded with EOS,
        matching training — the empty context therefore predicts
        sentence-initial text rather than the raw unigram mix.
        """
        if not self._trained:
            raise RuntimeError("model has not been fitted; call fit() first")
        key = self._context_key(context)
        cached = self._cache.get(key)
        if cached is not None:
            self._cache.move_to_end(key)
            return cached
        value = np.log(self._distribution(key))
        # Evict *before* inserting: insert-then-pop briefly holds
        # ``_cache_size + 1`` rows, and any observer iterating the cache
        # between those two statements (or a re-entrant lookup from a
        # tracing hook) can grab a row the pop is about to drop.
        if len(self._cache) >= self._cache_size:
            self._cache.popitem(last=False)
        self._cache[key] = value
        return value

    def logprobs_batch(self, contexts: Sequence[Sequence[int]]) -> list[np.ndarray]:
        """Vectorized batched scoring over the frozen CSR arrays.

        Batch-unique uncached keys are scored together: one ``(U, vocab)``
        matrix walks the order levels, interpolating all matched rows per
        level with a single scatter-add.  Row results are bit-identical to
        per-context :meth:`logprobs` (same element-wise ops, same order).
        Rows computed this call are kept in a local overlay so LRU
        eviction mid-batch can never lose a row a later occurrence needs.
        """
        if not self._trained:
            raise RuntimeError("model has not been fitted; call fit() first")
        keys = [self._context_key(c) for c in contexts]
        rows: dict[tuple[int, ...], np.ndarray] = {}
        missing: list[tuple[int, ...]] = []
        for key in keys:
            if key in rows:
                continue
            cached = self._cache.get(key)
            if cached is not None:
                self._cache.move_to_end(key)
                rows[key] = cached
            else:
                rows[key] = None  # type: ignore[assignment]
                missing.append(key)
        if missing:
            if self._use_csr and self._csr is not None and len(missing) > 1:
                block = self._logprobs_block(missing)
            else:
                # Single-key batches (random-sampling traversals) skip the
                # block machinery's fixed array overhead.
                block = [np.log(self._distribution(key)) for key in missing]
            for key, value in zip(missing, block):
                rows[key] = value
                if len(self._cache) >= self._cache_size:
                    self._cache.popitem(last=False)
                self._cache[key] = value
        return [rows[key] for key in keys]

    def _logprobs_block(self, keys: Sequence[tuple[int, ...]]) -> list[np.ndarray]:
        """Log-probability rows for a block of unique context keys."""
        csr = self._csr
        assert csr is not None
        P = np.full((len(keys), self.vocab_size), 1.0 / self.vocab_size)
        for k in range(self.order):
            level = csr[k]
            index = level["index"]
            matched_rows: list[int] = []
            matched_cis: list[int] = []
            for r, key in enumerate(keys):
                if k > len(key):
                    continue
                ctx = key[len(key) - k :] if k else ()
                ci = index.get(ctx)
                if ci is not None:
                    matched_rows.append(r)
                    matched_cis.append(ci)
            if not matched_rows:
                continue
            rows_a = np.asarray(matched_rows, dtype=np.int64)
            cis_a = np.asarray(matched_cis, dtype=np.int64)
            lo = level["indptr"][cis_a]
            lens = level["indptr"][cis_a + 1] - lo
            # Gather every matched row's (token, count) run in one fancy
            # index: positions lo[j] .. lo[j]+lens[j] for each j, flattened.
            starts = np.cumsum(lens) - lens
            flat = np.repeat(lo - starts, lens) + np.arange(int(lens.sum()))
            sub = P[rows_a] * self.alpha
            # Token ids are unique within a context's run, so plain fancy
            # assignment-add never collides.
            sub[
                np.repeat(np.arange(len(rows_a)), lens),
                level["token_ids"][flat],
            ] += level["counts"][flat]
            P[rows_a] = sub / (level["totals"][cis_a][:, None] + self.alpha)
        return list(np.log(P))

    # -- process transport -----------------------------------------------------
    def __getstate__(self) -> dict:
        """Pickle without the LRU row cache.

        Worker replicas (see :mod:`repro.core.parallel`) rebuild a fresh
        cache on their side; shipping cached rows would bloat the spec
        payload without changing any result (rows are a pure function of
        the counts).
        """
        state = self.__dict__.copy()
        state["_cache"] = OrderedDict()
        return state

    # -- introspection ----------------------------------------------------------
    def context_count(self, context: Sequence[int]) -> int:
        """How many times the exact (order-1 suffix of) *context* was seen
        (with the same EOS left-padding as :meth:`logprobs`)."""
        key = self._context_key(context)
        return self._totals[len(key)].get(key, 0)

    def num_parameters(self) -> int:
        """Total stored n-gram entries (the model-size analogue)."""
        return sum(len(counter) for level in self._counts for counter in level.values())
