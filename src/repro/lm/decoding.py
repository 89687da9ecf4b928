"""Decoding / decision rules (§2.4).

A decoding policy turns the model's raw distribution into the *decision
rule* that defines the LLM's language: a token sequence is in the language
iff every step survives the policy's filter (e.g. stays within the top-k).
The executor consults :meth:`DecodingPolicy.allowed_mask` to prune automaton
edges — the paper's key optimisation, since eliminating a prefix
transitively eliminates every string sharing it (§3.3).
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass
from typing import Any

import numpy as np

__all__ = ["DecodingPolicy", "RowMemo", "RowVerdicts", "GREEDY", "UNRESTRICTED"]


@dataclass(frozen=True)
class DecodingPolicy:
    """Immutable decoding configuration.

    ``top_k`` keeps the k most likely tokens per step (``None`` disables);
    ``top_p`` keeps the smallest set of tokens with cumulative probability
    ≥ p (``None`` disables); ``temperature`` rescales log-probabilities
    before filtering.  Filters compose: a token must survive all of them.
    """

    top_k: int | None = None
    top_p: float | None = None
    temperature: float = 1.0

    def __post_init__(self) -> None:
        if self.top_k is not None and self.top_k < 1:
            raise ValueError("top_k must be >= 1")
        if self.top_p is not None and not (0.0 < self.top_p <= 1.0):
            raise ValueError("top_p must be in (0, 1]")
        if self.temperature <= 0.0:
            raise ValueError("temperature must be positive")

    def scaled_logprobs(self, logprobs: np.ndarray) -> np.ndarray:
        """Temperature-scaled, renormalised log-probabilities."""
        if self.temperature == 1.0:
            return logprobs
        scaled = logprobs / self.temperature
        scaled -= _logsumexp(scaled)
        return scaled

    def allowed_mask(self, logprobs: np.ndarray) -> np.ndarray:
        """Boolean mask of tokens admissible under the decision rule.

        A token is admissible iff it has non-zero probability and survives
        top-k and top-p truncation of the (temperature-scaled) distribution.
        """
        lp = self.scaled_logprobs(np.asarray(logprobs, dtype=float))
        mask = lp > -np.inf
        if self.top_k is not None and self.top_k < lp.size:
            kth = np.partition(lp, -self.top_k)[-self.top_k]
            mask &= lp >= kth
            # Guard against mass ties at the threshold exceeding k: keep the
            # k best by (logprob, index) order, matching sorted truncation.
            if int(mask.sum()) > self.top_k:
                order = np.lexsort((np.arange(lp.size), -lp))
                keep = np.zeros_like(mask)
                keep[order[: self.top_k]] = True
                mask &= keep
        if self.top_p is not None and self.top_p < 1.0:
            order = np.argsort(-lp, kind="stable")
            probs = np.exp(lp[order])
            cumulative = np.cumsum(probs)
            cutoff = int(np.searchsorted(cumulative, self.top_p)) + 1
            keep = np.zeros_like(mask)
            keep[order[:cutoff]] = True
            mask &= keep
        return mask

    def allowed_mask_for(self, logprobs: np.ndarray, token_ids: np.ndarray) -> np.ndarray:
        """Admissibility of just the *token_ids* subset — vectorized, and
        equal to ``allowed_mask(logprobs)[token_ids]`` by construction.

        The executor's array backend and external guided-generation callers
        usually only need the verdict for an automaton state's edge set.
        With only top-k active, the full O(V log V) mask construction is
        replaced by one O(V) threshold pass plus an O(|subset|) comparison;
        threshold ties (and top-p, whose cutoff needs the sorted
        distribution anyway) fall back to the exact full mask.
        """
        token_ids = np.asarray(token_ids, dtype=np.intp)
        lp = self.scaled_logprobs(np.asarray(logprobs, dtype=float))
        sub = lp[token_ids]
        mask = sub > -np.inf
        if self.top_k is None and (self.top_p is None or self.top_p >= 1.0):
            return mask
        if self.top_p is None or self.top_p >= 1.0:
            if self.top_k >= lp.size:
                return mask
            kth = np.partition(lp, -self.top_k)[-self.top_k]
            if int(np.count_nonzero(lp >= kth)) == self.top_k:
                return mask & (sub >= kth)
        # Ties at the top-k threshold or an active top-p rule: defer to the
        # reference mask so index-ordered tie-breaking stays exact.
        return self.allowed_mask(logprobs)[token_ids]

    def filtered_logprobs(self, logprobs: np.ndarray) -> np.ndarray:
        """Log-probabilities with disallowed tokens at ``-inf``,
        renormalised over the surviving support."""
        lp = self.scaled_logprobs(np.asarray(logprobs, dtype=float))
        mask = self.allowed_mask(logprobs)
        out = np.where(mask, lp, -np.inf)
        out -= _logsumexp(out)
        return out


class _RowEntry(weakref.ref[np.ndarray]):
    """A weak reference to a row carrying its memo key and memoised value."""

    __slots__ = ("key", "value")
    key: int
    value: Any


class RowMemo(dict[int, _RowEntry]):
    """Values memoised per live row object.

    Rows are the logits cache's shared, immutable arrays, so the memo is
    keyed by ``id(row)``: each entry is a weak reference to the row whose
    callback removes the entry when the row is freed.  The memo therefore
    holds one entry per live row and never keeps a row alive that the
    cache evicted (an ``id`` reused by a later row misses: its entry's
    referent is not that row).
    """

    def lookup(self, row: np.ndarray, default: Any = None) -> Any:
        """The value memoised for *row*, else *default*."""
        entry = self.get(id(row))
        if entry is None or entry() is not row:
            return default
        return entry.value

    def store(self, row: np.ndarray, value: Any) -> Any:
        """Memoise *value* for *row*; returns *value*."""
        entry = _RowEntry(row, self._forget)
        entry.key = id(row)
        entry.value = value
        self[entry.key] = entry
        return value

    def _forget(self, entry: _RowEntry) -> None:
        if self.get(entry.key) is entry:
            del self[entry.key]


#: :meth:`RowMemo.lookup`'s answer for a row it has not seen (a memoised
#: threshold may be ``None``).
_UNSEEN = object()


class RowVerdicts:
    """*policy* applied to rows, judging each distinct row once.

    ``verdicts(row)`` is ``(policy.scaled_logprobs(row),
    policy.allowed_mask(row))``.  Under a top-k rule without top-p the
    mask depends only on the row and ``k``: it is ``scaled >= kth`` for
    the row's k-th largest scaled log-probability (every finite entry when
    fewer than ``k`` are finite), except on a row that ties at ``kth``,
    where :meth:`DecodingPolicy.allowed_mask` breaks the tie by index.  So
    the threshold — or "ties" — is computed on the first sight of a row
    object and memoised in a :class:`RowMemo`; later sights cost one
    comparison.  Other rules (top-p) take
    :meth:`DecodingPolicy.allowed_mask` on every call.
    """

    def __init__(self, policy: DecodingPolicy) -> None:
        self.policy = policy
        self._top_k = policy.top_k if policy.top_p is None or policy.top_p >= 1.0 else None
        self._memo = RowMemo()

    def __call__(self, row: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        policy = self.policy
        scaled = policy.scaled_logprobs(row)
        if self._top_k is None:
            return scaled, policy.allowed_mask(row)
        kth = self._memo.lookup(row, _UNSEEN)
        if kth is _UNSEEN:
            kth = self._memo.store(row, self._threshold(scaled))
        if kth is None:
            return scaled, policy.allowed_mask(row)
        if kth == -np.inf:
            return scaled, scaled > -np.inf
        return scaled, scaled >= kth

    def _threshold(self, scaled: np.ndarray) -> float | None:
        """The k-th largest entry of *scaled* (``-inf`` when ``k`` covers
        the row), or ``None`` when more than ``k`` entries reach it."""
        k = self._top_k
        assert k is not None
        if k >= scaled.size:
            return -np.inf
        kth = float(np.partition(scaled, -k)[-k])
        if kth > -np.inf and int(np.count_nonzero(scaled >= kth)) > k:
            return None
        return kth

    def __len__(self) -> int:
        """Rows currently memoised (all of them alive)."""
        return len(self._memo)


def _logsumexp(x: np.ndarray) -> float:
    m = np.max(x)
    if not np.isfinite(m):
        return m
    return m + np.log(np.sum(np.exp(x - m)))


#: Greedy decoding (top-k = 1).
GREEDY = DecodingPolicy(top_k=1)

#: No filtering: the language of all strings with p > 0.
UNRESTRICTED = DecodingPolicy()
