"""Byte-pair-encoding tokenizer (GPT-2 style, character level).

This is the tokenization substrate standing in for GPT-2's 50257-token BPE.
It keeps every property the paper's graph compiler exploits:

* the base vocabulary contains every alphabet character, so every string has
  at least one encoding and a string of length n has up to 2^(n-1) ambiguous
  token partitions (§3.2);
* merges learned from data produce multi-character tokens that overlap
  subwords across word boundaries ("art" inside "artificial");
* the *canonical* encoding is the one produced by :meth:`BPETokenizer.encode`
  and is stable under repeated encode/decode round trips.

Pre-tokenization mirrors GPT-2: text is split into word-like chunks that keep
their leading space, and merges never cross chunk boundaries.
"""

from __future__ import annotations

import heapq
import json
import re as _re
from collections import Counter
from dataclasses import dataclass
from typing import Iterable, Sequence

from repro.automata.alphabet import ALPHABET_SET, is_alphabet_string
from repro.tokenizers.vocab import EOS_TOKEN, Vocabulary

__all__ = ["BPETokenizer", "train_bpe"]

#: GPT-2-like pre-tokenization: a chunk is an optional leading space plus a
#: run of letters, digits, or other non-space characters; bare whitespace
#: runs form their own chunks.
_PRETOKEN_RE = _re.compile(r" ?[A-Za-z]+| ?[0-9]+| ?[^A-Za-z0-9 \n]+|\n+| +")


def pretokenize(text: str) -> list[str]:
    """Split *text* into BPE chunks (lossless: ``''.join`` restores text)."""
    chunks = _PRETOKEN_RE.findall(text)
    if "".join(chunks) != text:
        raise ValueError(f"pre-tokenizer lost characters in {text!r}")
    return chunks


@dataclass
class BPETokenizer:
    """A trained BPE tokenizer: merge list + vocabulary.

    ``merges`` is the learned merge sequence in priority order; ``vocab``
    contains every base character, every merge product, and the specials.
    """

    vocab: Vocabulary
    merges: list[tuple[str, str]]

    def __post_init__(self) -> None:
        self._ranks = {pair: i for i, pair in enumerate(self.merges)}
        self._cache: dict[str, tuple[int, ...]] = {}
        self._pairs: dict[tuple[int | None, int], bool] = {}

    # -- core encode/decode ----------------------------------------------------
    def _bpe_chunk(self, chunk: str) -> tuple[int, ...]:
        """Canonical BPE encoding of one pre-token chunk.

        Merges are applied lowest rank first, leftmost occurrence first,
        via a heap over a linked list of parts — O(n log n) per chunk
        instead of rescanning every adjacent pair after each merge.  Stale
        heap entries (whose pair changed under them) are detected by
        re-checking the current pair's rank: ranks are unique per pair, so
        an entry is valid iff its recorded rank still matches.
        """
        cached = self._cache.get(chunk)
        if cached is not None:
            return cached
        parts = list(chunk)
        n = len(parts)
        if n > 1:
            ranks = self._ranks
            prev = list(range(-1, n - 1))
            nxt = list(range(1, n + 1))  # index n acts as the end sentinel
            alive = [True] * n
            heap = []
            for i in range(n - 1):
                rank = ranks.get((parts[i], parts[i + 1]))
                if rank is not None:
                    heap.append((rank, i))
            heapq.heapify(heap)
            while heap:
                rank, i = heapq.heappop(heap)
                if not alive[i]:
                    continue
                j = nxt[i]
                if j >= n:
                    continue
                if ranks.get((parts[i], parts[j])) != rank:
                    continue  # stale: a neighbour was merged since the push
                parts[i] = parts[i] + parts[j]
                alive[j] = False
                k = nxt[j]
                nxt[i] = k
                if k < n:
                    prev[k] = i
                    r = ranks.get((parts[i], parts[k]))
                    if r is not None:
                        heapq.heappush(heap, (r, i))
                p = prev[i]
                if p >= 0:
                    r = ranks.get((parts[p], parts[i]))
                    if r is not None:
                        heapq.heappush(heap, (r, p))
            parts = [parts[i] for i in range(n) if alive[i]]
        ids = tuple(self.vocab.id_of(p) for p in parts)
        self._cache[chunk] = ids
        return ids

    def encode(self, text: str) -> list[int]:
        """Canonical token-id encoding of *text* (§3.2's canonical form)."""
        if not is_alphabet_string(text):
            raise ValueError(f"text contains characters outside the alphabet: {text!r}")
        ids: list[int] = []
        for chunk in pretokenize(text):
            ids.extend(self._bpe_chunk(chunk))
        return ids

    def decode(self, token_ids: Iterable[int]) -> str:
        """Inverse of any (canonical or not) encoding; specials are dropped."""
        return self.vocab.decode(token_ids)

    # -- canonicality ----------------------------------------------------------
    def is_canonical(self, token_ids: Sequence[int], text: str | None = None) -> bool:
        """True iff *token_ids* is exactly the canonical encoding of the
        string it decodes to.  Specials (EOS) are ignored.  A caller that
        has already decoded the tokens passes the string as *text*.

        Compared chunk by chunk against the cached per-chunk encodings, so
        no encoding is assembled and the walk stops at the first chunk
        that differs.  Ordinary tokens are non-empty, so ids that agree on
        every chunk cover the text exactly.
        """
        specials = self.vocab.special_ids
        ids = tuple(token_ids)
        if not specials.isdisjoint(ids):
            ids = tuple(t for t in ids if t not in specials)
        pos = 0
        for chunk in pretokenize(self.decode(ids) if text is None else text):
            expected = self._cache.get(chunk) or self._bpe_chunk(chunk)
            if ids[pos:pos + len(expected)] != expected:
                return False
            pos += len(expected)
        return pos == len(ids)

    def may_follow(self, last: int | None, after_space: bool, token_id: int) -> bool:
        """True iff *token_id* may follow *last* (``None`` at the start) in
        a canonical encoding; *after_space*: a space precedes *last*.

        The exact local rule (DESIGN.md, "canonical pair rule"): the pair
        must be canonical (memoised), save that the pretokenizer's ``" +"``
        takes a whole run of spaces, so a token of spaces after a space may
        precede any token not starting with a space."""
        key = (last, token_id)
        ok = self._pairs.get(key)
        if ok is None:
            ok = self._pairs[key] = self.is_canonical(
                (token_id,) if last is None else key  # type: ignore[arg-type]
            )
        if ok or not after_space:
            return ok
        text = self.vocab.token_of
        return not text(last).strip(" ") and not text(token_id).startswith(" ")  # type: ignore[arg-type]

    def encode_noncanonical(self, text: str, rng) -> list[int]:
        """One *non-canonical* encoding of *text*: the canonical encoding
        with a single random multi-character token split in two.

        Used to plant tokenization noise in training corpora (see
        DESIGN.md): GPT-2's training data contains alternative encodings of
        the same surface strings, which is why 2–3% of its free samples are
        non-canonical (§3.2); a toy-scale corpus has to inject that
        diversity explicitly.  Returns the canonical encoding when no token
        is splittable.
        """
        ids = self.encode(text)
        candidates = [
            i for i, tid in enumerate(ids) if len(self.vocab.token_of(tid)) >= 2
        ]
        rng.shuffle(candidates)
        for i in candidates:
            token = self.vocab.token_of(ids[i])
            splits = list(range(1, len(token)))
            rng.shuffle(splits)
            for at in splits:
                left, right = token[:at], token[at:]
                if left in self.vocab and right in self.vocab:
                    return (
                        ids[:i]
                        + [self.vocab.id_of(left), self.vocab.id_of(right)]
                        + ids[i + 1 :]
                    )
        return ids

    @property
    def eos_id(self) -> int:
        """Id of the end-of-sequence token."""
        return self.vocab.eos_id

    def __len__(self) -> int:
        return len(self.vocab)

    def fingerprint(self) -> str:
        """Stable digest of the tokenizer's vocabulary and merge list.

        Two tokenizers with equal fingerprints produce identical encodings,
        so compiled token automata are interchangeable between them — this
        is the tokenizer component of the compilation-cache key.
        """
        if not hasattr(self, "_fingerprint"):
            import hashlib

            digest = hashlib.sha256(self.to_json().encode("utf-8")).hexdigest()
            self._fingerprint = digest[:16]
        return self._fingerprint

    # -- persistence -------------------------------------------------------------
    def to_json(self) -> str:
        """Serialise tokenizer state (merges + vocab) to JSON."""
        return json.dumps(
            {
                "tokens": self.vocab.tokens,
                "specials": sorted(self.vocab.special_tokens),
                "merges": [list(m) for m in self.merges],
            }
        )

    @classmethod
    def from_json(cls, payload: str) -> "BPETokenizer":
        """Inverse of :meth:`to_json`."""
        data = json.loads(payload)
        vocab = Vocabulary(tokens=list(data["tokens"]), special_tokens=set(data["specials"]))
        merges = [tuple(m) for m in data["merges"]]
        return cls(vocab=vocab, merges=merges)


def train_bpe(
    corpus: Iterable[str],
    vocab_size: int = 512,
    specials: Sequence[str] = (EOS_TOKEN,),
) -> BPETokenizer:
    """Learn BPE merges from *corpus* lines until the vocabulary reaches
    *vocab_size* (including base characters and specials).

    Standard algorithm: start from single characters, repeatedly merge the
    most frequent adjacent pair within pre-token chunks.  Deterministic: ties
    break on lexicographic pair order.
    """
    base = sorted(ALPHABET_SET)
    if vocab_size < len(base) + len(specials):
        raise ValueError(
            f"vocab_size {vocab_size} smaller than base alphabet + specials "
            f"({len(base) + len(specials)})"
        )
    chunk_freq: Counter[str] = Counter()
    for line in corpus:
        for chunk in pretokenize(line):
            chunk_freq[chunk] += 1
    # Each chunk is a mutable list of current parts.
    words: list[tuple[list[str], int]] = [(list(chunk), freq) for chunk, freq in chunk_freq.items()]

    merges: list[tuple[str, str]] = []
    vocab_tokens = list(base)
    seen = set(vocab_tokens)
    target_merges = vocab_size - len(base) - len(specials)
    while len(merges) < target_merges:
        pair_freq: Counter[tuple[str, str]] = Counter()
        for parts, freq in words:
            for i in range(len(parts) - 1):
                pair_freq[(parts[i], parts[i + 1])] += freq
        if not pair_freq:
            break
        best_count = max(pair_freq.values())
        if best_count < 2:
            break  # no pair repeats; further merges would just memorise noise
        best_pair = min(p for p, c in pair_freq.items() if c == best_count)
        merges.append(best_pair)
        merged = best_pair[0] + best_pair[1]
        if merged not in seen:
            seen.add(merged)
            vocab_tokens.append(merged)
        for parts, _ in words:
            i = 0
            while i < len(parts) - 1:
                if parts[i] == best_pair[0] and parts[i + 1] == best_pair[1]:
                    parts[i : i + 2] = [merged]
                else:
                    i += 1
    vocab = Vocabulary.build(vocab_tokens, specials)
    return BPETokenizer(vocab=vocab, merges=merges)
