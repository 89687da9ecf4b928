"""Vocabulary: the id <-> string mapping shared by tokenizers and LMs.

Token ids are dense integers.  Ordinary tokens are non-empty strings over
the character alphabet; special tokens (end-of-sequence, padding) carry
sentinel names like ``<eos>`` and never appear inside encoded text — the
graph compiler and executor treat them structurally (e.g. EOS terminates a
query match, §3.3).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Iterator

from repro.automata.alphabet import is_alphabet_string

__all__ = ["Vocabulary", "EOS_TOKEN"]

#: Canonical name of the end-of-sequence special token.
EOS_TOKEN = "<eos>"


@dataclass
class Vocabulary:
    """An ordered token vocabulary with special-token bookkeeping."""

    tokens: list[str] = field(default_factory=list)
    special_tokens: set[str] = field(default_factory=set)

    def __post_init__(self) -> None:
        self._ids: dict[str, int] = {}
        for i, tok in enumerate(self.tokens):
            if tok in self._ids:
                raise ValueError(f"duplicate token {tok!r}")
            self._ids[tok] = i
        for tok in self.special_tokens:
            if tok not in self._ids:
                raise ValueError(f"special token {tok!r} not in vocabulary")
        #: Ids of the special tokens.
        self.special_ids = frozenset(self._ids[tok] for tok in self.special_tokens)
        #: What each id decodes to: its string, or ``""`` for a special.
        self._text_of = ["" if tok in self.special_tokens else tok for tok in self.tokens]

    # -- construction --------------------------------------------------------
    @classmethod
    def build(cls, tokens: Iterable[str], specials: Iterable[str] = (EOS_TOKEN,)) -> "Vocabulary":
        """Build a vocabulary from ordinary *tokens* plus *specials*.

        Specials are appended after ordinary tokens, so ordinary token ids
        are stable under changes to the special set.
        """
        ordinary = list(tokens)
        for tok in ordinary:
            if not tok:
                raise ValueError("empty token")
            if not is_alphabet_string(tok):
                raise ValueError(f"token {tok!r} contains characters outside the alphabet")
        specials = list(specials)
        return cls(tokens=ordinary + specials, special_tokens=set(specials))

    # -- lookups ---------------------------------------------------------------
    def __len__(self) -> int:
        return len(self.tokens)

    def __contains__(self, token: str) -> bool:
        return token in self._ids

    def id_of(self, token: str) -> int:
        """Id of *token*; raises KeyError if absent."""
        return self._ids[token]

    def token_of(self, token_id: int) -> str:
        """String of *token_id*; raises IndexError if out of range."""
        return self.tokens[token_id]

    @property
    def eos_id(self) -> int:
        """Id of the end-of-sequence token."""
        return self._ids[EOS_TOKEN]

    def is_special(self, token_id: int) -> bool:
        """True iff *token_id* names a special token."""
        return self.tokens[token_id] in self.special_tokens

    def ordinary_items(self) -> Iterator[tuple[str, int]]:
        """Yield ``(string, id)`` for every non-special token."""
        for i, tok in enumerate(self.tokens):
            if tok not in self.special_tokens:
                yield tok, i

    def decode(self, token_ids: Iterable[int]) -> str:
        """Concatenate token strings, skipping specials."""
        return "".join(map(self._text_of.__getitem__, token_ids))
