"""Query preprocessors (§3.4): transducers over the Natural Language
Automaton.

Preprocessors rewrite the character-level query automaton before token
compilation.  The two the paper highlights are provided — Levenshtein
automata (edit-distance expansion) and filters (string removal) — plus a
generic transducer wrapper for custom rewrites.  Each preprocessor declares
whether it also rewrites the *prefix* language: edits do (prefix edits are
the subject of Figure 9), filters don't (removing strings from the prefix
would silently drop conditioning contexts; the paper defers filtering to
runtime for similar reasons).
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Iterable

from repro.automata.dfa import DFA
from repro.automata.levenshtein import levenshtein_expand
from repro.automata.transducer import FST, replace_fst

__all__ = [
    "Preprocessor",
    "LevenshteinPreprocessor",
    "FilterPreprocessor",
    "SuffixFilterPreprocessor",
    "IntersectionPreprocessor",
    "TransducerPreprocessor",
    "CaseFoldPreprocessor",
]


class Preprocessor:
    """Base class: a language-to-language rewrite of the query automaton."""

    #: Whether the rewrite also applies to the prefix language.
    applies_to_prefix: bool = True

    def apply(self, dfa: DFA) -> DFA:
        """Return the rewritten automaton."""
        raise NotImplementedError

    def cache_signature(self) -> tuple | None:
        """A hashable value identifying this rewrite for the compilation
        cache, or ``None`` when the rewrite is opaque (never shared).

        Two preprocessors with equal signatures must rewrite every automaton
        identically; the conservative default opts out of caching.
        """
        return None


@dataclass(frozen=True)
class LevenshteinPreprocessor(Preprocessor):
    """Expand the language to all strings within *distance* edits (§3.4).

    Distance-k expansion is the k-fold composition of the distance-1
    Levenshtein transducer; our construction carries the edit budget in the
    state, which is equivalent.
    """

    distance: int = 1
    applies_to_prefix: bool = True

    def apply(self, dfa: DFA) -> DFA:
        return levenshtein_expand(dfa, self.distance)

    def cache_signature(self) -> tuple:
        return ("levenshtein", self.distance)


@dataclass(frozen=True)
class FilterPreprocessor(Preprocessor):
    """Remove a set of strings from the language (map them to ε, §3.4).

    ``forbidden`` are exact strings to drop.  Used by the LAMBADA
    ``no_stop`` strategy to exclude stop-word completions.  Does not apply
    to the prefix.
    """

    forbidden: tuple[str, ...]
    applies_to_prefix: bool = False

    def __init__(self, forbidden: Iterable[str]) -> None:
        object.__setattr__(self, "forbidden", tuple(forbidden))

    def apply(self, dfa: DFA) -> DFA:
        if not self.forbidden:
            return dfa
        return dfa.difference(DFA.from_strings(self.forbidden)).minimized()

    def cache_signature(self) -> tuple:
        return ("filter", self.forbidden)


@functools.lru_cache(maxsize=16)
def _completion_language(forbidden: tuple[str, ...], trailing: tuple[str, ...]) -> DFA:
    """Minimal DFA of ``{word + tail}``.

    The same for every context a :class:`SuffixFilterPreprocessor` is built
    with (LAMBADA: one stop-word list, ~100 contexts), so it is built once
    per ``(forbidden, trailing)`` instead of once per query.  The cached
    automaton is shared: callers copy, never mutate.
    """
    return DFA.from_strings({word + tail for word in forbidden for tail in trailing})


@dataclass(frozen=True)
class SuffixFilterPreprocessor(Preprocessor):
    """Remove strings whose *completion after a literal prefix* is
    forbidden.

    The LAMBADA queries condition on a long context; what must be filtered
    is the completion, not the whole string.  A string
    ``prefix + w + t`` is dropped for every forbidden word ``w`` and every
    allowed trailing decoration ``t`` (e.g. optional punctuation/quotes the
    query pattern permits).
    """

    prefix: str
    forbidden: tuple[str, ...]
    trailing: tuple[str, ...] = ("",)
    applies_to_prefix: bool = False

    def __init__(
        self,
        prefix: str,
        forbidden: Iterable[str],
        trailing: Iterable[str] = ("",),
    ) -> None:
        object.__setattr__(self, "prefix", prefix)
        object.__setattr__(self, "forbidden", tuple(forbidden))
        object.__setattr__(self, "trailing", tuple(trailing))

    def apply(self, dfa: DFA) -> DFA:
        if not self.forbidden:
            return dfa
        # ``prefix`` as a chain of fresh states 0..len(prefix)-1 leading into
        # the shared completion automaton, whose ids shift up to make room.
        suffix = _completion_language(self.forbidden, self.trailing)
        shift = len(self.prefix)
        transitions = {
            src + shift: {ch: dst + shift for ch, dst in row.items()}
            for src, row in suffix.transitions.items()
        }
        for i, ch in enumerate(self.prefix):
            transitions[i] = {ch: i + 1 if i + 1 < shift else suffix.start + shift}
        variants = DFA(
            start=0 if shift else suffix.start,
            accepts=frozenset(q + shift for q in suffix.accepts),
            transitions=transitions,
        )
        return dfa.difference(variants).minimized()

    def cache_signature(self) -> tuple:
        return ("suffix_filter", self.prefix, self.forbidden, self.trailing)


@dataclass(frozen=True)
class TransducerPreprocessor(Preprocessor):
    """Apply an arbitrary :class:`repro.automata.transducer.FST` (§3.4's
    general mechanism)."""

    fst: FST
    applies_to_prefix: bool = True

    def apply(self, dfa: DFA) -> DFA:
        return self.fst.apply_dfa(dfa)


@dataclass(frozen=True)
class IntersectionPreprocessor(Preprocessor):
    """Constrain the query language to also match *pattern* (§2.3's
    language intersection as a preprocessor).

    Conjunctive constraints compose without blowing up the pattern
    string: e.g. restrict a free word slot to a length band with
    ``IntersectionPreprocessor(".{4,8}")``.
    """

    pattern: str
    applies_to_prefix: bool = False

    def apply(self, dfa: DFA) -> DFA:
        from repro.regex import compile_dfa

        return dfa.intersect(compile_dfa(self.pattern)).minimized()

    def cache_signature(self) -> tuple:
        return ("intersection", self.pattern)


@dataclass(frozen=True)
class CaseFoldPreprocessor(Preprocessor):
    """Expand each letter to both its cases (an *optional* rewrite).

    One of the paper's "domain-specific invariances": queries become
    case-insensitive without the user enumerating case variants.
    """

    applies_to_prefix: bool = True

    def apply(self, dfa: DFA) -> DFA:
        from repro.automata.alphabet import ALPHABET

        mapping: dict[str, str] = {}
        for ch in ALPHABET:
            if ch.isalpha():
                mapping[ch] = ch.swapcase()
        fst = replace_fst(mapping, ALPHABET)
        return fst.apply_dfa(dfa)

    def cache_signature(self) -> tuple:
        return ("casefold",)
