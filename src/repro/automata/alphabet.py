"""The character alphabet shared by regexes, automata, and tokenizers.

The paper's prototype operates over GPT-2's byte-level Unicode alphabet and
handles BPE byte-chunking in the graph compiler (Appendix B).  This
reproduction fixes the alphabet to printable ASCII plus newline, which is
sufficient for every experiment in the paper while keeping the automata
algorithms identical.  All automata in :mod:`repro.automata` label edges with
single characters drawn from :data:`ALPHABET`.
"""

from __future__ import annotations

__all__ = [
    "ALPHABET",
    "ALPHABET_SET",
    "DIGITS",
    "LOWER",
    "UPPER",
    "WORD_CHARS",
    "WHITESPACE",
    "is_alphabet_string",
]

#: Printable ASCII (0x20..0x7E) plus newline, in codepoint order.
ALPHABET: tuple[str, ...] = tuple(chr(c) for c in range(0x20, 0x7F)) + ("\n",)

#: Same characters as :data:`ALPHABET`, as a set for O(1) membership checks.
ALPHABET_SET: frozenset[str] = frozenset(ALPHABET)

#: Decimal digit characters.
DIGITS: frozenset[str] = frozenset("0123456789")

#: Lowercase ASCII letters.
LOWER: frozenset[str] = frozenset("abcdefghijklmnopqrstuvwxyz")

#: Uppercase ASCII letters.
UPPER: frozenset[str] = frozenset("ABCDEFGHIJKLMNOPQRSTUVWXYZ")

#: Characters matched by the regex class ``\w``.
WORD_CHARS: frozenset[str] = DIGITS | LOWER | UPPER | frozenset("_")

#: Characters matched by the regex class ``\s``.
WHITESPACE: frozenset[str] = frozenset(" \t\n")


def is_alphabet_string(text: str) -> bool:
    """Return ``True`` iff every character of *text* is in the alphabet."""
    return ALPHABET_SET.issuperset(text)
