"""Formal-language substrate: alphabets, NFAs, DFAs, the partition-refinement
minimization kernel, tries, transducers, Levenshtein automata, and walk
counting.

This package is the classical-automata layer of the reproduction; it knows
nothing about tokens or language models.  :mod:`repro.core` lowers these
character automata into token space.
"""

from repro.automata.alphabet import ALPHABET, ALPHABET_SET
from repro.automata.dfa import DFA
from repro.automata.levenshtein import levenshtein_expand
from repro.automata.nfa import NFA, nfa_from_ast
from repro.automata.transducer import FST, identity_fst, replace_fst
from repro.automata.trie import Trie
from repro.automata.visualize import dfa_to_dot, token_automaton_to_dot
from repro.automata.walks import WalkCounter, count_accepting_walks, sample_uniform_string

__all__ = [
    "ALPHABET",
    "ALPHABET_SET",
    "DFA",
    "NFA",
    "nfa_from_ast",
    "Trie",
    "dfa_to_dot",
    "token_automaton_to_dot",
    "FST",
    "identity_fst",
    "replace_fst",
    "levenshtein_expand",
    "WalkCounter",
    "count_accepting_walks",
    "sample_uniform_string",
]
