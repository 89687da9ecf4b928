"""Tests for the BPE tokenizer (repro.tokenizers)."""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.automata.alphabet import ALPHABET, is_alphabet_string
from repro.tokenizers.bpe import BPETokenizer, pretokenize, train_bpe
from repro.tokenizers.vocab import EOS_TOKEN, Vocabulary
from tests.reference import canonical_by_pair_rule

_TEXT = st.text(alphabet="".join(ALPHABET), max_size=40)


class TestAlphabetCheck:
    def test_empty_full_and_one_foreign_character(self):
        assert is_alphabet_string("")
        assert is_alphabet_string("".join(ALPHABET))
        assert not is_alphabet_string("caf\N{LATIN SMALL LETTER E WITH ACUTE}")
        assert not is_alphabet_string("tab\there")


class TestPretokenize:
    def test_lossless(self):
        for text in ["The cat sat.", "a  b", "x7y", "hello, world!", " lead", "trail "]:
            assert "".join(pretokenize(text)) == text

    def test_keeps_leading_space_on_words(self):
        assert pretokenize("a cat") == ["a", " cat"]

    def test_digits_split_from_letters(self):
        assert pretokenize("ab12") == ["ab", "12"]

    @settings(max_examples=100, deadline=None)
    @given(text=_TEXT)
    def test_lossless_property(self, text):
        assert "".join(pretokenize(text)) == text


class TestVocabulary:
    def test_build_and_lookup(self):
        v = Vocabulary.build(["a", "b", "ab"])
        assert v.id_of("ab") == 2
        assert v.token_of(0) == "a"
        assert len(v) == 4  # 3 ordinary + eos

    def test_eos_is_special(self):
        v = Vocabulary.build(["a"])
        assert v.is_special(v.eos_id)
        assert not v.is_special(v.id_of("a"))

    def test_duplicate_token_rejected(self):
        with pytest.raises(ValueError):
            Vocabulary.build(["a", "a"])

    def test_empty_token_rejected(self):
        with pytest.raises(ValueError):
            Vocabulary.build([""])

    def test_decode_skips_specials(self):
        v = Vocabulary.build(["hi"])
        assert v.decode([v.id_of("hi"), v.eos_id]) == "hi"

    def test_ordinary_items_excludes_specials(self):
        v = Vocabulary.build(["a", "b"])
        assert EOS_TOKEN not in dict(v.ordinary_items())


class TestTraining:
    def test_deterministic(self):
        corpus = ["the cat sat on the mat"] * 20
        t1 = train_bpe(corpus, vocab_size=150)
        t2 = train_bpe(corpus, vocab_size=150)
        assert t1.merges == t2.merges
        assert t1.vocab.tokens == t2.vocab.tokens

    def test_frequent_words_become_tokens(self):
        corpus = ["the cat sat on the mat", "the cat ate the hat"] * 50
        tok = train_bpe(corpus, vocab_size=200)
        assert len(tok.encode(" cat")) == 1

    def test_vocab_contains_all_base_chars(self):
        tok = train_bpe(["ab"], vocab_size=120)
        for ch in ALPHABET:
            assert ch in tok.vocab

    def test_too_small_vocab_rejected(self):
        with pytest.raises(ValueError):
            train_bpe(["ab"], vocab_size=10)

    def test_stops_when_no_repeating_pairs(self):
        tok = train_bpe(["xyzq"], vocab_size=500)
        assert len(tok) < 500  # merges saturate early on a tiny corpus


class TestEncodeDecode:
    def test_roundtrip_known(self, tokenizer):
        for text in ["The cat sat on the mat.", "https://www.example.com",
                     "My phone number is 555 123 4567."]:
            assert tokenizer.decode(tokenizer.encode(text)) == text

    def test_outside_alphabet_rejected(self, tokenizer):
        with pytest.raises(ValueError):
            tokenizer.encode("emoji: \N{SNOWMAN}")

    @settings(max_examples=150, deadline=None)
    @given(text=_TEXT)
    def test_roundtrip_property(self, text):
        tok = _SHARED
        assert tok.decode(tok.encode(text)) == text

    def test_empty_text(self, tokenizer):
        assert tokenizer.encode("") == []
        assert tokenizer.decode([]) == ""


class TestCanonicality:
    def test_canonical_encoding_is_canonical(self, tokenizer):
        ids = tokenizer.encode("The cat sat.")
        assert tokenizer.is_canonical(ids)

    def test_char_split_is_not_canonical(self, tokenizer):
        ids = [tokenizer.vocab.id_of(c) for c in "The"]
        # "The" merges in this vocab, so the char-by-char form is ambiguous.
        if len(tokenizer.encode("The")) < 3:
            assert not tokenizer.is_canonical(ids)

    def test_eos_ignored_by_canonical_check(self, tokenizer):
        ids = tokenizer.encode("The cat") + [tokenizer.eos_id]
        assert tokenizer.is_canonical(ids)

    def test_canonical_prefix_accepts_partial_chunks(self, tokenizer):
        """Every prefix of a canonical encoding passes the pair rule, so
        the canonical product keeps the path while its last chunk grows."""
        full = tokenizer.encode("The cat sat.")
        for i in range(len(full) + 1):
            assert canonical_by_pair_rule(tokenizer, full[:i]), full[:i]

    def test_noncanonical_interior_rejected_as_prefix(self, tokenizer):
        the = tokenizer.encode("The")
        if len(the) == 1:
            chars = [tokenizer.vocab.id_of(c) for c in "The"]
            suffix = tokenizer.encode(" cat")
            assert not canonical_by_pair_rule(tokenizer, chars + suffix)

    def test_encode_noncanonical_roundtrips(self, tokenizer):
        rng = random.Random(0)
        text = "The cat sat on the mat."
        ids = tokenizer.encode_noncanonical(text, rng)
        assert tokenizer.decode(ids) == text
        assert not tokenizer.is_canonical(ids)

    @settings(max_examples=80, deadline=None)
    @given(text=_TEXT, seed=st.integers(0, 100))
    def test_noncanonical_still_decodes(self, text, seed):
        tok = _SHARED
        ids = tok.encode_noncanonical(text, random.Random(seed))
        assert tok.decode(ids) == text


class TestSerialisation:
    def test_json_roundtrip(self, tokenizer):
        clone = BPETokenizer.from_json(tokenizer.to_json())
        for text in ["The cat", "abc 123", "x"]:
            assert clone.encode(text) == tokenizer.encode(text)
        assert clone.eos_id == tokenizer.eos_id


#: Module-level tokenizer for hypothesis tests (fixtures don't mix with
#: @given cleanly).
_SHARED = train_bpe(
    ["The cat sat on the mat.", "the dog ate 123 things!", "a b c d e"] * 20,
    vocab_size=200,
)


def _bpe_chunk_reference(tokenizer, chunk):
    """The textbook rescan merge loop: global lowest-rank pair, leftmost
    occurrence, recomputed from scratch after every merge.  The production
    heap + linked-list implementation must match it exactly."""
    parts = list(chunk)
    while len(parts) > 1:
        best_rank = None
        best_index = -1
        for i in range(len(parts) - 1):
            rank = tokenizer._ranks.get((parts[i], parts[i + 1]))
            if rank is not None and (best_rank is None or rank < best_rank):
                best_rank = rank
                best_index = i
        if best_rank is None:
            break
        parts[best_index : best_index + 2] = [parts[best_index] + parts[best_index + 1]]
    return tuple(tokenizer.vocab.id_of(p) for p in parts)


class TestHeapMergeEquivalence:
    @settings(max_examples=200, deadline=None)
    @given(text=_TEXT)
    def test_heap_merge_matches_rescan_reference(self, text):
        tok = _SHARED
        for chunk in pretokenize(text):
            tok._cache.pop(chunk, None)  # force the real merge path
            assert tok._bpe_chunk(chunk) == _bpe_chunk_reference(tok, chunk)

    def test_long_single_chunk(self):
        chunk = "thecatsatonthematthedogatethings" * 3
        _SHARED._cache.pop(chunk, None)
        assert _SHARED._bpe_chunk(chunk) == _bpe_chunk_reference(_SHARED, chunk)


#: Characters of the random training corpora below: letters that merge
#: into words, runs of spaces, digits, punctuation and newlines, so the
#: pretokenizer's chunk kinds (leading-space words, digit runs, symbol
#: runs, bare spaces, newline runs) all appear.
_PAIR_CORPUS_CHARS = "abcab   12.,!\n"


def _random_segmentation(data, tokenizer, text):
    """A random split of *text* into vocabulary tokens, longest piece
    first so shrinking moves toward the greedy (often canonical) split."""
    vocab = tokenizer.vocab
    longest = max(len(t) for t in vocab.tokens)
    ids = []
    pos = 0
    while pos < len(text):
        options = [
            vocab.id_of(text[pos:pos + n])
            for n in range(min(longest, len(text) - pos), 0, -1)
            if text[pos:pos + n] in vocab
        ]
        ids.append(data.draw(st.sampled_from(options)))
        pos += len(vocab.token_of(ids[-1]))
    return ids


class TestCanonicalPairRule:
    """BPE canonicity is local: a sequence is canonical iff its first
    token is canonical on its own and every later token passes
    :meth:`~repro.tokenizers.bpe.BPETokenizer.may_follow` against the one
    before — its pair is canonical, or the one before is made of spaces,
    follows a space, and the token does not start with a space (DESIGN.md,
    "canonical pair rule").  The space case is this repo's pretokenizer:
    its ``" +"`` takes a whole run of spaces, so the run's last space is a
    token of its own before a word or digit, while the same pair alone
    decodes to one ``" ?[0-9]+"``-style chunk.  ``compile_canonical``'s
    product accepts exactly the sequences the rule accepts, so these
    properties pin it to ``is_canonical`` in both directions.
    """

    @settings(max_examples=300, deadline=None)
    @given(data=st.data())
    def test_pairs_decide_canonicity_but_at_space_runs(self, data):
        lines = data.draw(
            st.lists(
                st.text(alphabet=_PAIR_CORPUS_CHARS, min_size=1, max_size=16),
                min_size=1, max_size=8,
            )
        )
        merges = data.draw(st.integers(1, 40))
        tokenizer = train_bpe(lines, vocab_size=len(ALPHABET) + 1 + merges)
        self._check_rule(data, tokenizer, " ".join(lines))

    @settings(max_examples=300, deadline=None)
    @given(data=st.data())
    def test_rule_decides_canonicity_on_the_environment_tokenizer(self, env, data):
        lines = env.corpus.lines
        self._check_rule(data, env.tokenizer, lines[data.draw(st.integers(0, len(lines) - 1))])

    @staticmethod
    def _check_rule(data, tokenizer, text):
        """A random 2–14-character piece of *text*, canonically encoded or
        randomly segmented: the rule holds on each prefix of the ids iff
        ``is_canonical`` does."""
        start = data.draw(st.integers(0, max(len(text) - 2, 0)))
        sub = text[start:start + data.draw(st.integers(2, 14))]
        if data.draw(st.booleans()):
            ids = tokenizer.encode(sub)
        else:
            ids = _random_segmentation(data, tokenizer, sub)
        tokens = [tokenizer.vocab.token_of(t) for t in ids]
        for end in range(len(ids) + 1):
            head = ids[:end]
            assert canonical_by_pair_rule(tokenizer, head) is tokenizer.is_canonical(head), (
                tokens[:end]
            )

    def test_space_run_counterexample(self):
        """The pinned counterexample: with the one merge ``" " + "1"``,
        ``" 1  1"`` encodes as ``[" 1", " ", " ", "1"]`` (chunks ``" 1"``,
        ``"  "``, ``"1"``), yet its last pair ``(" ", "1")`` alone is the
        chunk ``" 1"``, whose encoding is the one token ``" 1"``."""
        tokenizer = train_bpe([" 1", " 1"], vocab_size=len(ALPHABET) + 2)
        assert tokenizer.merges == [(" ", "1")]
        ids = tokenizer.encode(" 1  1")
        assert [tokenizer.vocab.token_of(t) for t in ids] == [" 1", " ", " ", "1"]
        assert tokenizer.is_canonical(ids)
        assert not tokenizer.is_canonical(ids[2:])
        assert canonical_by_pair_rule(tokenizer, ids)
        assert not canonical_by_pair_rule(tokenizer, ids[2:])
