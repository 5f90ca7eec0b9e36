from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import decode, encode
from vtlm import bpe
from vtlm.bpe import BpeCodec, Vocab, learn_bpe
from vtlm.errors import ConfigError, DataError


def oracle_merges(word_freqs: dict[str, int], num_merges: int):
    """Brute-force pair counting, written independently of vtlm.bpe."""
    vocab = {tuple(w) + ("</w>",): f for w, f in word_freqs.items()}
    merges = []
    for _ in range(num_merges):
        counts = Counter()
        for syms, f in vocab.items():
            for i in range(len(syms) - 1):
                counts[(syms[i], syms[i + 1])] += f
        if not counts:
            break
        top = max(counts.values())
        pair = sorted(p for p, c in counts.items() if c == top)[0]
        merges.append(pair)
        new_vocab = {}
        for syms, f in vocab.items():
            out, i = [], 0
            while i < len(syms):
                if i + 1 < len(syms) and (syms[i], syms[i + 1]) == pair:
                    out.append(syms[i] + syms[i + 1])
                    i += 2
                else:
                    out.append(syms[i])
                    i += 1
            new_vocab[tuple(out)] = new_vocab.get(tuple(out), 0) + f
        vocab = new_vocab
    return merges


class TestLearn:
    def test_unique_most_frequent_pair(self):
        assert learn_bpe(["aaab"], 1) == [("a", "a")]

    def test_no_pairs_gives_empty_table(self):
        # single-character words only pair with the end marker; after one
        # merge per word nothing of higher frequency remains -- use truly
        # pairless input: empty after exhausting
        merges = learn_bpe(["a b c"], 10)
        # each word contributes exactly one (char, </w>) pair of count 1
        assert len(merges) <= 6

    def test_zero_merges_rejected(self):
        with pytest.raises(ConfigError):
            learn_bpe(["ab"], 0)

    def test_against_pair_counting_oracle(self):
        freqs = {"low": 5, "lower": 2, "newest": 6, "widest": 3}
        corpus = [" ".join([w] * f) for w, f in freqs.items()]
        got = learn_bpe(corpus, 4)
        assert got == oracle_merges(freqs, 4)
        # frozen expected sequence, computed with the oracle before wiring
        # it into this test
        assert got == [("e", "s"), ("es", "t"), ("est", "</w>"), ("l", "o")]

    def test_learning_is_joint_over_input(self):
        merges = learn_bpe(["xyxy", "xyxy"], 1)
        assert merges == [("x", "y")]


class TestCodec:
    def test_roundtrip_identity_on_training_corpus(self):
        sentences = ["a red dog and a blue cat .", "e son mep uwm e lvio xuf ."]
        codec = BpeCodec.learn(sentences, 30)
        for s in sentences:
            assert decode(codec, encode(codec, s)) == s

    def test_no_unk_on_training_corpus(self):
        sentences = ["the quick brown fox", "jumps over the lazy dog"]
        codec = BpeCodec.learn(sentences, 50)
        for s in sentences:
            assert bpe.UNK not in encode(codec, s)

    def test_unknown_symbol_maps_to_unk(self):
        codec = BpeCodec.learn(["ab ab"], 5)
        assert bpe.UNK in encode(codec, "zq")

    def test_reserved_ids_fixed(self):
        codec = BpeCodec.learn(["hello world"], 5)
        assert codec.vocab.tokens[:6] == list(bpe.RESERVED_TOKENS)
        assert codec.vocab.id_of("[MASK]") == bpe.MASK == 1
        assert codec.vocab.id_of("[PAD]") == bpe.PAD == 0

    @given(
        st.lists(
            st.text(alphabet="abcdef", min_size=1, max_size=8),
            min_size=1,
            max_size=12,
        )
    )
    @settings(max_examples=60, deadline=None)
    def test_roundtrip_property(self, words):
        sentence = " ".join(words)
        codec = BpeCodec.learn([sentence], 25)
        assert decode(codec, encode(codec, sentence)) == sentence


def test_vocab_rejects_bad_reserved_prefix():
    with pytest.raises(DataError):
        Vocab(["x", "y"])



def test_detokenize_strips_markers():
    symbols = ["lo", "w</w>", "c", "at</w>"]
    codec = BpeCodec([], Vocab(list(bpe.RESERVED_TOKENS) + symbols))
    ids = [codec.vocab.id_of(s) for s in symbols]
    assert decode(codec, ids) == "low cat"
