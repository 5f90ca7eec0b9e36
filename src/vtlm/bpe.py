"""Joint byte-pair encoding over both languages of the parallel corpus.

Learning is the classic iterative scheme: split words into characters
plus an end-of-word marker, repeatedly merge the most frequent adjacent
symbol pair, ties broken by lexicographic pair order. The same merge
table segments both languages (it is learned on their concatenation),
and segmentation is lossless: joining the symbols of a word and
stripping the marker reproduces the word.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field

from .errors import ConfigError, DataError

EOW = "</w>"

PAD, MASK, BOS, EOS, UNK, SEP = 0, 1, 2, 3, 4, 5
RESERVED_TOKENS = ("[PAD]", "[MASK]", "[BOS]", "[EOS]", "[UNK]", "[SEP]")
NUM_RESERVED = len(RESERVED_TOKENS)

# language ids for the three input segments
LANG_L1, LANG_L2, LANG_VIS = 0, 1, 2


def _word_symbols(word: str) -> tuple[str, ...]:
    return tuple(word) + (EOW,)


def _count_pairs(vocab: dict[tuple[str, ...], int]) -> Counter:
    pairs: Counter = Counter()
    for syms, freq in vocab.items():
        for a, b in zip(syms, syms[1:]):
            pairs[(a, b)] += freq
    return pairs


def _merge_word(syms: tuple[str, ...], pair: tuple[str, str]) -> tuple[str, ...]:
    a, b = pair
    merged = a + b
    out = []
    i = 0
    while i < len(syms):
        if i + 1 < len(syms) and syms[i] == a and syms[i + 1] == b:
            out.append(merged)
            i += 2
        else:
            out.append(syms[i])
            i += 1
    return tuple(out)


def learn_bpe(sentences: list[str], num_merges: int) -> list[tuple[str, str]]:
    """Learn a merge table from whitespace-tokenised sentences."""
    if num_merges <= 0:
        raise ConfigError("num_merges must be positive")
    if not sentences:
        raise ConfigError("cannot learn BPE from an empty corpus")
    word_freq = Counter()
    for s in sentences:
        word_freq.update(s.split())
    vocab = {_word_symbols(w): f for w, f in word_freq.items()}
    pairs = _count_pairs(vocab)  # kept current: a merge recounts only the words it changed
    merges: list[tuple[str, str]] = []
    for _ in range(num_merges):
        if not pairs:
            break
        best_count = max(pairs.values())
        best = min(p for p, c in pairs.items() if c == best_count)
        merges.append(best)
        merged = {}
        # only a word holding the pair's first symbol can change
        for syms, f in vocab.items():
            new = _merge_word(syms, best) if best[0] in syms else syms
            if len(new) < len(syms):
                for p in zip(syms, syms[1:]):
                    pairs[p] -= f
                    if not pairs[p]:
                        del pairs[p]
                for p in zip(new, new[1:]):
                    pairs[p] += f
            merged[new] = f
        vocab = merged
    return merges


@dataclass
class Vocab:
    """Token <-> id bijection with fixed reserved ids 0..5."""

    tokens: list[str]
    _ids: dict[str, int] = field(init=False, repr=False)

    def __post_init__(self):
        if self.tokens[:NUM_RESERVED] != list(RESERVED_TOKENS):
            raise DataError("vocab must start with the reserved tokens")
        self._ids = {tok: i for i, tok in enumerate(self.tokens)}
        if len(self._ids) != len(self.tokens):
            raise DataError("vocab contains duplicate tokens")

    def __len__(self):
        return len(self.tokens)

    def id_of(self, token: str) -> int:
        return self._ids.get(token, UNK)


class BpeCodec:
    """Applies a learned merge table and maps symbols to vocabulary ids."""

    def __init__(self, merges: list[tuple[str, str]], vocab: Vocab):
        self.vocab = vocab
        self._rank = {pair: i for i, pair in enumerate(merges)}
        self._word_cache: dict[str, tuple[str, ...]] = {}

    @classmethod
    def learn(cls, sentences: list[str], num_merges: int) -> "BpeCodec":
        merges = learn_bpe(sentences, num_merges)
        codec = cls(merges, Vocab(list(RESERVED_TOKENS)))
        symbols = set()
        for w in {w for s in sentences for w in s.split()}:
            symbols.update(codec.segment_word(w))
        codec.vocab = Vocab(list(RESERVED_TOKENS) + sorted(symbols))
        return codec

    def segment_word(self, word: str) -> tuple[str, ...]:
        cached = self._word_cache.get(word)
        if cached is not None:
            return cached
        syms = _word_symbols(word)
        while len(syms) > 1:
            ranked = [
                (self._rank[p], p)
                for p in set(zip(syms, syms[1:]))
                if p in self._rank
            ]
            if not ranked:
                break
            _, pair = min(ranked)
            syms = _merge_word(syms, pair)
        self._word_cache[word] = syms
        return syms
