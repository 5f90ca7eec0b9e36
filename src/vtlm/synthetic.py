"""Seeded synthetic three-way-parallel caption corpus.

Each example mentions 2-4 (colour, object) pairs. The first language
renders them as a templated caption ("a red dog and a blue cat ."); the
second language renders the same pairs in reversed order with every
word passed through a fixed bijective letter mapping, giving a
translation pair with a genuinely different word order but a learnable
deterministic correspondence.

Regions carry the grounding signal. Region slots follow a fixed
convention so that captions are recoverable from the region set alone:

    slot 0           object mentioned LAST in language 1
    slot 1           object mentioned FIRST in language 1
                     (= mentioned last in language 2)
    slots 2..k-1     middle objects, in mention order
    slots k..o-1     distractors with uniformly drawn labels

An example's regions are the three arrays of `data.TripletExample`:
`labels` (o,) by the convention above, `feats` (o, D), every row its
label's fixed Gaussian cluster centre plus N(0, sigma^2) noise, and
`bboxes` (o, 4), slot j's deterministic grid cell, one read-only table
shared by every example of a call. Nearest-centre classification of
slot 0 therefore predicts the final content word of the first caption,
which is what makes the masked last-word probes meaningful at this
scale.

Draws. Example i of a `generate_raw` call reads words [i * per,
(i + 1) * per) of its shard's PCG32 stream, where with L labels, o
regions and D feature dimensions per = 1 + L + o + 2 * ceil(o * D / 2):

    1 word           object count k (multiply-shift onto the count range)
    L words          label keys; the k lowest (stable order) are the
                     mentioned labels, in mention order
    o words          slot words: the first k give the mentions'
                     attributes, the rest the distractors' labels
    2 x ceil(o*D/2)  Box-Muller uniforms, the cosine block then the sine
                     block; an odd o * D leaves the last sine unused

The layout is fixed because every field takes the same number of words
whatever k is: the keys rank all L labels, and each slot takes one word
whether it holds an attribute or a distractor. That is the order in
which a per-example loop of scalar draws takes the words, so a chunk of
examples is drawn with one bulk `u32` call and transformed at once, and
the first n examples of a call do not depend on how many follow.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .bpe import BpeCodec
from .data import EntitySpan, TripletExample
from .errors import ConfigError, check_int, check_real
from .rng import Pcg32, argsort_keys, box_muller, derive_seed, multiply_shift, unit_uniform

OBJECT_WORDS = [
    "dog", "cat", "tree", "car", "house", "bird", "fish", "horse",
    "boat", "chair", "table", "lamp", "book", "cup", "ball", "shoe",
    "hat", "clock", "door", "window", "flower", "stone", "bridge", "train",
    "plane", "truck", "bike", "bear", "lion", "sheep", "goat", "duck",
    "mouse", "apple", "pear", "plum", "box", "drum", "bell", "kite",
]

ATTRIBUTE_WORDS = [
    "red", "blue", "green", "pink", "black", "white",
    "gray", "brown", "gold", "silver", "purple", "orange",
]

_VOWELS = "aeiou"
_VOWEL_MAP = dict(zip(_VOWELS, "uoaei"))
_CONSONANTS = "bcdfghjklmnpqrstvwxyz"
_CONSONANT_MAP = {
    c: _CONSONANTS[(i + 7) % len(_CONSONANTS)] for i, c in enumerate(_CONSONANTS)
}
_LETTER_MAP = {**_VOWEL_MAP, **_CONSONANT_MAP}

CHUNK = 512  # examples per bulk draw of `generate_raw`


def to_second_language(word: str) -> str:
    """Fixed bijective re-encoding of a first-language word."""
    return "".join(_LETTER_MAP.get(ch, ch) for ch in word)


@dataclass(frozen=True)
class GenConfig:
    num_examples: int = 20_000
    num_valid: int = 1_000
    num_test: int = 1_000
    num_labels: int = 40
    num_attributes: int = 12
    num_regions: int = 8
    feat_dim: int = 64
    cluster_sigma: float = 0.1
    min_objects: int = 2
    max_objects: int = 4
    num_merges: int = 2_000

    def __post_init__(self):
        for name, low in (("num_examples", 1), ("num_valid", 0), ("num_test", 0),
                          ("num_labels", None), ("num_attributes", 1), ("num_regions", None),
                          ("feat_dim", 1), ("min_objects", None), ("max_objects", None),
                          ("num_merges", 1)):
            check_int(name, getattr(self, name), low)
        for name in ("num_regions", "num_labels"):
            if getattr(self, name) < self.max_objects:
                raise ConfigError(
                    f"{name}={getattr(self, name)} smaller than max objects "
                    f"per caption ({self.max_objects})"
                )
        if not (1 <= self.min_objects <= self.max_objects):
            raise ConfigError("need 1 <= min_objects <= max_objects")
        if self.num_labels > len(OBJECT_WORDS):
            raise ConfigError(f"at most {len(OBJECT_WORDS)} object labels available")
        if self.num_attributes > len(ATTRIBUTE_WORDS):
            raise ConfigError(f"at most {len(ATTRIBUTE_WORDS)} attributes available")
        check_real("cluster_sigma", self.cluster_sigma)
        if not (np.isfinite(self.cluster_sigma) and self.cluster_sigma >= 0):
            raise ConfigError(f"cluster_sigma must be finite and >= 0, got {self.cluster_sigma}")


@dataclass
class RawExample:
    src_words: list[str]
    tgt_words: list[str]
    src_entity_words: list[int]   # word positions of object mentions
    tgt_entity_words: list[int]
    feats: np.ndarray    # (o, D) float32
    bboxes: np.ndarray   # (o, 4) float32
    labels: np.ndarray   # (o,) int64


def label_centers(cfg: GenConfig, seed: int) -> np.ndarray:
    """Per-label Gaussian cluster centres, shared by all shards of a corpus."""
    rng = Pcg32(seed).split("centers")
    return rng.normal((cfg.num_labels, cfg.feat_dim), dtype=np.float32)


def _caption_words(pairs: list[tuple[str, str]]) -> tuple[list[str], list[int]]:
    """Template a caption from (attribute, object) pairs.

    Returns the word list and the positions of the object words.
    """
    words: list[str] = []
    obj_positions: list[int] = []
    for i, (attr, obj) in enumerate(pairs):
        if i > 0:
            words.append("and" if i == len(pairs) - 1 else ",")
        words.append("a")
        words.append(attr)
        obj_positions.append(len(words))
        words.append(obj)
    words.append(".")
    return words, obj_positions


def generate_raw(cfg: GenConfig, seed: int, centers: np.ndarray,
                 count: int | None = None) -> list[RawExample]:
    """Generate raw word-level examples; fully determined by (cfg, seed).
    ConfigError unless `seed` and `count` are ints, `count` at least 0.

    Examples are drawn `CHUNK` at a time from one `u32` call each, in the
    word layout of the module docstring."""
    check_int("seed", seed)
    n = cfg.num_examples if count is None else count
    check_int("count", n, 0)
    if np.shape(centers) != (cfg.num_labels, cfg.feat_dim):
        raise ConfigError(f"centers must have shape {(cfg.num_labels, cfg.feat_dim)}, "
                          f"got {np.shape(centers)}")
    rng = Pcg32(seed).split("gen")
    n_labels, n_regions = cfg.num_labels, cfg.num_regions
    n_span = cfg.max_objects - cfg.min_objects + 1
    n_noise = n_regions * cfg.feat_dim
    per = 1 + n_labels + n_regions + 2 * ((n_noise + 1) // 2)
    # slot j's grid cell, row-major on a near-square grid
    cols = int(np.ceil(np.sqrt(cfg.num_regions)))
    rows = int(np.ceil(cfg.num_regions / cols))
    r, c = np.divmod(np.arange(cfg.num_regions), cols)
    bboxes = np.stack([(c + 0.1) / cols, (r + 0.1) / rows,
                       (c + 0.9) / cols, (r + 0.9) / rows], axis=1).astype(np.float32)
    bboxes.flags.writeable = False
    second = {w: to_second_language(w) for w in ("a", "and", ",", ".", *ATTRIBUTE_WORDS,
                                                 *OBJECT_WORDS)}
    slot = np.arange(n_regions)
    examples: list[RawExample] = []
    for lo in range(0, n, CHUNK):
        words = rng.u32(min(CHUNK, n - lo) * per).reshape(-1, per)
        ints = words[:, :1 + n_labels + n_regions].astype(np.uint64)
        k = cfg.min_objects + multiply_shift(ints[:, :1], n_span).astype(np.int64)
        order = argsort_keys(words[:, 1:1 + n_labels])
        slot_words = ints[:, 1 + n_labels:]
        attr_ids = multiply_shift(slot_words, cfg.num_attributes)
        # region slots: 0 = last mention, 1 = first mention, 2.. = middles,
        # then distractors; slot j < k holds mention (j - 1) mod k
        labels = np.where(slot < k, np.take_along_axis(order, (slot - 1) % k, axis=1),
                          multiply_shift(slot_words, n_labels).astype(np.int64))
        noise = box_muller(unit_uniform(words[:, 1 + n_labels + n_regions:]),
                           n_noise).astype(np.float32)
        feats = centers[labels] + cfg.cluster_sigma * noise.reshape(-1, n_regions, cfg.feat_dim)
        for i, (ki, label_ids, attrs) in enumerate(zip(
                k[:, 0].tolist(), order[:, :cfg.max_objects].tolist(), attr_ids.tolist())):
            pairs = [(ATTRIBUTE_WORDS[a], OBJECT_WORDS[l]) for a, l in zip(attrs[:ki], label_ids)]
            src_words, src_obj_pos = _caption_words(pairs)
            tgt_template, tgt_obj_pos = _caption_words(pairs[::-1])
            examples.append(
                RawExample(
                    src_words=src_words,
                    tgt_words=[second[w] for w in tgt_template],
                    src_entity_words=src_obj_pos,
                    tgt_entity_words=tgt_obj_pos,
                    feats=feats[i],
                    bboxes=bboxes,
                    labels=labels[i],
                )
            )
    return examples


def raw_sentences(examples: list[RawExample]) -> list[str]:
    out = []
    for ex in examples:
        out.append(" ".join(ex.src_words))
        out.append(" ".join(ex.tgt_words))
    return out


def encode_examples(raw: list[RawExample], codec: BpeCodec) -> list[TripletExample]:
    """Tokenise raw examples; entity word positions become token spans."""
    word_ids: dict[str, list[int]] = {}   # each distinct word's BPE ids
    encoded: list[TripletExample] = []
    for ex in raw:
        spans: list[EntitySpan] = []
        streams = (
            ("src", ex.src_words, ex.src_entity_words),
            ("tgt", ex.tgt_words, ex.tgt_entity_words),
        )
        tokens_by_stream = {}
        for name, words, entity_words in streams:
            ids: list[int] = []
            offsets = []
            for w in words:
                offsets.append(len(ids))
                seg = word_ids.get(w)
                if seg is None:
                    seg = word_ids[w] = [codec.vocab.id_of(s) for s in codec.segment_word(w)]
                ids.extend(seg)
            offsets.append(len(ids))
            tokens_by_stream[name] = ids
            for wpos in entity_words:
                spans.append(EntitySpan(name, offsets[wpos], offsets[wpos + 1]))
        encoded.append(
            TripletExample(
                src_tokens=tokens_by_stream["src"],
                tgt_tokens=tokens_by_stream["tgt"],
                feats=ex.feats,
                bboxes=ex.bboxes,
                labels=ex.labels,
                entity_spans=spans,
            )
        )
    return encoded


@dataclass
class SyntheticCorpus:
    codec: BpeCodec
    train: list[TripletExample]
    valid: list[TripletExample]
    test: list[TripletExample]


def generate_corpus(cfg: GenConfig, seed: int) -> SyntheticCorpus:
    """Three-split corpus with per-shard derived seeds and one shared codec."""
    check_int("seed", seed)
    centers = label_centers(cfg, seed)
    shards = {}
    raw_shards = {}
    for name, count in (("train", cfg.num_examples),
                        ("valid", cfg.num_valid),
                        ("test", cfg.num_test)):
        shard_seed = derive_seed(seed, f"shard/{name}")
        raw_shards[name] = generate_raw(cfg, shard_seed, centers, count=count)
    codec = BpeCodec.learn(raw_sentences(raw_shards["train"]), cfg.num_merges)
    for name in ("train", "valid", "test"):
        shards[name] = encode_examples(raw_shards[name], codec)
    return SyntheticCorpus(codec, shards["train"], shards["valid"], shards["test"])
