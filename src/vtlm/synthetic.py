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

Every region's feature vector is its label's fixed Gaussian cluster
centre plus N(0, sigma^2) noise; bounding boxes are a deterministic
grid cell per slot. Nearest-centre classification of slot 0 therefore
predicts the final content word of the first caption, which is what
makes the masked last-word probes meaningful at this scale.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .bpe import BpeCodec
from .data import EntitySpan, RegionFeature, TripletExample
from .errors import ConfigError
from .rng import Pcg32, derive_seed

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

    def validate(self) -> None:
        if self.num_regions < self.max_objects:
            raise ConfigError(
                f"num_regions={self.num_regions} smaller than max objects "
                f"per caption ({self.max_objects})"
            )
        if not (1 <= self.min_objects <= self.max_objects):
            raise ConfigError("need 1 <= min_objects <= max_objects")
        if self.num_labels > len(OBJECT_WORDS):
            raise ConfigError(f"at most {len(OBJECT_WORDS)} object labels available")
        if self.num_attributes > len(ATTRIBUTE_WORDS):
            raise ConfigError(f"at most {len(ATTRIBUTE_WORDS)} attributes available")
        if self.num_examples <= 0:
            raise ConfigError("num_examples must be positive")


@dataclass
class RawExample:
    id: str
    src_words: list[str]
    tgt_words: list[str]
    src_entity_words: list[int]   # word positions of object mentions
    tgt_entity_words: list[int]
    regions: list[RegionFeature]


def label_centers(cfg: GenConfig, seed: int) -> np.ndarray:
    """Per-label Gaussian cluster centres, shared by all shards of a corpus."""
    rng = Pcg32(seed).split("centers")
    return rng.normal((cfg.num_labels, cfg.feat_dim), dtype=np.float32)


def slot_bbox(slot: int, num_regions: int) -> np.ndarray:
    """Deterministic grid cell for a region slot."""
    cols = int(np.ceil(np.sqrt(num_regions)))
    rows = int(np.ceil(num_regions / cols))
    r, c = divmod(slot, cols)
    return np.array(
        [(c + 0.1) / cols, (r + 0.1) / rows, (c + 0.9) / cols, (r + 0.9) / rows],
        dtype=np.float32,
    )


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
                 count: int | None = None, id_prefix: str = "") -> list[RawExample]:
    """Generate raw word-level examples; fully determined by (cfg, seed)."""
    cfg.validate()
    rng = Pcg32(seed).split("gen")
    n = cfg.num_examples if count is None else count
    n_span = cfg.max_objects - cfg.min_objects + 1
    examples: list[RawExample] = []
    for i in range(n):
        k = cfg.min_objects + rng.randint(n_span)
        label_ids = [int(v) for v in rng.choose(cfg.num_labels, k)]
        attr_ids = [rng.randint(cfg.num_attributes) for _ in range(k)]
        pairs = [(ATTRIBUTE_WORDS[a], OBJECT_WORDS[l]) for a, l in zip(attr_ids, label_ids)]

        src_words, src_obj_pos = _caption_words(pairs)
        tgt_template, tgt_obj_pos = _caption_words(list(reversed(pairs)))
        tgt_words = [to_second_language(w) if w not in (",", ".") else w for w in tgt_template]

        # region slots: 0 = last mention, 1 = first mention, 2.. = middles
        slot_labels = [0] * cfg.num_regions
        slot_labels[0] = label_ids[-1]
        slot_labels[1] = label_ids[0]
        for j in range(2, k):
            slot_labels[j] = label_ids[j - 1]
        for j in range(k, cfg.num_regions):
            slot_labels[j] = rng.randint(cfg.num_labels)

        noise = rng.normal((cfg.num_regions, cfg.feat_dim), dtype=np.float32)
        regions = [
            RegionFeature(
                feat=centers[lab] + cfg.cluster_sigma * noise[j],
                bbox=slot_bbox(j, cfg.num_regions),
                label=lab,
            )
            for j, lab in enumerate(slot_labels)
        ]
        examples.append(
            RawExample(
                id=f"{id_prefix}{i:06d}",
                src_words=src_words,
                tgt_words=tgt_words,
                src_entity_words=src_obj_pos,
                tgt_entity_words=tgt_obj_pos,
                regions=regions,
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
                ids.extend(codec.vocab.id_of(s) for s in codec.segment_word(w))
            offsets.append(len(ids))
            tokens_by_stream[name] = ids
            for wpos in entity_words:
                spans.append(EntitySpan(name, offsets[wpos], offsets[wpos + 1]))
        encoded.append(
            TripletExample(
                id=ex.id,
                src_tokens=tokens_by_stream["src"],
                tgt_tokens=tokens_by_stream["tgt"],
                regions=ex.regions,
                entity_spans=spans,
            )
        )
    return encoded


def generate_synthetic(cfg: GenConfig, seed: int) -> list[TripletExample]:
    """Generate cfg.num_examples encoded triplets from one seed, with a
    joint BPE codec learned from the generated sentences."""
    centers = label_centers(cfg, seed)
    raw = generate_raw(cfg, seed, centers)
    codec = BpeCodec.learn(raw_sentences(raw), cfg.num_merges)
    return encode_examples(raw, codec)


@dataclass
class SyntheticCorpus:
    cfg: GenConfig
    seed: int
    codec: BpeCodec
    centers: np.ndarray
    train: list[TripletExample]
    valid: list[TripletExample]
    test: list[TripletExample]


def generate_corpus(cfg: GenConfig, seed: int) -> SyntheticCorpus:
    """Three-split corpus with per-shard derived seeds and one shared codec."""
    centers = label_centers(cfg, seed)
    shards = {}
    raw_shards = {}
    for name, count in (("train", cfg.num_examples),
                        ("valid", cfg.num_valid),
                        ("test", cfg.num_test)):
        shard_seed = derive_seed(seed, f"shard/{name}")
        raw_shards[name] = generate_raw(cfg, shard_seed, centers,
                                        count=count, id_prefix=f"{name}-")
    codec = BpeCodec.learn(raw_sentences(raw_shards["train"]), cfg.num_merges)
    for name in ("train", "valid", "test"):
        shards[name] = encode_examples(raw_shards[name], codec)
    return SyntheticCorpus(cfg, seed, codec, centers,
                           shards["train"], shards["valid"], shards["test"])


def nearest_center_labels(feats: np.ndarray, centers: np.ndarray) -> np.ndarray:
    """Independent nearest-centroid classifier used as a grounding oracle."""
    # |f - c|^2 = |f|^2 - 2 f.c + |c|^2 ; the |f|^2 term is constant per row
    scores = feats @ centers.T - 0.5 * (centers * centers).sum(axis=1)
    return np.argmax(scores, axis=1)
