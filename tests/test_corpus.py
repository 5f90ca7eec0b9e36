import hashlib
import json

import numpy as np
import pytest

from helpers import decode, encode, generate_synthetic, nearest_center_labels
from vtlm.bpe import BpeCodec
from vtlm.errors import ConfigError
from vtlm.synthetic import (
    GenConfig,
    OBJECT_WORDS,
    generate_corpus,
    generate_raw,
    label_centers,
    raw_sentences,
    to_second_language,
)

SMALL = GenConfig(num_examples=120, num_valid=30, num_test=30, num_merges=300,
                  feat_dim=16)


def assert_same_regions(a, b):
    """Equal dtype, shape and bytes of two examples' region arrays."""
    for name in ("feats", "bboxes", "labels"):
        x, y = getattr(a, name), getattr(b, name)
        assert (x.dtype, x.shape, x.tobytes()) == (y.dtype, y.shape, y.tobytes())


class TestGenerator:
    def test_seed_determinism(self):
        a = generate_synthetic(SMALL, seed=9)
        b = generate_synthetic(SMALL, seed=9)
        assert len(a) == len(b) == SMALL.num_examples
        for x, y in zip(a, b):
            assert x.src_tokens == y.src_tokens
            assert x.tgt_tokens == y.tgt_tokens
            assert x.entity_spans == y.entity_spans
            assert_same_regions(x, y)

    def test_sigma_zero_feats_equal_centers(self):
        cfg = GenConfig(num_examples=40, cluster_sigma=0.0, feat_dim=16)
        centers = label_centers(cfg, 3)
        raw = generate_raw(cfg, 3, centers)
        for ex in raw:
            assert np.array_equal(ex.feats, centers[ex.labels])

    def test_nearest_center_recovers_labels(self):
        # 10k regions, sigma=0.1, centres N(0,1) in D=64
        cfg = GenConfig(num_examples=1250, cluster_sigma=0.1, feat_dim=64)
        centers = label_centers(cfg, 5)
        raw = generate_raw(cfg, 5, centers)
        feats = np.concatenate([ex.feats for ex in raw])
        labels = np.concatenate([ex.labels for ex in raw])
        assert feats.shape[0] >= 10_000
        acc = np.mean(nearest_center_labels(feats, centers) == labels)
        assert acc > 0.99

    def test_last_word_grounded_in_slot0(self):
        """Slot-0 nearest-centre prediction recovers the final content word."""
        cfg = GenConfig(num_examples=400, feat_dim=32)
        centers = label_centers(cfg, 11)
        raw = generate_raw(cfg, 11, centers)
        hits = 0
        for ex in raw:
            pred = int(nearest_center_labels(ex.feats[:1], centers)[0])
            last_content = ex.src_words[-2]  # final "." is punctuation
            hits += OBJECT_WORDS[pred] == last_content
        assert hits / len(raw) > 0.95

    def test_second_language_mirrors_first(self):
        cfg = GenConfig(num_examples=50, feat_dim=8)
        raw = generate_raw(cfg, 7, label_centers(cfg, 7))
        for ex in raw:
            # same pair count, reversed order, bijectively mapped words
            src_objs = [ex.src_words[i] for i in ex.src_entity_words]
            tgt_objs = [ex.tgt_words[i] for i in ex.tgt_entity_words]
            assert tgt_objs == [to_second_language(w) for w in reversed(src_objs)]
            assert ex.tgt_words[-1] == "."

    def test_region_slot_convention(self):
        cfg = GenConfig(num_examples=80, feat_dim=8)
        raw = generate_raw(cfg, 13, label_centers(cfg, 13))
        for ex in raw:
            objs = [ex.src_words[i] for i in ex.src_entity_words]
            assert OBJECT_WORDS[ex.labels[0]] == objs[-1]
            assert OBJECT_WORDS[ex.labels[1]] == objs[0]
            for j in range(2, len(objs)):
                assert OBJECT_WORDS[ex.labels[j]] == objs[j - 1]

    def test_region_arrays(self):
        """An example's regions are (o, D) float32 features, (o, 4) float32
        boxes and (o,) int64 labels; the boxes are slot j's cell of a 3 x 3
        grid at o = 8, one read-only table shared by the examples."""
        cfg = GenConfig(num_examples=5, feat_dim=8)
        raw = generate_raw(cfg, 13, label_centers(cfg, 13))
        for ex in raw:
            assert ex.feats.dtype == np.float32 and ex.feats.shape == (8, 8)
            assert ex.labels.dtype == np.int64 and ex.labels.shape == (8,)
            assert ex.bboxes is raw[0].bboxes and not ex.bboxes.flags.writeable
        cells = np.array([[c + 0.1, r + 0.1, c + 0.9, r + 0.9]
                          for r in range(3) for c in range(3)][:8]) / 3
        assert raw[0].bboxes.dtype == np.float32
        assert raw[0].bboxes.tobytes() == cells.astype(np.float32).tobytes()

    def test_too_few_regions_rejected(self):
        """When the config is built, not in the first `generate_raw`."""
        with pytest.raises(ConfigError, match="num_regions=2 smaller than max objects"):
            GenConfig(num_examples=5, num_regions=2)

    @pytest.mark.parametrize("kw, message", [
        (dict(min_objects=0), "need 1 <= min_objects <= max_objects"),
        (dict(min_objects=5), "need 1 <= min_objects <= max_objects"),
        (dict(num_labels=41), "at most 40 object labels"),
        (dict(num_attributes=13), "at most 12 attributes"),
        (dict(num_examples=0), "num_examples must be >= 1, got 0"),
        # each of these used to pass, then fail deep in generation, give
        # NaN or empty features, or silently narrow the corpus
        (dict(num_labels=0), "num_labels=0 smaller than max objects per caption"),
        (dict(num_labels=3), r"num_labels=3 smaller than max objects per caption \(4\)"),
        (dict(num_attributes=0), "num_attributes must be >= 1, got 0"),
        (dict(num_valid=-5), "num_valid must be >= 0, got -5"),
        (dict(num_test=-1), "num_test must be >= 0, got -1"),
        (dict(feat_dim=0), "feat_dim must be >= 1, got 0"),
        (dict(cluster_sigma=float("nan")), "cluster_sigma must be finite and >= 0, got nan"),
        (dict(cluster_sigma=float("inf")), "cluster_sigma must be finite"),
        (dict(cluster_sigma=-0.1), "cluster_sigma must be finite and >= 0"),
        (dict(num_merges=0), "num_merges must be >= 1, got 0"),
    ])
    def test_bad_config_rejected_when_built(self, kw, message):
        with pytest.raises(ConfigError, match=message):
            GenConfig(**kw)

    def test_negative_count_rejected(self):
        cfg = GenConfig(num_examples=5, feat_dim=4)
        with pytest.raises(ConfigError, match="count must be >= 0, got -3"):
            generate_raw(cfg, 1, label_centers(cfg, 1), count=-3)

    @pytest.mark.parametrize("shape", [(39, 4), (40, 5), (40,), (40, 4, 1)])
    def test_centers_of_another_shape_rejected(self, shape):
        """Too few labels, the wrong width or the wrong rank: a ConfigError
        before any draw, not an IndexError or a broadcast error in numpy."""
        cfg = GenConfig(num_examples=5, feat_dim=4)
        with pytest.raises(ConfigError, match=r"centers must have shape \(40, 4\), got "):
            generate_raw(cfg, 1, np.zeros(shape, np.float32))

    def test_smallest_valid_config_generates(self):
        cfg = GenConfig(num_examples=20, num_valid=0, num_test=0, num_labels=4,
                        num_attributes=1, feat_dim=1, cluster_sigma=0.0, num_merges=1)
        corpus = generate_corpus(cfg, seed=1)
        assert (len(corpus.train), len(corpus.valid), len(corpus.test)) == (20, 0, 0)
        assert corpus.train[0].feats.shape == (8, 1)

    def test_entity_spans_point_at_object_tokens(self):
        corpus = generate_corpus(SMALL, seed=21)
        codec = corpus.codec
        for ex in corpus.train[:50]:
            for span in (s for s in ex.entity_spans if s.stream == "src"):
                word = decode(codec, ex.src_tokens[span.start:span.end])
                assert word in OBJECT_WORDS


class TestCorpusSplits:
    def test_splits_disjoint_seeds_shared_codec(self):
        corpus = generate_corpus(SMALL, seed=4)
        assert len(corpus.train) == SMALL.num_examples
        assert len(corpus.valid) == SMALL.num_valid
        assert len(corpus.test) == SMALL.num_test
        # same codec across splits: no UNK anywhere
        for split in (corpus.train, corpus.valid, corpus.test):
            for ex in split:
                assert 4 not in ex.src_tokens and 4 not in ex.tgt_tokens

    def test_no_unk_on_learned_corpus(self):
        cfg = GenConfig(num_examples=60, feat_dim=8, num_merges=150)
        centers = label_centers(cfg, 2)
        raw = generate_raw(cfg, 2, centers)
        codec = BpeCodec.learn(raw_sentences(raw), cfg.num_merges)
        for s in raw_sentences(raw):
            assert 4 not in encode(codec, s)

    def test_corpus_is_pinned(self):
        """The generator's output does not change: a sha256 over every
        split's tokens, entity spans and region array bytes, and the
        codec's vocabulary."""
        corpus = generate_corpus(SMALL, seed=8)
        h = hashlib.sha256(json.dumps(corpus.codec.vocab.tokens).encode())
        for split in (corpus.train, corpus.valid, corpus.test):
            h.update(json.dumps(len(split)).encode())
            for ex in split:
                h.update(json.dumps([ex.src_tokens, ex.tgt_tokens, ex.entity_spans]).encode())
                for arr in (ex.feats, ex.bboxes, ex.labels):
                    h.update(f"{arr.dtype}{arr.shape}".encode() + arr.tobytes())
        assert h.hexdigest() == (
            "92a3eda370ca3404bacf2b6cde773ae1177969461306a1f8c9dc90209cb6a113")
