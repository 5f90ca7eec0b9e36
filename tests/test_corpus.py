import hashlib
import json
import tempfile
from dataclasses import replace
from functools import lru_cache
from operator import setitem
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import generate_synthetic, nearest_center_labels
from vtlm.bpe import BpeCodec
from vtlm.data import EntitySpan, load_triplets, write_triplets
from vtlm.errors import ConfigError, DataError
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


@lru_cache(maxsize=1)
def small_examples():
    return tuple(generate_synthetic(SMALL, seed=8)[:3])


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
            assert x.id == y.id
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
        with pytest.raises(ConfigError):
            generate_synthetic(GenConfig(num_examples=5, num_regions=2), seed=1)

    def test_entity_spans_point_at_object_tokens(self):
        corpus = generate_corpus(SMALL, seed=21)
        codec = corpus.codec
        for ex in corpus.train[:50]:
            for span in (s for s in ex.entity_spans if s.stream == "src"):
                word = codec.decode(ex.src_tokens[span.start:span.end])
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
            assert 4 not in codec.encode(s)


class TestTripletIO:
    def test_write_load_roundtrip(self, tmp_path):
        examples = generate_synthetic(SMALL, seed=8)[:100]
        path = tmp_path / "triplets.jsonl"
        write_triplets(path, examples, SMALL.feat_dim, SMALL.num_regions,
                       SMALL.num_labels)
        loaded, header = load_triplets(path)
        assert header["D"] == SMALL.feat_dim and header["o"] == SMALL.num_regions
        assert len(loaded) == len(examples)
        for a, b in zip(examples, loaded):
            assert a.id == b.id
            assert a.src_tokens == b.src_tokens
            assert a.tgt_tokens == b.tgt_tokens
            assert a.entity_spans == b.entity_spans
            assert_same_regions(a, b)

    def test_truncated_line_names_line_number(self, tmp_path):
        examples = generate_synthetic(SMALL, seed=8)[:3]
        path = tmp_path / "triplets.jsonl"
        write_triplets(path, examples, SMALL.feat_dim, SMALL.num_regions,
                       SMALL.num_labels)
        text = path.read_text()
        lines = text.splitlines()
        lines[-1] = lines[-1][: len(lines[-1]) // 2]
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(DataError, match="line 4"):
            load_triplets(path)

    def test_feat_dim_mismatch_is_schema_error(self, tmp_path):
        examples = generate_synthetic(SMALL, seed=8)[:3]
        path = tmp_path / "triplets.jsonl"
        write_triplets(path, examples, SMALL.feat_dim, SMALL.num_regions,
                       SMALL.num_labels)
        with pytest.raises(DataError, match="feature dim"):
            load_triplets(path, expect_feat_dim=SMALL.feat_dim + 1)

    def test_byte_identical_across_writes(self, tmp_path):
        examples = generate_synthetic(SMALL, seed=8)[:20]
        p1, p2 = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        for p in (p1, p2):
            write_triplets(p, examples, SMALL.feat_dim, SMALL.num_regions,
                           SMALL.num_labels)
        assert p1.read_bytes() == p2.read_bytes()

    def test_file_bytes_are_pinned(self, tmp_path):
        """The on-disk format does not change: a seeded corpus writes the
        bytes it wrote when regions were one object each."""
        examples = generate_synthetic(SMALL, seed=8)[:20]
        path = tmp_path / "triplets.jsonl"
        write_triplets(path, examples, SMALL.feat_dim, SMALL.num_regions,
                       SMALL.num_labels)
        assert hashlib.sha256(path.read_bytes()).hexdigest() == (
            "ef7d54085884fc897f5d7796cd0eb5e41f76b61eb4667c5b19d8398d7fbc61ba")

    @pytest.mark.parametrize("corrupt, message", [
        (lambda regions: regions[1]["feat"].pop(), "malformed record"),
        (lambda regions: [r["feat"].pop() for r in regions], "malformed record"),
        (lambda regions: setitem(regions[2]["feat"], 3, float("nan")), "non-finite"),
        (lambda regions: setitem(regions[0]["bbox"], 0, regions[0]["bbox"][2]),
         "invalid bbox"),
        (lambda regions: setitem(regions[4]["bbox"], 3, 1.5), "invalid bbox"),
        (lambda regions: setitem(regions[5], "label", SMALL.num_labels),
         f"region label {SMALL.num_labels} outside"),
        (lambda regions: setitem(regions[5], "label", -1), "region label -1 outside"),
        (lambda regions: regions.pop(), f"{SMALL.num_regions - 1} regions, header says"),
    ], ids=["feat-length", "every-feat-length", "nan-feat", "x1-ge-x2", "box-edge",
            "label-vocab", "label-negative", "region-count"])
    def test_bad_regions_name_their_line(self, tmp_path, corrupt, message):
        """A bad region in the record on line 3 raises a DataError naming
        what is wrong and the line."""
        examples = generate_synthetic(SMALL, seed=8)[:3]
        path = tmp_path / "triplets.jsonl"
        write_triplets(path, examples, SMALL.feat_dim, SMALL.num_regions,
                       SMALL.num_labels)
        lines = path.read_text().splitlines()
        rec = json.loads(lines[2])
        corrupt(rec["regions"])
        lines[2] = json.dumps(rec, sort_keys=True)
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(DataError, match=f"{message}.* line 3\\b"):
            load_triplets(path)

    def test_no_regions_load(self, tmp_path):
        """o = 0 loads as (0, D), (0, 4) and (0,) arrays."""
        ex = generate_synthetic(SMALL, seed=8)[0]
        bare = replace(ex, feats=ex.feats[:0], bboxes=ex.bboxes[:0], labels=ex.labels[:0])
        path = tmp_path / "triplets.jsonl"
        write_triplets(path, [bare], SMALL.feat_dim, 0, SMALL.num_labels)
        (loaded,), _ = load_triplets(path)
        assert loaded.feats.shape == (0, SMALL.feat_dim) and loaded.feats.dtype == np.float32
        assert loaded.bboxes.shape == (0, 4) and loaded.labels.shape == (0,)

    @pytest.mark.parametrize("corrupt, message", [
        (lambda rec: setitem(rec["src"], 0, 9.9), "token id 9.9 is not an integer"),
        (lambda rec: setitem(rec["tgt"], 1, "3"), "token id '3' is not an integer"),
        (lambda rec: setitem(rec["regions"][5], "label", 3.7),
         "region label 3.7 is not an integer"),
        (lambda rec: setitem(rec, "entities", [{"stream": "src", "start": 1.5, "end": 2}]),
         "span start 1.5 is not an integer"),
        (lambda rec: setitem(rec, "entities", [{"stream": "tgt", "start": 50, "end": 90}]),
         "entity span [50, 90) does not fit"),
        (lambda rec: setitem(rec, "entities", [{"stream": "src", "start": 3, "end": 1}]),
         "entity span [3, 1) does not fit"),
        (lambda rec: setitem(rec, "entities", [{"stream": "src", "start": 2, "end": 2}]),
         "entity span [2, 2) does not fit"),
        (lambda rec: setitem(rec, "entities", [{"stream": "pic", "start": 3, "end": 4}]),
         "entity span on stream 'pic'"),
    ], ids=["src-float", "tgt-string", "label-float", "span-float", "span-past-stream",
            "span-reversed", "span-empty", "span-stream"])
    def test_bad_ids_and_spans_name_their_line(self, tmp_path, corrupt, message):
        """A non-integer id or label, or a span that does not fit its
        record, on line 3 raises a DataError naming it and the line."""
        path = tmp_path / "triplets.jsonl"
        write_triplets(path, list(small_examples()), SMALL.feat_dim, SMALL.num_regions,
                       SMALL.num_labels)
        lines = path.read_text().splitlines()
        rec = json.loads(lines[2])
        corrupt(rec)
        lines[2] = json.dumps(rec, sort_keys=True)
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(DataError, match=r"line 3\b") as err:
            load_triplets(path)
        assert message in str(err.value)

    @pytest.mark.parametrize("corrupt, message", [
        (lambda ex: replace(ex, feats=ex.feats[:, :-1]), "header says D = 16"),
        (lambda ex: replace(ex, bboxes=np.pad(ex.bboxes, ((0, 0), (0, 1)))),
         "boxes of shape (8, 5)"),
        (lambda ex: replace(ex, labels=ex.labels + SMALL.num_labels), "outside [0, 40)"),
        (lambda ex: replace(ex, labels=ex.labels + 0.5), "not integers"),
        (lambda ex: replace(ex, feats=ex.feats[1:], bboxes=ex.bboxes[1:], labels=ex.labels[1:]),
         "7 regions, header says 8"),
        (lambda ex: replace(ex, entity_spans=[EntitySpan("tgt", 0, 99)]), "does not fit"),
        (lambda ex: replace(ex, entity_spans=[EntitySpan("src", 1.5, 3)]),
         "span start 1.5 is not an integer"),
        (lambda ex: replace(ex, tgt_tokens=ex.tgt_tokens[:-1] + [7.0]),
         "token id 7.0 is not an integer"),
    ], ids=["feat-dim", "box-shape", "label-vocab", "label-float", "region-count", "span",
            "span-float", "token-float"])
    def test_rejected_write_leaves_no_file(self, tmp_path, corrupt, message):
        """The writer checks every example against its header before it
        opens the file; a bad last example leaves nothing behind."""
        *good, last = small_examples()
        path = tmp_path / "triplets.jsonl"
        with pytest.raises(DataError, match=f"example {last.id}") as err:
            write_triplets(path, good + [corrupt(last)], SMALL.feat_dim, SMALL.num_regions,
                           SMALL.num_labels)
        assert message in str(err.value)
        assert not path.exists()

    @given(st.data())
    @settings(max_examples=60, deadline=None)
    def test_whatever_is_written_reads_back(self, data):
        """Examples with at most one defect drawn at random: the writer
        either refuses them and leaves no file, or writes a file the
        reader loads back as written."""
        ex = small_examples()[0]
        o, dim, vocab = SMALL.num_regions, SMALL.feat_dim, SMALL.num_labels
        defect = data.draw(st.sampled_from(
            ["none", "feat_dim", "count", "box_shape", "box_order", "label", "label_dtype",
             "nan", "empty", "span"]))
        if defect == "feat_dim":
            ex = replace(ex, feats=ex.feats[:, : data.draw(st.integers(0, dim - 1))])
        elif defect == "count":
            ex = replace(ex, labels=ex.labels[: data.draw(st.integers(0, o - 1))])
        elif defect == "box_shape":
            ex = replace(ex, bboxes=ex.bboxes[:, :3])
        elif defect == "box_order":
            ex = replace(ex, bboxes=ex.bboxes[:, [2, 1, 0, 3]])
        elif defect == "label":
            labels = ex.labels.copy()
            labels[data.draw(st.integers(0, o - 1))] = data.draw(st.integers(-2, vocab + 1))
            ex = replace(ex, labels=labels)
        elif defect == "label_dtype":
            ex = replace(ex, labels=ex.labels.astype(np.float64))
        elif defect == "nan":
            feats = ex.feats.copy()
            feats[data.draw(st.integers(0, o - 1)), 0] = np.nan
            ex = replace(ex, feats=feats)
        elif defect == "empty":
            ex = replace(ex, tgt_tokens=[])
        elif defect == "span":
            bound = st.integers(-1, len(ex.src_tokens) + 1) | st.floats(0, 4)
            span = EntitySpan(data.draw(st.sampled_from(["src", "tgt", "pic"])),
                              data.draw(bound), data.draw(bound))
            ex = replace(ex, entity_spans=[span])
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "triplets.jsonl"
            try:
                write_triplets(path, [small_examples()[1], ex], dim, o, vocab)
            except DataError:
                assert not path.exists()
                return
            (_, loaded), _ = load_triplets(path)
        assert (loaded.id, loaded.src_tokens, loaded.tgt_tokens, loaded.entity_spans) == (
            ex.id, ex.src_tokens, ex.tgt_tokens, ex.entity_spans)
        assert_same_regions(ex, loaded)
