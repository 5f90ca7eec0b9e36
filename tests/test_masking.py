from dataclasses import replace

import numpy as np
import pytest

from vtlm import bpe, masking
from vtlm.bpe import NUM_RESERVED
from vtlm.data import RegionFeature, TripletExample
from vtlm.errors import ConfigError, DataError
from vtlm.masking import (
    MaskPolicy,
    TLM,
    VTLM,
    build_masked_batch,
    build_stream,
    mask_text,
    mask_visual,
    round_count,
    select_count,
)
from vtlm.rng import Pcg32
from vtlm.synthetic import GenConfig, generate_synthetic


def make_example(m=3, n=2, o=8, feat_dim=4):
    regions = [
        RegionFeature(
            feat=np.zeros(feat_dim, dtype=np.float32),
            bbox=np.array([0.1, 0.1, 0.9, 0.9], dtype=np.float32),
            label=j % 5,
        )
        for j in range(o)
    ]
    return TripletExample(
        id="x",
        src_tokens=list(range(NUM_RESERVED, NUM_RESERVED + m)),
        tgt_tokens=list(range(NUM_RESERVED + m, NUM_RESERVED + m + n)),
        regions=regions,
    )


class TestStreamLayout:
    def test_vtlm_length_and_segments(self):
        ex = make_example(3, 2, 8)
        s = build_stream(ex, VTLM)
        assert s.text_len == 3 + 2 + 6
        assert s.text_len + len(ex.regions) == 19
        assert s.token_ids[0] == bpe.BOS
        assert list(s.token_ids[4:6]) == [bpe.EOS, bpe.SEP]
        assert s.token_ids[6] == bpe.BOS
        assert list(s.token_ids[-2:]) == [bpe.EOS, bpe.SEP]

    def test_tlm_length_no_vis(self):
        s = build_stream(make_example(3, 2, 8), TLM)
        assert s.text_len == 11
        assert set(s.lang_ids.tolist()) == {bpe.LANG_L1, bpe.LANG_L2}
        # no room is kept for the 8 regions: the text alone fills max_len
        assert build_stream(make_example(m=30, n=28, o=8), TLM, max_len=40).text_len == 40

    def test_positions_restart_per_segment(self):
        s = build_stream(make_example(3, 2, 8), VTLM)
        # second segment's [BOS] sits right after [SEP] and restarts at 0
        second_bos = 6
        assert s.pos_ids[second_bos] == 0
        assert s.pos_ids[second_bos + 1] == 1
        assert s.pos_ids[0] == 0 and s.pos_ids[1] == 1

    def test_language_ids_per_segment(self):
        s = build_stream(make_example(2, 2, 8), VTLM)
        assert list(s.lang_ids[:5]) == [bpe.LANG_L1] * 5
        assert list(s.lang_ids[5:]) == [bpe.LANG_L2] * 5

    def test_truncation_trims_text_not_regions(self):
        ex = make_example(m=30, n=28, o=8)
        s = build_stream(ex, VTLM, max_len=40)
        assert s.text_len + len(ex.regions) <= 40
        assert s.text_len == 40 - 8

    def test_token_position_maps(self):
        ex = make_example(3, 2, 8)
        s = build_stream(ex, VTLM)
        m, n = len(ex.src_tokens), len(ex.tgt_tokens)
        assert list(s.token_ids[1:m + 1]) == list(ex.src_tokens)
        assert list(s.token_ids[m + 4:m + n + 4]) == list(ex.tgt_tokens)


class TestMaskText:
    def test_exact_selection_count(self):
        tokens = np.array([bpe.BOS] + list(range(10, 30)) + [bpe.EOS], dtype=np.int64)
        _, targets = mask_text(tokens, Pcg32(0), vocab_size=100)
        assert len(targets) == 3  # round(0.15 * 20)

    def test_floor_of_one_for_short_sentences(self):
        tokens = np.array([bpe.BOS, 17, bpe.EOS], dtype=np.int64)
        _, targets = mask_text(tokens, Pcg32(0), 100)
        assert len(targets) == 1

    def test_specials_never_selected(self):
        tokens = np.array([bpe.BOS, 10, bpe.EOS, bpe.SEP, bpe.BOS, 11, bpe.EOS, bpe.SEP])
        for seed in range(50):
            masked, targets = mask_text(tokens, Pcg32(seed), 100)
            for pos in targets:
                assert tokens[pos] >= NUM_RESERVED
            # specials survive corruption
            assert masked[0] == bpe.BOS and masked[3] == bpe.SEP

    def test_targets_record_original_token(self):
        tokens = np.array([bpe.BOS] + list(range(50, 70)) + [bpe.EOS], dtype=np.int64)
        _, targets = mask_text(tokens, Pcg32(4), 100)
        for pos, orig in targets.items():
            assert orig == tokens[pos]

    def test_action_fractions_large_sample(self):
        """80/10/10 split within +-0.005 over >=1e5 selected positions."""
        rng = Pcg32(2024).split("mask_text")
        n_masked = n_random = n_keep = n_total = 0
        tokens = np.array([bpe.BOS] + list(range(100, 140)) + [bpe.EOS], dtype=np.int64)
        while n_total < 110_000:
            masked, targets = mask_text(tokens, rng, vocab_size=5000)
            for pos, orig in targets.items():
                n_total += 1
                if masked[pos] == bpe.MASK:
                    n_masked += 1
                elif masked[pos] == orig:
                    n_keep += 1
                else:
                    n_random += 1
        assert abs(n_masked / n_total - 0.80) < 0.005
        assert abs(n_random / n_total - 0.10) < 0.005
        assert abs(n_keep / n_total - 0.10) < 0.005

    def test_random_replacements_nonreserved(self):
        tokens = np.array([bpe.BOS] + list(range(100, 140)) + [bpe.EOS], dtype=np.int64)
        rng = Pcg32(9)
        for _ in range(200):
            masked, targets = mask_text(tokens, rng, vocab_size=200)
            for pos in targets:
                assert masked[pos] >= NUM_RESERVED or masked[pos] == bpe.MASK


class TestMaskVisual:
    def test_selection_bounds_small_batch(self):
        labels = np.arange(32).reshape(4, 8) % 7
        directives, _, targets = mask_visual(labels, MaskPolicy(), Pcg32(3))
        assert 4 <= len(targets) <= 8
        for (b, slot), lab in targets.items():
            assert lab == labels[b, slot]
        assert directives.shape == (4, 8)

    def test_alternative_variant_inputs_untouched(self):
        labels = np.arange(80).reshape(10, 8) % 7
        policy = MaskPolicy(visual_select_ratio=0.0)
        directives, _, targets = mask_visual(labels, policy, Pcg32(3))
        assert np.all(directives == masking.ORIGINAL)
        assert len(targets) == round(0.15 * 80)

    def test_single_example_batch_never_substitutes(self):
        labels = np.arange(8).reshape(1, 8)
        for seed in range(300):
            directives, _, _ = mask_visual(labels, MaskPolicy(), Pcg32(seed))
            assert not np.any(directives == masking.SUBSTITUTE)

    def test_substitute_references_other_example(self):
        labels = np.zeros((6, 8), dtype=np.int64)
        rng = Pcg32(12)
        seen_sub = False
        for _ in range(300):
            directives, subs, _ = mask_visual(labels, MaskPolicy(), rng)
            for b, slot in zip(*np.nonzero(directives == masking.SUBSTITUTE)):
                seen_sub = True
                assert subs[b, slot, 0] != b
                assert 0 <= subs[b, slot, 1] < 8
        assert seen_sub

    def test_pooled_selection_rate(self):
        labels = np.zeros((64, 8), dtype=np.int64)
        rng = Pcg32(77).split("vis")
        total = chosen = 0
        while chosen < 100_000:
            _, _, targets = mask_visual(labels, MaskPolicy(), rng)
            chosen += len(targets)
            total += labels.size
        assert abs(chosen / total - 0.15) < 0.005


class TestBatchAssembly:
    def _examples(self, n=4):
        cfg = GenConfig(num_examples=n, feat_dim=8, num_merges=120)
        return generate_synthetic(cfg, seed=5)

    @staticmethod
    def _regions(examples):
        feats = np.stack([np.stack([r.feat for r in ex.regions]) for ex in examples])
        bboxes = np.stack([np.stack([r.bbox for r in ex.regions]) for ex in examples])
        return feats, bboxes

    def test_reconstruction_invariant(self):
        """Applying recorded targets back onto the corrupted stream and
        reverting directives reproduces the original example."""
        examples = self._examples(6)
        streams = [build_stream(ex, VTLM) for ex in examples]
        root = Pcg32(8)
        batch = build_masked_batch(examples, VTLM, MaskPolicy(), 500,
                                   root.split("t"), root.split("v"),
                                   streams=streams)
        restored = batch.token_ids.copy()
        for (b, pos), orig in zip(batch.text_target_pos, batch.text_target_ids):
            restored[b, pos] = orig
        for b, s in enumerate(streams):
            assert np.array_equal(restored[b, : s.text_len], s.token_ids)
        # non-selected positions were never corrupted
        sel = {(int(b), int(p)) for b, p in batch.text_target_pos}
        for b, s in enumerate(streams):
            for pos in range(s.text_len):
                if (b, pos) not in sel:
                    assert batch.token_ids[b, pos] == s.token_ids[pos]
        # visual: non-selected slots carry their original regions, and
        # targets store true labels
        feats, bboxes = self._regions(examples)
        vsel = {(int(b), int(slot)) for b, slot in batch.vis_target_pos}
        for b in range(batch.batch_size):
            for slot in range(batch.num_regions):
                if (b, slot) not in vsel:
                    assert not batch.vis_mask[b, slot]
                    assert np.array_equal(batch.feats[b, slot], feats[b, slot])
                    assert np.array_equal(batch.bboxes[b, slot], bboxes[b, slot])
        for (b, slot), lab in zip(batch.vis_target_pos, batch.vis_target_ids):
            assert lab == examples[b].regions[slot].label

    def test_substitute_uses_referenced_region(self):
        """Every substituted slot carries its donor region's feature and
        box; the donor is read from the un-substituted regions."""
        examples = self._examples(16)
        policy = MaskPolicy()
        root = Pcg32(3)
        batch = build_masked_batch(examples, VTLM, policy, 500,
                                   root.split("t"), root.split("v"))
        labels = np.array([[r.label for r in ex.regions] for ex in examples])
        directives, subs, _ = mask_visual(labels, policy, root.split("v"))
        feats, bboxes = self._regions(examples)
        sub = list(zip(*np.nonzero(directives == masking.SUBSTITUTE)))
        assert sub
        for b, slot in sub:
            ob, oslot = subs[b, slot]
            assert np.array_equal(batch.feats[b, slot], feats[ob, oslot])
            assert np.array_equal(batch.bboxes[b, slot], bboxes[ob, oslot])
            assert not batch.vis_mask[b, slot]

    def test_text_and_visual_streams_independent(self):
        examples = self._examples(6)
        root = Pcg32(99)
        b1 = build_masked_batch(examples, VTLM, MaskPolicy(), 500,
                                root.split("text"), root.split("vis"))
        # freezing the text stream (same seed) while advancing an unrelated
        # visual stream leaves text selection unchanged
        other = Pcg32(1234).split("somewhere-else")
        b2 = build_masked_batch(examples, VTLM, MaskPolicy(), 500,
                                root.split("text"), other)
        assert np.array_equal(b1.token_ids, b2.token_ids)
        assert np.array_equal(b1.text_target_pos, b2.text_target_pos)
        b3 = build_masked_batch(examples, VTLM, MaskPolicy(), 500,
                                Pcg32(4321).split("elsewhere"), root.split("vis"))
        assert np.array_equal(b1.vis_target_pos, b3.vis_target_pos)
        assert np.array_equal(b1.vis_mask, b3.vis_mask)
        assert np.array_equal(b1.feats, b3.feats)
        assert np.array_equal(b1.bboxes, b3.bboxes)

    def test_tlm_mode_has_no_visual_part(self):
        examples = self._examples(3)
        root = Pcg32(1)
        batch = build_masked_batch(examples, TLM, MaskPolicy(), 500,
                                   root.split("t"), root.split("v"))
        assert batch.num_regions == 0 and batch.feats is None
        assert len(batch.vis_target_ids) == 0

    def test_padding_marks_short_examples(self):
        examples = self._examples(8)
        root = Pcg32(2)
        batch = build_masked_batch(examples, VTLM, MaskPolicy(), 500,
                                   root.split("t"), root.split("v"))
        assert batch.batch_size == len(examples)
        for b in range(batch.batch_size):
            ln = build_stream(examples[b], VTLM).text_len
            assert np.all(batch.token_ids[b, ln:] == bpe.PAD)
            assert np.all(batch.pad_mask[b, ln:])
            assert not np.any(batch.pad_mask[b, :ln])

    def test_mixed_region_counts_raise_data_error(self):
        a, b = self._examples(2)
        b = replace(b, regions=b.regions[:-1])
        root = Pcg32(2)
        with pytest.raises(DataError, match=f"{len(a.regions)} and {len(b.regions)} regions"):
            build_masked_batch([a, b], VTLM, MaskPolicy(), 500, root.split("t"), root.split("v"))
        tlm = build_masked_batch([a, b], TLM, MaskPolicy(), 500, root.split("t"), root.split("v"))
        assert tlm.num_regions == 0


class TestSelectionStatistics:
    def test_corpus_level_selection_rate(self):
        """Over >=1e5 eligible positions of realistic streams, the text
        selection rate stays within 0.15 +- 0.005."""
        cfg = GenConfig(num_examples=600, feat_dim=8, num_merges=300)
        examples = generate_synthetic(cfg, seed=31)
        streams = [build_stream(ex, VTLM) for ex in examples]
        rng = Pcg32(17).split("rate")
        eligible = selected = 0
        while selected < 16_000:  # ~ >1e5 eligible positions
            for s in streams:
                masked, targets = mask_text(s.token_ids, rng, 500)
                eligible += len(masking.eligible_positions(s.token_ids))
                selected += len(targets)
        assert eligible >= 100_000
        assert abs(selected / eligible - 0.15) < 0.005


def test_round_count_half_up():
    assert round_count(4.8) == 5
    assert round_count(1.5) == 2
    assert round_count(2.5) == 3
    assert round_count(0.4) == 0


def test_select_count_floor_one():
    assert select_count(0.15, 1) == 1
    assert select_count(0.15, 20) == 3
    assert select_count(0.15, 0) == 0


@pytest.mark.parametrize("ratio", [2.0, -0.5, float("nan")])
def test_visual_select_ratio_outside_unit_interval_raises(ratio):
    with pytest.raises(ConfigError, match="visual_select_ratio"):
        MaskPolicy(visual_select_ratio=ratio)
