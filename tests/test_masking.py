import hashlib
from dataclasses import replace

import numpy as np
import pytest

from helpers import generate_synthetic, target_triples
from vtlm import bpe, masking
from vtlm.bpe import NUM_RESERVED
from vtlm.data import TripletExample
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
from vtlm.synthetic import GenConfig


def make_example(m=3, n=2, o=8, feat_dim=4):
    return TripletExample(
        src_tokens=list(range(NUM_RESERVED, NUM_RESERVED + m)),
        tgt_tokens=list(range(NUM_RESERVED + m, NUM_RESERVED + m + n)),
        feats=np.zeros((o, feat_dim), dtype=np.float32),
        bboxes=np.tile(np.array([0.1, 0.1, 0.9, 0.9], dtype=np.float32), (o, 1)),
        labels=np.arange(o, dtype=np.int64) % 5,
    )


class TestStreamLayout:
    def test_vtlm_length_and_segments(self):
        ex = make_example(3, 2, 8)
        s = build_stream(ex, VTLM)
        assert len(s.token_ids) == 3 + 2 + 6
        assert len(s.token_ids) + len(ex.labels) == 19
        assert s.token_ids[0] == bpe.BOS
        assert list(s.token_ids[4:6]) == [bpe.EOS, bpe.SEP]
        assert s.token_ids[6] == bpe.BOS
        assert list(s.token_ids[-2:]) == [bpe.EOS, bpe.SEP]

    def test_tlm_length_no_vis(self):
        s = build_stream(make_example(3, 2, 8), TLM)
        assert len(s.token_ids) == 11
        assert set(s.lang_ids.tolist()) == {bpe.LANG_L1, bpe.LANG_L2}
        # no room is kept for the 8 regions: the text alone fills max_len
        assert len(build_stream(make_example(m=30, n=28, o=8), TLM, max_len=40).token_ids) == 40

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
        assert len(s.token_ids) + len(ex.labels) <= 40
        assert len(s.token_ids) == 40 - 8

    def test_token_position_maps(self):
        ex = make_example(3, 2, 8)
        s = build_stream(ex, VTLM)
        m, n = len(ex.src_tokens), len(ex.tgt_tokens)
        assert list(s.token_ids[1:m + 1]) == list(ex.src_tokens)
        assert list(s.token_ids[m + 4:m + n + 4]) == list(ex.tgt_tokens)


class TestMaskText:
    def test_exact_selection_count(self):
        tokens = np.array([bpe.BOS] + list(range(10, 30)) + [bpe.EOS], dtype=np.int64)
        _, (chosen,) = mask_text([tokens], Pcg32(0), vocab_size=100)
        assert len(chosen) == 3  # round(0.15 * 20)

    def test_floor_of_one_for_short_sentences(self):
        tokens = np.array([bpe.BOS, 17, bpe.EOS], dtype=np.int64)
        _, (chosen,) = mask_text([tokens], Pcg32(0), 100)
        assert len(chosen) == 1

    def test_specials_never_selected(self):
        tokens = np.array([bpe.BOS, 10, bpe.EOS, bpe.SEP, bpe.BOS, 11, bpe.EOS, bpe.SEP])
        for seed in range(50):
            (masked,), (chosen,) = mask_text([tokens], Pcg32(seed), 100)
            for pos in chosen:
                assert tokens[pos] >= NUM_RESERVED
            # specials survive corruption
            assert masked[0] == bpe.BOS and masked[3] == bpe.SEP

    def test_targets_record_original_token(self):
        """Selected positions ascend, and each target keeps its position's
        original token, whatever the corruption put there."""
        ex = make_example(m=20, n=20)
        tokens = build_stream(ex, TLM).token_ids
        _, (chosen,) = mask_text([tokens], Pcg32(4), 100)
        assert np.all(np.diff(chosen) > 0)
        batch = build_masked_batch([ex], TLM, MaskPolicy(), 100, Pcg32(4), Pcg32(5))
        assert np.array_equal(batch.target_pos[0], chosen)
        assert np.array_equal(batch.target_ids[0], tokens[chosen])
        assert np.any(batch.token_ids[0, chosen] != tokens[chosen])

    def test_action_fractions_large_sample(self):
        """80/10/10 split within +-0.005 over >=1e5 selected positions."""
        rng = Pcg32(2024).split("mask_text")
        n_masked = n_random = n_keep = n_total = 0
        tokens = np.array([bpe.BOS] + list(range(100, 140)) + [bpe.EOS], dtype=np.int64)
        while n_total < 110_000:
            (masked,), (chosen,) = mask_text([tokens], rng, vocab_size=5000)
            for pos in chosen:
                orig = tokens[pos]
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
            (masked,), (chosen,) = mask_text([tokens], rng, vocab_size=200)
            for pos in chosen:
                assert masked[pos] >= NUM_RESERVED or masked[pos] == bpe.MASK

    def test_batch_draws_equal_per_row_reference(self):
        """The batch's draws against one row at a time drawing from the
        stream itself: `choose`, then per chosen position one uniform and,
        for a random token, one randint. Rows include ones with nothing
        eligible; the stream ends where the reference's does."""
        gen = np.random.default_rng(0)
        for seed in range(40):
            rows = [gen.integers(0, 40, size=gen.integers(0, 30)) for _ in range(7)]
            rng, ref = Pcg32(seed), Pcg32(seed)
            got_rows, got_pos = mask_text(rows, rng, 40)
            for tokens, got, got_p in zip(rows, got_rows, got_pos):
                eligible = masking.eligible_positions(tokens)
                chosen = eligible[ref.choose(len(eligible), select_count(0.15, len(eligible)))]
                want = tokens.copy()
                for p in chosen:
                    x = ref.uniform()
                    if x < 0.8:
                        want[p] = bpe.MASK
                    elif x < 0.9:
                        want[p] = NUM_RESERVED + ref.randint(40 - NUM_RESERVED)
                assert got.tolist() == want.tolist()
                assert got_p.tolist() == sorted(chosen.tolist())
            assert rng.u32() == ref.u32()


class TestMaskVisual:
    def test_selection_bounds_small_batch(self):
        labels = np.arange(32).reshape(4, 8) % 7
        directives, _, selected = mask_visual(labels, MaskPolicy(), Pcg32(3))
        assert 4 <= selected.sum() <= 8
        assert directives.shape == selected.shape == (4, 8)
        # only selected slots are corrupted
        assert np.all(directives[~selected] == masking.ORIGINAL)

    def test_alternative_variant_inputs_untouched(self):
        labels = np.arange(80).reshape(10, 8) % 7
        policy = MaskPolicy(visual_select_ratio=0.0)
        directives, _, selected = mask_visual(labels, policy, Pcg32(3))
        assert np.all(directives == masking.ORIGINAL)
        assert selected.sum() == round(0.15 * 80)

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
            _, _, selected = mask_visual(labels, MaskPolicy(), rng)
            chosen += selected.sum()
            total += labels.size
        assert abs(chosen / total - 0.15) < 0.005


class TestBatchAssembly:
    def _examples(self, n=4):
        cfg = GenConfig(num_examples=n, feat_dim=8, num_merges=120)
        return generate_synthetic(cfg, seed=5)

    @staticmethod
    def _regions(examples):
        return (np.stack([ex.feats for ex in examples]),
                np.stack([ex.bboxes for ex in examples]))

    def test_reconstruction_invariant(self):
        """Applying recorded targets back onto the corrupted stream and
        reverting directives reproduces the original example."""
        examples = self._examples(6)
        streams = [build_stream(ex, VTLM) for ex in examples]
        root = Pcg32(8)
        batch = build_masked_batch(examples, VTLM, MaskPolicy(), 500,
                                   root.split("t"), root.split("v"),
                                   streams=streams)
        triples = target_triples(batch)
        text = triples[triples[:, 1] < batch.text_len]
        vis = triples[triples[:, 1] >= batch.text_len]
        restored = batch.token_ids.copy()
        for b, pos, orig in text:
            restored[b, pos] = orig
        for b, s in enumerate(streams):
            assert np.array_equal(restored[b, : len(s.token_ids)], s.token_ids)
        # non-selected positions were never corrupted
        sel = {(int(b), int(p)) for b, p, _ in text}
        for b, s in enumerate(streams):
            for pos in range(len(s.token_ids)):
                if (b, pos) not in sel:
                    assert batch.token_ids[b, pos] == s.token_ids[pos]
        # visual: non-selected slots carry their original regions, and
        # targets store true labels
        feats, bboxes = self._regions(examples)
        vsel = {(int(b), int(pos) - batch.text_len) for b, pos, _ in vis}
        for b in range(len(batch.token_ids)):
            for slot in range(batch.feats.shape[1]):
                if (b, slot) not in vsel:
                    assert not batch.vis_mask[b, slot]
                    assert np.array_equal(batch.feats[b, slot], feats[b, slot])
                    assert np.array_equal(batch.bboxes[b, slot], bboxes[b, slot])
        for b, pos, lab in vis:
            assert lab == examples[b].labels[pos - batch.text_len]

    def test_substitute_uses_referenced_region(self):
        """Every substituted slot carries its donor region's feature and
        box; the donor is read from the un-substituted regions. Every slot
        is selected, so that the batch has substitutions."""
        examples = self._examples(16)
        policy = MaskPolicy(1.0)
        root = Pcg32(3)
        batch = build_masked_batch(examples, VTLM, policy, 500,
                                   root.split("t"), root.split("v"))
        labels = np.stack([ex.labels for ex in examples])
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
        def targets(batch, text):
            t = target_triples(batch)
            return t[(t[:, 1] < batch.text_len) == text]

        assert np.array_equal(b1.token_ids, b2.token_ids)
        assert np.array_equal(targets(b1, True), targets(b2, True))
        b3 = build_masked_batch(examples, VTLM, MaskPolicy(), 500,
                                Pcg32(4321).split("elsewhere"), root.split("vis"))
        assert np.array_equal(targets(b1, False), targets(b3, False))
        assert np.array_equal(b1.vis_mask, b3.vis_mask)
        assert np.array_equal(b1.feats, b3.feats)
        assert np.array_equal(b1.bboxes, b3.bboxes)

    def test_tlm_mode_has_no_visual_part(self):
        examples = self._examples(3)
        root = Pcg32(1)
        batch = build_masked_batch(examples, TLM, MaskPolicy(), 500,
                                   root.split("t"), root.split("v"))
        assert batch.feats is None and batch.bboxes is None
        assert np.all(batch.target_pos < batch.text_len)

    def test_padding_marks_short_examples(self):
        examples = self._examples(8)
        root = Pcg32(2)
        batch = build_masked_batch(examples, VTLM, MaskPolicy(), 500,
                                   root.split("t"), root.split("v"))
        assert len(batch.token_ids) == len(examples)
        for b in range(len(batch.token_ids)):
            ln = len(build_stream(examples[b], VTLM).token_ids)
            assert np.all(batch.token_ids[b, ln:] == bpe.PAD)
            assert np.all(batch.pad_mask[b, ln:])
            assert not np.any(batch.pad_mask[b, :ln])

    def test_mixed_region_counts_raise_data_error(self):
        a, b = self._examples(2)
        b = replace(b, feats=b.feats[:-1], bboxes=b.bboxes[:-1], labels=b.labels[:-1])
        root = Pcg32(2)
        with pytest.raises(DataError, match=f"{len(a.labels)} and {len(b.labels)} regions"):
            build_masked_batch([a, b], VTLM, MaskPolicy(), 500, root.split("t"), root.split("v"))
        tlm = build_masked_batch([a, b], TLM, MaskPolicy(), 500, root.split("t"), root.split("v"))
        assert tlm.feats is None


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
            _, targets = mask_text([s.token_ids for s in streams], rng, 500)
            for s, pos in zip(streams, targets):
                eligible += len(masking.eligible_positions(s.token_ids))
                selected += len(pos)
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


@pytest.mark.parametrize("objective", ["VTLM", "bogus", ""])
def test_unknown_objective_raises(objective):
    """Only TLM and VTLM are objectives; anything else used to run as TLM."""
    ex = make_example()
    with pytest.raises(ConfigError, match="unknown objective"):
        build_stream(ex, objective)
    with pytest.raises(ConfigError, match="unknown objective"):
        build_masked_batch([ex, ex], objective, MaskPolicy(), 50, Pcg32(1), Pcg32(2),
                           streams=[build_stream(ex, TLM)] * 2)


@pytest.mark.parametrize("mode", [TLM, VTLM])
@pytest.mark.parametrize("bad", [-1, 50, 51])
def test_token_id_outside_vocabulary_raises_data_error(mode, bad):
    """A bad id raises before masking could hide it behind [MASK] or turn
    it into a prediction target."""
    ex = make_example()
    bad_ex = replace(ex, src_tokens=[bad] + ex.src_tokens)
    with pytest.raises(DataError, match=f"token id {bad} outside the vocabulary"):
        build_masked_batch([ex, bad_ex], mode, MaskPolicy(), 50, Pcg32(1), Pcg32(2))
    assert build_masked_batch([ex, ex], mode, MaskPolicy(), 50, Pcg32(1), Pcg32(2)) is not None


def _pinned_examples():
    examples = generate_synthetic(GenConfig(num_examples=12, feat_dim=8, num_merges=120), seed=5)
    # one example with no maskable token: masking skips it, so kept rows
    # and example indices part ways after it
    examples[4] = replace(examples[4], src_tokens=[], tgt_tokens=[])
    return examples


@pytest.mark.parametrize("mode, ratio, n, seed, digest", [
    (VTLM, 0.15, 12, 1, "d90f6c7631cfe0f7"),
    (VTLM, 0.5, 12, 2, "47624e2b494c96e4"),
    (VTLM, 0.0, 12, 3, "204ece1c4f42b56c"),
    # one example: a slot drawn for substitution has no donor and re-draws
    (VTLM, 1.0, 1, 7, "33cd71b05331c2cf"),
    (TLM, 0.15, 12, 5, "ba0ba1d4490222e9"),
], ids=["vtlm", "vtlm-half", "vtlm-ratio-0", "vtlm-one-example", "tlm"])
def test_masking_draws_are_pinned(mode, ratio, n, seed, digest):
    """Every masking draw is pinned: the corrupted inputs' bytes and the
    (example, encoder position, id) target triples in that order, which
    do not depend on how a batch lays its targets out."""
    root = Pcg32(seed)
    batch = build_masked_batch(_pinned_examples()[:n], mode, MaskPolicy(ratio), 500,
                               root.split("t"), root.split("v"))
    h = hashlib.sha256()
    for a in (batch.token_ids, batch.feats, batch.bboxes, batch.vis_mask,
              target_triples(batch)):
        if a is not None:
            h.update(repr((a.dtype.str, a.shape)).encode())
            h.update(np.ascontiguousarray(a).tobytes())
    assert h.hexdigest()[:16] == digest
