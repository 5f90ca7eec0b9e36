"""Masked-batch construction for the two pretraining objectives.

Text masking follows XLM's recipe, fixed by module constants:
SELECT_RATIO (15%) of eligible (non-special) positions are selected, of
which MASK_FRAC (80%) become [MASK], RANDOM_FRAC (10%) a random
non-reserved token and KEEP_FRAC (10%) stay intact; the original token
is always recorded as the prediction target. Visual masking selects
`MaskPolicy.visual_select_ratio` (in [0, 1], 15% by default) of region
slots pooled over the whole batch, independently of text masking and on
its own PRNG stream, and splits them by the same fractions into the
[MASK] token embedding, a region drawn from another example in the
batch, and intact slots. A visual ratio of 0 gives the alternative
objective: region inputs stay untouched while label-prediction
positions are still chosen at SELECT_RATIO.

`mask_visual` states its corruption as per-slot directives (ORIGINAL,
MASK_EMBED, SUBSTITUTE); `build_masked_batch` resolves them into the
model's input format, so no other module reads them: a substituted slot
gets its donor region's feature and box, a masked slot sets `vis_mask`.

Stream layout (positions restart at 0 at every [BOS]; the [SEP]
closing a segment carries that segment's language id):

    [BOS] s1 [EOS] [SEP] [BOS] s2 [EOS] [SEP]  (v_1 .. v_o)
"""

from __future__ import annotations

import logging
from dataclasses import dataclass

import numpy as np

from . import bpe
from .bpe import BOS, EOS, LANG_L1, LANG_L2, NUM_RESERVED, SEP
from .data import TripletExample
from .errors import ConfigError
from .model import MaskedBatch, collate
from .rng import Pcg32

log = logging.getLogger(__name__)

# visual slot directives
ORIGINAL, MASK_EMBED, SUBSTITUTE = 0, 1, 2

TLM, VTLM = "tlm", "vtlm"

SELECT_RATIO = 0.15
MASK_FRAC = 0.80
RANDOM_FRAC = 0.10
KEEP_FRAC = 0.10


def round_count(x: float) -> int:
    """round-half-up, platform independent."""
    return int(np.floor(x + 0.5))


@dataclass(frozen=True)
class MaskPolicy:
    visual_select_ratio: float = 0.15

    def __post_init__(self):
        if not 0.0 <= self.visual_select_ratio <= 1.0:
            raise ConfigError(
                f"visual_select_ratio must be in [0, 1], got {self.visual_select_ratio}")


@dataclass
class Stream:
    """One example laid out as a single encoder input."""

    token_ids: np.ndarray     # text part, int64
    pos_ids: np.ndarray
    lang_ids: np.ndarray

    @property
    def text_len(self) -> int:
        return len(self.token_ids)


def build_stream(example: TripletExample, mode: str, max_len: int = 256) -> Stream:
    """Lay out one example; text segments are tail-truncated to fit,
    regions never are."""
    o = len(example.regions) if mode == VTLM else 0
    src = list(example.src_tokens)
    tgt = list(example.tgt_tokens)
    budget = max_len - o - 6
    if budget < 2:
        raise ConfigError(f"max_len={max_len} cannot fit {o} regions")
    while len(src) + len(tgt) > budget:
        if len(src) >= len(tgt) and len(src) > 1:
            src.pop()
        elif len(tgt) > 1:
            tgt.pop()
        else:
            src.pop()
    m, n = len(src), len(tgt)

    token_ids = np.array([BOS] + src + [EOS, SEP, BOS] + tgt + [EOS, SEP], dtype=np.int64)
    pos_ids = np.concatenate([np.arange(m + 3), np.arange(n + 3)])
    lang_ids = np.array([LANG_L1] * (m + 3) + [LANG_L2] * (n + 3), dtype=np.int64)
    return Stream(token_ids, pos_ids, lang_ids)


def eligible_positions(token_ids: np.ndarray) -> np.ndarray:
    return np.flatnonzero(token_ids >= NUM_RESERVED)


def select_count(ratio: float, n_eligible: int) -> int:
    if n_eligible == 0:
        return 0
    return max(1, round_count(ratio * n_eligible))


def mask_text(token_ids: np.ndarray, rng: Pcg32,
              vocab_size: int) -> tuple[np.ndarray, dict[int, int]]:
    """Corrupt one stream's text part; returns (masked ids, targets)."""
    eligible = eligible_positions(token_ids)
    masked = token_ids.copy()
    targets: dict[int, int] = {}
    n_sel = select_count(SELECT_RATIO, len(eligible))
    if n_sel == 0:
        log.warning("no eligible tokens to mask; example skipped")
        return masked, targets
    chosen = eligible[rng.choose(len(eligible), n_sel)]
    for pos in chosen:
        pos = int(pos)
        targets[pos] = int(token_ids[pos])
        u = rng.uniform()
        if u < MASK_FRAC:
            masked[pos] = bpe.MASK
        elif u < MASK_FRAC + RANDOM_FRAC:
            masked[pos] = NUM_RESERVED + rng.randint(vocab_size - NUM_RESERVED)
        # else: left intact
    return masked, targets


def mask_visual(region_labels: np.ndarray, policy: MaskPolicy, rng: Pcg32):
    """Select and corrupt region slots, pooled over the batch.

    region_labels is (B, o). Returns (directives (B, o), substitutes
    (B, o, 2), targets {(b, slot): label}).
    """
    b_size, o = region_labels.shape
    directives = np.full((b_size, o), ORIGINAL, dtype=np.int8)
    substitutes = np.zeros((b_size, o, 2), dtype=np.int64)
    targets: dict[tuple[int, int], int] = {}

    alternative = policy.visual_select_ratio == 0.0
    ratio = SELECT_RATIO if alternative else policy.visual_select_ratio
    n_sel = select_count(ratio, b_size * o)
    if n_sel == 0:
        return directives, substitutes, targets
    flat = rng.choose(b_size * o, n_sel)
    for f in flat:
        b, slot = divmod(int(f), o)
        targets[(b, slot)] = int(region_labels[b, slot])
        if alternative:
            continue  # inputs stay intact; only prediction positions chosen
        u = rng.uniform()
        if u < MASK_FRAC:
            directives[b, slot] = MASK_EMBED
        elif u < MASK_FRAC + RANDOM_FRAC:
            if b_size < 2:
                # degenerate batch: no other image to draw from; re-draw
                # between mask and keep in their 8:1 proportion
                if rng.uniform() < MASK_FRAC / (MASK_FRAC + KEEP_FRAC):
                    directives[b, slot] = MASK_EMBED
                continue
            other = rng.randint(b_size - 1)
            if other >= b:
                other += 1
            directives[b, slot] = SUBSTITUTE
            substitutes[b, slot] = (other, rng.randint(o))
        # else: left intact
    return directives, substitutes, targets


def build_masked_batch(examples: list[TripletExample], mode: str,
                       policy: MaskPolicy, vocab_size: int,
                       rng_text: Pcg32, rng_visual: Pcg32,
                       streams: list[Stream] | None = None) -> MaskedBatch | None:
    """Assemble a padded MaskedBatch; returns None if nothing is maskable.

    `streams` are the examples' layouts; by default `build_stream` lays
    them out at its default length. The visual directives are resolved
    here: a SUBSTITUTE slot takes its donor's feature and box from the
    un-substituted region stack, a MASK_EMBED slot is flagged in
    `vis_mask`. Raises DataError when the kept examples have different
    region counts.
    """
    if streams is None:
        streams = [build_stream(ex, mode) for ex in examples]
    rows, regions = [], []
    tpos, tids = [], []
    for ex, s in zip(examples, streams):
        masked, targets = mask_text(s.token_ids, rng_text, vocab_size)
        if not targets:
            continue
        for pos, orig in sorted(targets.items()):
            tpos.append((len(rows), pos))
            tids.append(orig)
        rows.append((masked, s.pos_ids, s.lang_ids))
        regions.append(ex.regions)
    if not rows:
        log.warning("batch skipped: no maskable examples")
        return None
    batch = MaskedBatch(
        **vars(collate(rows, regions if mode == VTLM else None)),
        text_target_pos=np.array(tpos, dtype=np.int64).reshape(-1, 2),
        text_target_ids=np.array(tids, dtype=np.int64),
    )
    if mode == VTLM:
        labels = np.array([[r.label for r in rs] for rs in regions], dtype=np.int64)
        directives, substitutes, vtargets = mask_visual(labels, policy, rng_visual)
        b, slot = np.nonzero(directives == SUBSTITUTE)
        donor, donor_slot = substitutes[b, slot].T
        batch.feats[b, slot] = batch.feats[donor, donor_slot]
        batch.bboxes[b, slot] = batch.bboxes[donor, donor_slot]
        batch.vis_mask = directives == MASK_EMBED
        batch.vis_target_pos = np.array(sorted(vtargets), dtype=np.int64).reshape(-1, 2)
        batch.vis_target_ids = np.array([vtargets[tuple(p)] for p in batch.vis_target_pos],
                                        dtype=np.int64)
    return batch
