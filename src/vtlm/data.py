"""Triplet dataset records.

An example's o detector regions are three arrays in the layout of one
row of `model.EncoderBatch`: `feats` (o, D) float32 pooled features,
`bboxes` (o, 4) float32 normalised (x1, y1, x2, y2) boxes and `labels`
(o,) int64 detector labels. Token fields hold vocabulary ids, and an
entity span marks the tokens of one object mention.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np


class EntitySpan(NamedTuple):
    stream: str  # "src" or "tgt"
    start: int   # token index, inclusive
    end: int     # token index, exclusive


@dataclass(eq=False)  # == on the region arrays would raise
class TripletExample:
    """One (source sentence, target sentence, region set) training unit."""

    src_tokens: list[int]
    tgt_tokens: list[int]
    feats: np.ndarray    # (o, D) float32
    bboxes: np.ndarray   # (o, 4) float32
    labels: np.ndarray   # (o,) int64
    entity_spans: list[EntitySpan] = field(default_factory=list)
