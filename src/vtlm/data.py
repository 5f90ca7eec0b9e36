"""Triplet dataset records and line-oriented file I/O.

In memory, an example's o detector regions are three arrays in the
layout of one row of `model.EncoderBatch`: `feats` (o, D) float32
pooled features, `bboxes` (o, 4) float32 normalised (x1, y1, x2, y2)
boxes and `labels` (o,) int64 detector labels.

A triplet file is UTF-8 JSON lines: a one-line header
{"version", "D", "o", "label_vocab"} followed by one record per line
with fields {id, src, tgt, regions, entities}, where `regions` lists
one {label, bbox, feat} object per region. Token fields hold
vocabulary ids; region features are float32 round-tripped exactly
through their decimal representation. The same format ingests real
precomputed detector features.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .errors import DataError

FORMAT_VERSION = 1


class EntitySpan(NamedTuple):
    stream: str  # "src" or "tgt"
    start: int   # token index, inclusive
    end: int     # token index, exclusive


@dataclass(eq=False)  # == on the region arrays would raise
class TripletExample:
    """One (source sentence, target sentence, region set) training unit."""

    id: str
    src_tokens: list[int]
    tgt_tokens: list[int]
    feats: np.ndarray    # (o, D) float32
    bboxes: np.ndarray   # (o, 4) float32
    labels: np.ndarray   # (o,) int64
    entity_spans: list[EntitySpan] = field(default_factory=list)


def write_triplets(path, examples: list[TripletExample], feat_dim: int,
                   num_regions: int, label_vocab: int) -> None:
    """Write examples under the header {D, o, label_vocab}. Every example
    is checked as `load_triplets` checks a record, and the file is opened
    only once all pass, so a rejected write (DataError naming the
    example) leaves no file behind."""
    header = {
        "version": FORMAT_VERSION,
        "D": feat_dim,
        "o": num_regions,
        "label_vocab": label_vocab,
    }
    lines = [json.dumps(header, sort_keys=True)]
    for ex in examples:
        try:
            rec = {
                "id": ex.id,
                "src": [_integer(t, "token id") for t in ex.src_tokens],
                "tgt": [_integer(t, "token id") for t in ex.tgt_tokens],
                "regions": [
                    {"label": label, "bbox": bbox, "feat": feat}
                    for feat, bbox, label in zip(ex.feats.tolist(), ex.bboxes.tolist(),
                                                 ex.labels.tolist())
                ],
                "entities": [
                    {"stream": s.stream, "start": _integer(s.start, "span start"),
                     "end": _integer(s.end, "span end")}
                    for s in ex.entity_spans
                ],
            }
        except ValueError as e:
            raise DataError(f"example {ex.id}: {e}") from None
        problem = _example_problem(ex, feat_dim, num_regions, label_vocab)
        if problem is not None:
            raise DataError(f"example {ex.id}: {problem}")
        lines.append(json.dumps(rec, sort_keys=True))
    with open(path, "w", encoding="utf-8") as f:
        f.write("\n".join(lines) + "\n")


def _example_problem(ex: TripletExample, feat_dim: int, num_regions: int,
                     label_vocab: int) -> str | None:
    """What is wrong with one example under a file header, or None: the
    region arrays are checked as whole arrays."""
    if not ex.src_tokens or not ex.tgt_tokens:
        return "empty sentence"
    if len(ex.labels) != num_regions:
        return f"{len(ex.labels)} regions, header says {num_regions}"
    if ex.feats.shape != (num_regions, feat_dim):
        return f"region features of shape {ex.feats.shape}, header says D = {feat_dim}"
    if ex.bboxes.shape != (num_regions, 4):
        return f"boxes of shape {ex.bboxes.shape}, not ({num_regions}, 4)"
    if not np.all(np.isfinite(ex.feats)):
        return "a region feature contains non-finite values"
    x1, y1, x2, y2 = ex.bboxes.T
    ok = (0.0 <= x1) & (x1 < x2) & (x2 <= 1.0) & (0.0 <= y1) & (y1 < y2) & (y2 <= 1.0)
    if not np.all(ok):
        return f"invalid bbox {ex.bboxes[np.argmin(ok)]}"
    if ex.labels.dtype.kind not in "iu":
        return f"region labels of dtype {ex.labels.dtype}, not integers"
    bad = (ex.labels < 0) | (ex.labels >= label_vocab)
    if np.any(bad):
        return f"region label {ex.labels[bad][0]} outside [0, {label_vocab})"
    streams = {"src": len(ex.src_tokens), "tgt": len(ex.tgt_tokens)}
    for span in ex.entity_spans:
        if span.stream not in streams:
            return f"entity span on stream {span.stream!r}, not 'src' or 'tgt'"
        if not 0 <= span.start < span.end <= streams[span.stream]:
            return (f"entity span [{span.start}, {span.end}) does not fit the "
                    f"{streams[span.stream]} tokens of {span.stream}")
    return None


def _integer(value, what: str) -> int:
    """A Python or numpy integer as int; 3.7, "3" or True raise ValueError."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise ValueError(f"{what} {value!r} is not an integer")
    return int(value)


def load_triplets(path, expect_feat_dim: int | None = None):
    """Read a triplet file; returns (examples, header). Raises DataError
    naming the line of a malformed record, a token id, label or span
    bound that is not an integer, an empty sentence, regions that do
    not fit the header (a count other than `o`, features not `D` long or
    not finite, a box outside 0 <= x1 < x2 <= 1, 0 <= y1 < y2 <= 1, or a
    label outside [0, `label_vocab`)), or an entity span that is not
    0 <= start < end <= length on stream `src` or `tgt`."""
    examples: list[TripletExample] = []
    with open(path, encoding="utf-8") as f:
        first = f.readline()
        if not first:
            raise DataError(f"{path}: empty file")
        try:
            header = json.loads(first)
        except json.JSONDecodeError as e:
            raise DataError(f"{path}: malformed header at line 1: {e}") from e
        for key in ("version", "D", "o", "label_vocab"):
            if key not in header:
                raise DataError(f"{path}: header missing field {key!r}")
        if header["version"] != FORMAT_VERSION:
            raise DataError(f"{path}: unsupported format version {header['version']}")
        if expect_feat_dim is not None and header["D"] != expect_feat_dim:
            raise DataError(
                f"{path}: feature dim {header['D']} does not match expected {expect_feat_dim}"
            )
        feat_dim, num_regions, label_vocab = header["D"], header["o"], header["label_vocab"]
        for line_no, line in enumerate(f, start=2):
            if not line.strip():
                continue
            try:
                rec = json.loads(line)
                regions = rec["regions"]
                ex = TripletExample(
                    id=rec["id"],
                    src_tokens=[_integer(t, "token id") for t in rec["src"]],
                    tgt_tokens=[_integer(t, "token id") for t in rec["tgt"]],
                    feats=np.array([r["feat"] for r in regions],
                                   dtype=np.float32).reshape(len(regions), feat_dim),
                    bboxes=np.array([r["bbox"] for r in regions],
                                    dtype=np.float32).reshape(len(regions), 4),
                    labels=np.array([_integer(r["label"], "region label") for r in regions],
                                    dtype=np.int64),
                    entity_spans=[
                        EntitySpan(e["stream"], _integer(e["start"], "span start"),
                                   _integer(e["end"], "span end"))
                        for e in rec.get("entities", [])
                    ],
                )
            except (json.JSONDecodeError, KeyError, TypeError, ValueError, OverflowError) as e:
                raise DataError(f"{path}: malformed record at line {line_no}: {e}") from e
            problem = _example_problem(ex, feat_dim, num_regions, label_vocab)
            if problem is not None:
                raise DataError(f"{path}: {problem} at line {line_no}")
            examples.append(ex)
    return examples, header
