"""Scaffolding the tests share and the package itself never runs:
summing, matmul and reshape ops and a finite-difference gradient check
for the autograd tape, and the one-seed corpus and nearest-centre
classifier that several test corpora and oracles are built from."""

from __future__ import annotations

import numpy as np

from vtlm.bpe import BpeCodec
from vtlm.data import TripletExample
from vtlm.synthetic import GenConfig, encode_examples, generate_raw, label_centers, raw_sentences
from vtlm.tensor import Tensor, _make, no_grad


def tsum(a: Tensor) -> Tensor:
    data = a.data.sum()

    def bw(g):
        if a.requires_grad:
            a._accumulate(np.broadcast_to(g, a.data.shape).copy())

    return _make(data, (a,), bw)


def matmul(a: Tensor, b: Tensor) -> Tensor:
    """(..., n, k) @ (..., k, m) over equal batch dims (none for a 2-D
    product): no broadcast, so neither gradient is reduced."""
    if a.data.shape[:-2] != b.data.shape[:-2]:
        raise ValueError(f"matmul batch dims differ: {a.data.shape} @ {b.data.shape}")
    data = np.matmul(a.data, b.data)

    def bw(g):
        if a.requires_grad:
            a._accumulate(np.matmul(g, np.swapaxes(b.data, -1, -2)))
        if b.requires_grad:
            b._accumulate(np.matmul(np.swapaxes(a.data, -1, -2), g))

    return _make(data, (a, b), bw)


def reshape(a: Tensor, shape) -> Tensor:
    old = a.data.shape
    data = a.data.reshape(shape)

    def bw(g):
        if a.requires_grad:
            a._accumulate(g.reshape(old))

    return _make(data, (a,), bw)


def gradcheck(build_loss, tensors: list[Tensor], n_samples: int, rng, h: float = 1e-3):
    """Compare tape gradients against central finite differences.

    build_loss() must rebuild the forward pass from the current tensor
    values. Returns the maximum relative error
    |g_ad - g_fd| / max(1e-8, |g_ad| + |g_fd|) over the sampled
    coordinates, spread across all given tensors.
    """
    for t in tensors:
        t.grad = None
    loss = build_loss()
    loss.backward()
    grads = [t.grad.copy() if t.grad is not None else np.zeros_like(t.data) for t in tensors]

    worst = 0.0
    per_tensor = max(1, n_samples // len(tensors))
    for t, g_ad in zip(tensors, grads):
        flat = t.data.reshape(-1)
        for _ in range(per_tensor):
            i = rng.randint(flat.size)
            orig = flat[i]
            with no_grad():
                flat[i] = orig + h
                up = float(build_loss().data)
                flat[i] = orig - h
                down = float(build_loss().data)
            flat[i] = orig
            g_fd = (up - down) / (2.0 * h)
            g = float(g_ad.reshape(-1)[i])
            err = abs(g - g_fd) / max(1e-8, abs(g) + abs(g_fd))
            worst = max(worst, err)
    return worst


def generate_synthetic(cfg: GenConfig, seed: int) -> list[TripletExample]:
    """Generate cfg.num_examples encoded triplets from one seed, with a
    joint BPE codec learned from the generated sentences."""
    centers = label_centers(cfg, seed)
    raw = generate_raw(cfg, seed, centers)
    codec = BpeCodec.learn(raw_sentences(raw), cfg.num_merges)
    return encode_examples(raw, codec)


def nearest_center_labels(feats: np.ndarray, centers: np.ndarray) -> np.ndarray:
    """Independent nearest-centroid classifier used as a grounding oracle."""
    # |f - c|^2 = |f|^2 - 2 f.c + |c|^2 ; the |f|^2 term is constant per row
    scores = feats @ centers.T - 0.5 * (centers * centers).sum(axis=1)
    return np.argmax(scores, axis=1)
