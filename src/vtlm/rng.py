"""Deterministic PCG32 random streams.

All randomness in the project flows through `Pcg32`, a plain PCG-XSH-RR
64/32 generator. Consumers never share a generator: each gets its own
stream derived from the experiment seed and a label, e.g.

    root = Pcg32(seed)
    rng_init    = root.split("init")
    rng_dropout = root.split("dropout/1234")   # per training step

Stream splitting hashes the label with FNV-1a, mixes it into the root
stream's identity with SplitMix64, and uses the label hash as the PCG
stream selector, so streams are stable across platforms and do not
depend on how far the parent has advanced.

Bulk generation closes the LCG recurrence in numpy uint64 arithmetic:
state_i = a^i * s0 + (sum_{j<i} a^j) * c mod 2^64. The tables of a^i and
sum_{j<i} a^j are built once, at import, for a fixed block of `BLOCK`
entries (2 x 64 KB). A request for n values is filled block by block,
each block starting from the state that follows the last one of the
block before, so the draws and the state afterwards equal n scalar
steps bit for bit, and no temporary grows with n.
"""

from __future__ import annotations

import numpy as np

_MULT = 6364136223846793005
_MASK64 = (1 << 64) - 1

BLOCK = 8192
_POWS = np.empty(BLOCK, dtype=np.uint64)   # a^i
_POWS[0] = 1
_POWS[1:] = np.uint64(_MULT)
np.cumprod(_POWS, out=_POWS)
_SUMS = np.zeros(BLOCK, dtype=np.uint64)   # sum_{j<i} a^j
np.cumsum(_POWS[:-1], out=_SUMS[1:])

_FNV_OFFSET = 0xCBF29CE484222325
_FNV_PRIME = 0x100000001B3


def _fnv1a64(data: bytes) -> int:
    h = _FNV_OFFSET
    for b in data:
        h = ((h ^ b) * _FNV_PRIME) & _MASK64
    return h


def _splitmix64(x: int) -> int:
    x = (x + 0x9E3779B97F4A7C15) & _MASK64
    x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & _MASK64
    return x ^ (x >> 31)


def derive_seed(seed: int, label: str) -> int:
    """Stable 64-bit child seed for a named sub-experiment or shard."""
    return _splitmix64((seed & _MASK64) ^ _fnv1a64(label.encode("utf-8")))


class Pcg32:
    """PCG-XSH-RR 64/32 with vectorised block output."""

    def __init__(self, seed: int, seq: int = 0):
        self._state = 0
        self._inc = ((seq << 1) | 1) & _MASK64
        self._step()
        self._state = (self._state + (seed & _MASK64)) & _MASK64
        self._step()
        # Identity of the stream for split(); fixed at construction so
        # derived streams do not depend on draw order.
        self._ident = _splitmix64((self._state * 31 + self._inc) & _MASK64)

    def _step(self) -> None:
        self._state = (self._state * _MULT + self._inc) & _MASK64

    def split(self, label: str) -> "Pcg32":
        """Derive an independent child stream for a named consumer."""
        h = _fnv1a64(label.encode("utf-8"))
        return Pcg32(_splitmix64(self._ident ^ h), seq=h)

    def u32(self, n: int | None = None):
        """Next raw 32-bit output; an array of n outputs when n is given.

        The array is filled `BLOCK` values at a time from the fixed
        tables, so a call costs O(n) time and O(BLOCK) scratch memory
        beyond its output, and leaves the generator where n scalar calls
        would.
        """
        if n is None:
            old = self._state
            self._step()
            return self._output_scalar(old)
        out = np.empty(max(n, 0), dtype=np.uint32)
        inc = np.uint64(self._inc)
        for lo in range(0, n, BLOCK):
            m = min(BLOCK, n - lo)
            states = _POWS[:m] * np.uint64(self._state) + _SUMS[:m] * inc
            # the state after the block's last draw starts the next block
            self._state = (int(states[-1]) * _MULT + self._inc) & _MASK64
            out[lo:lo + m] = self._output_array(states)
        return out

    @staticmethod
    def _output_scalar(state: int) -> int:
        xorshifted = (((state >> 18) ^ state) >> 27) & 0xFFFFFFFF
        rot = state >> 59
        return ((xorshifted >> rot) | (xorshifted << ((32 - rot) & 31))) & 0xFFFFFFFF

    @staticmethod
    def _output_array(states: np.ndarray) -> np.ndarray:
        xorshifted = (((states >> np.uint64(18)) ^ states) >> np.uint64(27)).astype(np.uint32)
        rot = (states >> np.uint64(59)).astype(np.uint32)
        return (xorshifted >> rot) | (xorshifted << ((np.uint32(32) - rot) & np.uint32(31)))

    def uniform(self, size=None):
        """Uniform doubles in (0, 1)."""
        if size is None:
            return (self.u32() + 0.5) * 2.0**-32
        n = int(np.prod(size)) if not np.isscalar(size) else int(size)
        u = (self.u32(n).astype(np.float64) + 0.5) * 2.0**-32
        return u.reshape(size) if not np.isscalar(size) else u

    def normal(self, size=None, dtype=np.float32):
        """Standard normal draws via Box-Muller."""
        scalar = size is None
        n = 1 if scalar else (int(np.prod(size)) if not np.isscalar(size) else int(size))
        m = (n + 1) // 2
        u1 = self.uniform(m)
        u2 = self.uniform(m)
        r = np.sqrt(-2.0 * np.log(u1))
        theta = 2.0 * np.pi * u2
        z = np.concatenate([r * np.cos(theta), r * np.sin(theta)])[:n]
        z = z.astype(dtype)
        if scalar:
            return float(z[0])
        return z.reshape(size) if not np.isscalar(size) else z

    def randint(self, n: int, size=None):
        """Integers in [0, n) (multiply-shift reduction)."""
        if size is None:
            return int((self.u32() * n) >> 32)
        k = int(np.prod(size)) if not np.isscalar(size) else int(size)
        vals = (self.u32(k).astype(np.uint64) * np.uint64(n)) >> np.uint64(32)
        vals = vals.astype(np.int64)
        return vals.reshape(size) if not np.isscalar(size) else vals

    def permutation(self, n: int) -> np.ndarray:
        """Deterministic permutation of range(n) by sorting random keys."""
        keys = self.u32(n)
        return np.argsort(keys, kind="stable")

    def choose(self, n: int, k: int) -> np.ndarray:
        """k distinct indices out of range(n), in random order."""
        if k > n:
            raise ValueError(f"cannot choose {k} from {n}")
        return self.permutation(n)[:k]

    def derangement(self, n: int) -> np.ndarray:
        """Permutation of range(n) with no fixed point (n >= 2)."""
        if n < 2:
            raise ValueError("derangement needs n >= 2")
        while True:
            perm = self.permutation(n)
            if not np.any(perm == np.arange(n)):
                return perm
