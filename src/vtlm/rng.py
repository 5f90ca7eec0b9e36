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

Each stream holds one buffer of generated words, and every draw reads
the stream's next words from it: `u32()` one, `u32(n)` n, and
`uniform`, `randint`, `choose`, `permutation`, `normal` and `raw32`'s
seed through them. So any mix of scalar and bulk draws reads the words
that as many scalar PCG32 steps would give, in order. A buffer that runs
short is refilled by `_generate`, which closes the LCG recurrence in
numpy uint64 arithmetic: state_i = a^i * s0 + (sum_{j<i} a^j) * c mod
2^64. The tables of a^i and sum_{j<i} a^j are built once, at import, for
a fixed block of `BLOCK` entries (2 x 256 KB). A request for n words is
filled block by block, each block starting from the state that follows
the last one of the block before, so the words and the state afterwards
equal n scalar steps bit for bit, and no temporary grows with n.

Dropout, a training step's bulk of draws (over a million 32-bit values
per desk-sized step), reads `raw32` instead: the 32-bit halves of the
64-bit words of numpy's PCG64 bit generator, seeded from four of the
stream's own `u32` draws. numpy's PCG64 documentation guarantees that a
fixed seed always produces the same random integer stream; its
`Generator` distributions carry no such guarantee, so only `random_raw`
is read. Every other draw (corpus generation, initialisation, shuffling,
masking) stays on PCG32, so corpora and initial parameters do not depend
on numpy's PCG64 at all.

Dropout is addressed by rows. A training step runs its batch of B rows
as row windows (`Pcg32.windows`), each with its own `RowWindow` on one
PCG64 seed. A window's draw of R words per row reads exactly the words
that the whole batch's draw of B * R words gives its rows, and skips
the others with `PCG64.advance`, so the windows of a step draw the mask
of the whole batch between them. `raw32` is the window [0, 1) of a
one-row batch: each call reads the next words, as a whole-batch draw
does.

Corpus generation reads one bulk `u32` call per chunk of examples and
turns the words into values with the same word -> value transforms the
scalar methods use (`multiply_shift`, `unit_uniform`, `argsort_keys`,
`box_muller`), so moving the corpus onto PCG64 words (ROADMAP item 11)
replaces that one call.
"""

from __future__ import annotations

import numpy as np

from .errors import DataError

_MULT = 6364136223846793005
_MASK64 = (1 << 64) - 1

BLOCK = 32768
_POWS = np.empty(BLOCK, dtype=np.uint64)   # a^i
_POWS[0] = 1
_POWS[1:] = np.uint64(_MULT)
np.cumprod(_POWS, out=_POWS)
_SUMS = np.zeros(BLOCK, dtype=np.uint64)   # sum_{j<i} a^j
np.cumsum(_POWS[:-1], out=_SUMS[1:])

# Words generated per buffer refill. Masking a desk-sized VTLM batch of 64
# examples from fresh text, visual and dropout streams took 1.20, 1.04,
# 0.99 and 1.01 ms at 64, 256, 1024 and 4096 (one x86-64 thread): small
# refills pay numpy's per-call cost often, large ones generate words that
# a short-lived stream never reads.
REFILL = 1024

_U18, _U27, _U32, _U59 = (np.uint64(k) for k in (18, 27, 32, 59))
_LOW32 = np.uint64(0xFFFFFFFF)

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


def multiply_shift(words, n: int):
    """Integers in [0, n) from 32-bit words: (word * n) >> 32. `words` is
    a Python int or a uint64 array, so that the product does not wrap."""
    return (words * n) >> 32


def unit_uniform(words):
    """Doubles in (0, 1) from 32-bit words: (word + 0.5) * 2**-32."""
    return (words + 0.5) * 2.0**-32


def argsort_keys(keys: np.ndarray) -> np.ndarray:
    """The order that sorts each row of keys, ties in index order."""
    return np.argsort(keys, axis=-1, kind="stable")


def box_muller(u: np.ndarray, n: int) -> np.ndarray:
    """n float64 standard normals along the last axis of u, which holds
    2 * ceil(n / 2) uniforms: a radius block, then an angle block. The
    cosine draws come first, then the sine draws, cut to n."""
    m = u.shape[-1] // 2
    r = np.sqrt(-2.0 * np.log(u[..., :m]))
    theta = 2.0 * np.pi * u[..., m:]
    return np.concatenate([r * np.cos(theta), r * np.sin(theta)], axis=-1)[..., :n]


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
        self._words = np.empty(0, dtype=np.uint32)  # generated ahead of _state
        self._pos = 0  # words of the buffer already drawn
        self._bits = None  # the PCG64 bit generator of raw32, once drawn from

    def _step(self) -> None:
        self._state = (self._state * _MULT + self._inc) & _MASK64

    def split(self, label: str) -> "Pcg32":
        """Derive an independent child stream for a named consumer."""
        h = _fnv1a64(label.encode("utf-8"))
        return Pcg32(_splitmix64(self._ident ^ h), seq=h)

    def u32(self, n: int | None = None):
        """The stream's next 32-bit word, as an int; an array of its next
        n words when n is given.

        The words are read from the stream's buffer. One that runs short
        is refilled with the words it lacks, and at least `REFILL` of them.
        """
        k = 1 if n is None else max(n, 0)
        if self._pos + k > len(self._words):
            rest = self._words[self._pos:]
            fresh = self._generate(max(k - len(rest), REFILL))
            self._words = np.concatenate([rest, fresh]) if len(rest) else fresh
            self._pos = 0
        lo = self._pos
        self._pos += k
        return int(self._words[lo]) if n is None else self._words[lo:self._pos]

    def _generate(self, n: int) -> np.ndarray:
        """The n words that follow the state, which is left after them.

        The words are computed `BLOCK` at a time from the fixed tables, so
        a call costs O(n) time and O(BLOCK) scratch memory beyond its
        output.
        """
        out = np.empty(n, dtype=np.uint32)
        inc = np.uint64(self._inc)
        for lo in range(0, n, BLOCK):
            m = min(BLOCK, n - lo)
            states = _POWS[:m] * np.uint64(self._state)
            states += _SUMS[:m] * inc
            # the state after the block's last draw starts the next block
            self._state = (int(states[-1]) * _MULT + self._inc) & _MASK64
            # XSH-RR in uint64: x = xorshifted, doubled as (x << 32) | x so
            # that its low 32 bits after >> rot are x rotated right by rot
            x = states >> _U18
            x ^= states
            x >>= _U27
            x &= _LOW32
            x |= x << _U32
            states >>= _U59
            x >>= states
            out[lo:lo + m] = x  # keeps the low 32 bits
        return out

    def raw32(self, n: int) -> np.ndarray:
        """n raw 32-bit words from numpy's PCG64, for bulk draws.

        The first call seeds `np.random.PCG64` from the next four `u32`
        draws. A call takes ceil(n / 2) 64-bit words of `random_raw` and
        returns their little-endian 32-bit halves, low half first, whatever
        the platform's byte order; the spare half of an odd n is dropped.
        """
        if self._bits is None:
            (self._bits,) = self.windows([(0, 1)], 1)
        return self._bits.raw32(n)

    def windows(self, bounds, rows: int) -> list["RowWindow"]:
        """One `RowWindow` per (lo, hi) of `bounds` onto the `raw32` draws
        of a `rows`-row batch, all on one PCG64 seeded from the next four
        `u32` draws. Raises ValueError unless 0 <= lo < hi <= rows."""
        seed = self.u32(4).tolist()
        return [RowWindow(seed, lo, hi, rows) for lo, hi in bounds]

    def uniform(self, size=None):
        """Uniform doubles in (0, 1)."""
        if size is None:
            return unit_uniform(self.u32())
        return unit_uniform(self.u32(int(np.prod(size)))).reshape(size)

    def normal(self, size, dtype=np.float32):
        """Standard normal draws via Box-Muller, in an array of `size`."""
        n = int(np.prod(size))
        u = unit_uniform(self.u32(2 * ((n + 1) // 2)))
        return box_muller(u, n).astype(dtype).reshape(size)

    def randint(self, n: int) -> int:
        """An integer in [0, n) (multiply-shift reduction)."""
        return int(multiply_shift(self.u32(), n))

    def permutation(self, n: int) -> np.ndarray:
        """Deterministic permutation of range(n) by sorting random keys."""
        return argsort_keys(self.u32(n))

    def choose(self, n: int, k: int) -> np.ndarray:
        """k distinct indices out of range(n), in random order."""
        if k > n:
            raise ValueError(f"cannot choose {k} from {n}")
        return self.permutation(n)[:k]

    def derangement(self, n: int) -> np.ndarray:
        """Permutation of range(n) with no fixed point (n >= 2)."""
        if n < 2:
            raise DataError(f"derangement needs n >= 2, got {n}")
        while True:
            perm = self.permutation(n)
            if not np.any(perm == np.arange(n)):
                return perm


class RowWindow:
    """Rows [lo, hi) of every `raw32` draw a `rows`-row batch makes.

    A call `raw32(n)` is the window's part of one draw: its n words are
    R = n / (hi - lo) per row. The whole batch's draw would take the
    32-bit halves of the next ceil(rows * R / 2) PCG64 words, and the
    window returns halves [lo * R, hi * R) of them. It advances the
    generator past the words before and after them, so its next call
    starts where the whole batch's next draw would. The window [0, rows)
    reads what `random_raw` gives, advancing nothing. The generator is
    made on the first call, on the thread that draws.
    """

    def __init__(self, seed: list[int], lo: int, hi: int, rows: int):
        if not 0 <= lo < hi <= rows:
            raise ValueError(f"rows [{lo}, {hi}) are not a window of {rows} rows")
        self._seed, self.lo, self.hi, self.rows = seed, lo, hi, rows
        self._bits = None

    def raw32(self, n: int) -> np.ndarray:
        """The window's n words of the batch's next draw (see the class);
        ValueError unless n is a multiple of the window's row count."""
        per_row, rest = divmod(n, self.hi - self.lo)
        if rest:
            raise ValueError(f"{n} words are not {self.hi - self.lo} equal rows")
        if self._bits is None:
            self._bits = np.random.PCG64(self._seed)
        start, stop = self.lo * per_row, self.hi * per_row
        first, last = start // 2, (stop + 1) // 2  # the 64-bit words holding them
        if first:
            self._bits.advance(first)
        words = self._bits.random_raw(last - first)
        end = (self.rows * per_row + 1) // 2
        if end > last:
            self._bits.advance(end - last)
        return words.astype("<u8", copy=False).view("<u4")[start - 2 * first: stop - 2 * first]
