import functools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vtlm.rng import BLOCK, REFILL, Pcg32


def reference_pcg32(seed, seq, n):
    """Scalar PCG-XSH-RR 64/32, transcribed independently of vtlm.rng."""
    mask = (1 << 64) - 1
    mult = 6364136223846793005
    inc = ((seq << 1) | 1) & mask
    state = 0
    state = (state * mult + inc) & mask
    state = (state + seed) & mask
    state = (state * mult + inc) & mask
    out = []
    for _ in range(n):
        old = state
        state = (old * mult + inc) & mask
        xs = (((old >> 18) ^ old) >> 27) & 0xFFFFFFFF
        rot = old >> 59
        out.append(((xs >> rot) | (xs << ((32 - rot) & 31))) & 0xFFFFFFFF)
    return out


@pytest.mark.parametrize("seed,seq", [(42, 54), (0, 0), (123456789, 7)])
def test_matches_reference_generator(seed, seq):
    rng = Pcg32(seed, seq)
    expect = reference_pcg32(seed, seq, 64)
    got = [rng.u32() for _ in range(64)]
    assert got == expect


def test_block_generation_matches_scalar():
    a = Pcg32(99, 3)
    b = Pcg32(99, 3)
    block = a.u32(1000)
    scalars = np.array([b.u32() for _ in range(1000)], dtype=np.uint32)
    assert np.array_equal(block, scalars)
    # the block advance leaves both generators in the same state
    assert a.u32() == b.u32()


# 8191 .. 16387 were the boundaries of an 8192-draw block; they now fall
# inside the first block, next to the boundaries of the current one
@pytest.mark.parametrize("n", [0, 1, 8191, 8192, 8193, 16387,
                               BLOCK - 1, BLOCK, BLOCK + 1, 2 * BLOCK + 3])
def test_block_boundaries_match_reference(n):
    expect = reference_pcg32(99, 3, n + 1)
    rng = Pcg32(99, 3)
    block = rng.u32(n)
    assert block.dtype == np.uint32 and block.shape == (n,)
    assert block.tolist() == expect[:n]
    # the state carries over: the next scalar draw is draw n of the stream
    assert rng.u32() == expect[n]


def test_split_is_stable_and_labelled():
    root = Pcg32(7)
    a1 = root.split("dropout").u32(8)
    # splitting again after draws from the root yields the same stream
    root.u32(100)
    a2 = root.split("dropout").u32(8)
    assert np.array_equal(a1, a2)
    b = root.split("masking").u32(8)
    assert not np.array_equal(a1, b)


def test_raw32_words_are_pinned_pcg64_halves():
    """Dropout's words: numpy's PCG64 seeded from the stream's next four
    u32 draws, each 64-bit word read as its little-endian 32-bit halves.
    The literals pin numpy's PCG64 stream: if a numpy release changes
    it, every dropout mask changes, and this fails first."""
    rng = Pcg32(2021).split("dropout/1")
    seed = Pcg32(2021).split("dropout/1").u32(4)
    assert seed.tolist() == [3349143513, 1129644435, 1015087652, 1479513525]
    first = rng.raw32(7)  # an odd count drops the spare half of its 4th word
    rest = rng.raw32(2)
    assert first.dtype == np.dtype("<u4")
    assert first.tolist() == [1773646004, 215134711, 3183022469, 1485236128,
                              2451132566, 2766122754, 416939549]
    assert rest.tolist() == [1584490761, 2768067575]
    words = np.random.PCG64(seed.tolist()).random_raw(5)
    halves = words.astype("<u8").view("<u4")
    assert first.tolist() == halves[:7].tolist()
    assert rest.tolist() == halves[8:].tolist()
    # the four seeding draws came from the stream itself
    assert rng.u32() == Pcg32(2021).split("dropout/1").u32(5)[4]


@pytest.mark.parametrize("rows", [64, 5])
def test_row_windows_read_the_whole_batch_draw(rows):
    """At every split point b, windows [0, b) and [b, rows) of a stream's
    draws read rows [0, b) and [b, rows) of the whole batch's draws: a
    draw of R words per row reads words [b0 * R, b1 * R) of the batch's
    draw, for even and odd R, and after both calls each window's next
    words are the batch's next ones. The whole window is `raw32`."""
    per_row = (7, 64, 3)  # an odd batch draw drops the spare half of its last word
    whole = Pcg32(2021).split("dropout/1")
    expect = [whole.raw32(rows * r) for r in per_row]
    for b in range(1, rows):
        windows = Pcg32(2021).split("dropout/1").windows([(0, b), (b, rows)], rows)
        for r, words in zip(per_row, expect):
            got = [w.raw32((w.hi - w.lo) * r) for w in windows]
            assert np.array_equal(np.concatenate(got), words)
    (only,) = Pcg32(2021).split("dropout/1").windows([(0, rows)], rows)
    assert all(np.array_equal(only.raw32(rows * r), words) for r, words in zip(per_row, expect))


def test_a_row_window_draw_must_split_into_its_rows():
    (window,) = Pcg32(1).windows([(2, 5)], 8)
    with pytest.raises(ValueError, match="not 3 equal rows"):
        window.raw32(10)
    with pytest.raises(ValueError, match="not a window of 8 rows"):
        Pcg32(1).windows([(5, 5)], 8)


# n words: none, one, past a refill, and one call's generation across a
# table block
_COUNTS = st.one_of(st.integers(0, REFILL + 8), st.integers(BLOCK - 4, BLOCK + REFILL + 4))
_DRAWS = st.lists(st.one_of(
    st.tuples(st.just("u32"), st.none()),
    st.tuples(st.just("u32"), _COUNTS),
    st.tuples(st.just("uniform"), st.none()),
    st.tuples(st.just("randint"), st.integers(1, 2**31)),
    st.tuples(st.just("choose"), _COUNTS),
), max_size=10)


@functools.lru_cache(maxsize=1)
def _reference_words(n):
    return reference_pcg32(2021, 5, n)


@given(_DRAWS)
@settings(max_examples=40, deadline=None)
def test_any_mix_of_draws_reads_the_reference_words_in_order(draws):
    """Scalar and bulk draws, in any order, read one sequence: the words
    of as many scalar PCG32 steps."""
    words = _reference_words(10 * (BLOCK + REFILL + 5))
    rng, at = Pcg32(2021, 5), 0
    for kind, arg in draws:
        if kind == "u32" and arg is None:
            assert rng.u32() == words[at]
            at += 1
        elif kind == "u32":
            got = rng.u32(arg)
            assert got.dtype == np.uint32 and got.tolist() == words[at:at + arg]
            at += arg
        elif kind == "uniform":
            assert rng.uniform() == (words[at] + 0.5) * 2.0**-32
            at += 1
        elif kind == "randint":
            assert rng.randint(arg) == (words[at] * arg) >> 32
            at += 1
        else:
            k = arg // 2
            order = np.argsort(np.array(words[at:at + arg], dtype=np.uint32), kind="stable")
            assert rng.choose(arg, k).tolist() == order[:k].tolist()
            at += arg
    assert rng.u32() == words[at]


def test_uniform_range_and_normal_moments():
    rng = Pcg32(5)
    u = rng.uniform(200_000)
    assert np.all(u > 0) and np.all(u < 1)
    assert abs(u.mean() - 0.5) < 0.005
    z = rng.normal(200_000, dtype=np.float64)
    assert abs(z.mean()) < 0.01
    assert abs(z.std() - 1.0) < 0.01


def test_permutation_and_choose():
    rng = Pcg32(11)
    perm = rng.permutation(50)
    assert sorted(perm.tolist()) == list(range(50))
    picked = rng.choose(50, 7)
    assert len(set(picked.tolist())) == 7


def test_derangement_has_no_fixed_points():
    rng = Pcg32(13)
    for n in (2, 3, 10, 101):
        d = rng.derangement(n)
        assert sorted(d.tolist()) == list(range(n))
        assert not np.any(d == np.arange(n))


def test_randint_bounds():
    rng = Pcg32(17)
    vals = [rng.randint(13) for _ in range(10_000)]
    assert min(vals) >= 0 and max(vals) < 13
