import numpy as np
import pytest

from vtlm.rng import BLOCK, Pcg32


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


@pytest.mark.parametrize("n", [0, 1, BLOCK - 1, BLOCK, BLOCK + 1, 2 * BLOCK + 3])
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
    vals = rng.randint(13, size=10_000)
    assert vals.min() >= 0 and vals.max() < 13
