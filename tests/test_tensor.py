import math
import multiprocessing
import sys
import threading
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import clear_grads, gradcheck, matmul, pool_thread_name, reshape, tsum
from vtlm import tensor as T
from vtlm.errors import NumericError
from vtlm.rng import Pcg32


def t(data, rg=False, dtype=None):
    return T.Tensor(np.asarray(data, dtype=dtype), requires_grad=rg)


def attention_weights(scores, dtype=None):
    """T.attention's probs for one query whose scores are `scores`: one
    head of width 1, the query 1 and the keys the scores."""
    keys = t(np.asarray(scores, dtype=dtype or np.float32)[None, :, None])
    ones = t(np.ones((1, 1, 1)), dtype=keys.dtype)
    _, probs = T.attention(ones, keys, keys, 1, None)
    return probs[0, 0, 0]


class TestSoftmax:
    """The softmax inside T.attention, through its probs."""

    def test_symmetry(self):
        out = attention_weights([0.0, 0.0, 0.0])
        assert np.allclose(out, [1 / 3] * 3, atol=1e-7)

    def test_large_logit_no_overflow(self):
        out = attention_weights([1000.0, 0.0])
        assert np.all(np.isfinite(out))
        assert abs(out[0] - 1.0) < 1e-6 and abs(out[1]) < 1e-6

    def test_hand_computed_values(self):
        # e^x / sum(e^x) for [1,2,3], evaluated by hand calculator
        out = attention_weights([1.0, 2.0, 3.0])
        assert np.allclose(out, [0.09003057, 0.24472847, 0.66524096], atol=1e-5)

    def test_nonfinite_input_rejected(self):
        for bad in (float("nan"), float("inf"), float("-inf")):
            with pytest.raises(NumericError):
                attention_weights([1.0, bad])

    @given(st.lists(st.floats(-50, 50), min_size=1, max_size=12))
    @settings(max_examples=50, deadline=None)
    def test_rows_sum_to_one(self, row):
        out = attention_weights(row, dtype=np.float64)
        assert out.min() >= 0
        assert abs(out.sum() - 1.0) < 1e-6


class TestAttentionMask:
    """T.attention learns which keys are padding from `kv_grid.pad` alone."""

    PAD = np.array([[False, False, False, True], [False, True, True, True]])

    def _attend(self, packed):
        rng = Pcg32(6)
        q = rng.normal((2, 3, 4), dtype=np.float32)
        kv = rng.normal((2, 4, 4), dtype=np.float32)
        if packed:
            grid = T.Grid.of(self.PAD)
            kv = grid.gather(kv)
        else:  # every cell a row, as the decoder caches them; padding holds large values
            grid = T.Grid(self.PAD)
            kv[self.PAD] = 1e4
            kv = kv.reshape(-1, 4)
        return T.attention(t(q), t(kv), t(kv), 2, None, kv_grid=grid)

    def test_padded_keys_get_zero_weight(self):
        for packed in (True, False):
            _, probs = self._attend(packed)
            by_key = probs.transpose(0, 3, 1, 2)  # (rows, keys, heads, queries)
            assert np.all(by_key[self.PAD] == 0.0) and np.all(by_key[~self.PAD] > 0.0)

    def test_padding_values_do_not_reach_the_output(self):
        (packed, p_probs), (every_cell, e_probs) = self._attend(True), self._attend(False)
        assert packed.data.tobytes() == every_cell.data.tobytes()
        assert p_probs.tobytes() == e_probs.tobytes()

    def test_causal_masks_exactly_the_later_keys(self):
        """Two queries after three cached keys: query i sees keys 0 .. 3 + i."""
        rng = Pcg32(7)
        q, kv = rng.normal((2, 2, 4), dtype=np.float32), rng.normal((2, 5, 4), dtype=np.float32)
        _, probs = T.attention(t(q), t(kv), t(kv), 2, None, causal=True)
        assert probs.shape == (2, 2, 2, 5)
        assert np.all((probs > 0.0) == np.tri(2, 5, 3, dtype=bool))


class TestGelu:
    def test_within_stated_tolerance_of_exact(self):
        """float32 GELU within 5e-7 of x Phi(x) from float64 math.erf on a
        dense grid over [-12, 12], at +-1e4 and at +-0."""
        grid = np.linspace(-12.0, 12.0, 240_001, dtype=np.float32)
        x = np.concatenate([grid, np.float32([1e4, -1e4, 0.0, -0.0])])
        got = T.gelu(t(x, dtype=np.float32)).data
        assert got.dtype == np.float32
        exact = np.array([v * 0.5 * (1.0 + math.erf(v / math.sqrt(2.0)))
                          for v in x.astype(np.float64).tolist()])
        assert np.max(np.abs(got.astype(np.float64) - exact)) <= 5e-7
        assert got[-4:].tolist() == [1e4, 0.0, 0.0, 0.0]

    def test_blocks_do_not_change_values_or_gradients(self):
        # three rows of 50,000 span three 65,536-element blocks; each row
        # alone fits in one, and the op is elementwise
        x = Pcg32(5).normal((3, 50_000), dtype=np.float32) * 3
        whole = t(x, rg=True)
        tsum(T.gelu(whole)).backward()
        for r in range(3):
            row = t(x[r], rg=True)
            y = T.gelu(row)
            tsum(y).backward()
            assert y.data.tobytes() == T.gelu(t(x)).data[r].tobytes()
            assert row.grad.tobytes() == whole.grad[r].tobytes()


class TestCrossEntropy:
    def test_uniform_logits(self):
        logits = t(np.zeros((3, 8)))
        loss = T.cross_entropy(logits, [0, 3, 7])
        assert abs(loss.item() - math.log(8)) < 1e-5

    def test_saturated_logit(self):
        row = np.zeros((1, 5), dtype=np.float32)
        row[0, 2] = 100.0
        loss = T.cross_entropy(t(row), [2])
        assert loss.item() < 1e-6

    def test_hand_computed_value(self):
        loss = T.cross_entropy(t([[1.0, 2.0, 3.0]]), [2])
        assert abs(loss.item() - 0.40761) < 1e-4

    def test_out_of_range_target(self):
        with pytest.raises(IndexError):
            T.cross_entropy(t(np.zeros((2, 4))), [0, 4])


class TestLayerNorm:
    def test_constant_row_zeroed_by_eps(self):
        x = t(np.full((2, 4), 3.0))
        out = T.layer_norm(x, t(np.ones(4)), t(np.zeros(4)))
        assert np.allclose(out.data, 0.0, atol=1e-6)

    def test_zero_gain_gives_bias(self):
        x = t(np.arange(12, dtype=np.float32).reshape(3, 4))
        bias = t([5.0, 6.0, 7.0, 8.0])
        out = T.layer_norm(x, t(np.zeros(4)), bias)
        assert np.allclose(out.data, np.broadcast_to(bias.data, (3, 4)))

    def test_hand_computed_row(self):
        out = T.layer_norm(t([[1.0, 2.0, 3.0]]), t(np.ones(3)), t(np.zeros(3)))
        assert np.allclose(out.data, [[-1.2247, 0.0, 1.2247]], atol=1e-3)

    def test_row_moments(self):
        rng = Pcg32(3)
        x = t(rng.normal((6, 32), dtype=np.float64) * 4 + 2)
        out = T.layer_norm(x, t(np.ones(32), dtype=np.float64), t(np.zeros(32), dtype=np.float64)).data
        assert np.all(np.abs(out.mean(axis=-1)) < 1e-5)
        assert np.all(np.abs(out.var(axis=-1) - 1.0) < 1e-4)


class TestBackwardBasics:
    def test_sum_grad_is_ones(self):
        x = t(np.arange(6, dtype=np.float32).reshape(2, 3), rg=True)
        tsum(x).backward()
        assert np.array_equal(x.grad, np.ones((2, 3), dtype=np.float32))

    def test_square_grad(self):
        x = t([1.5, -2.0, 0.5], rg=True)
        tsum(T.mul(x, x)).backward()
        assert np.allclose(x.grad, 2 * x.data)

    def test_backward_requires_scalar(self):
        x = t([1.0, 2.0], rg=True)
        y = T.mul(x, x)
        with pytest.raises(ValueError):
            y.backward()

    def test_topo_order_visits_once(self):
        x = t([2.0], rg=True)
        y = T.mul(x, x)
        z = T.add(y, y)  # diamond: y used twice
        order = T.topo_order(tsum(z))
        assert len(order) == len({id(n) for n in order})
        tsum(z).backward()
        # d/dx of 2*x^2 = 4x
        assert np.allclose(x.grad, 4 * x.data)

    def test_only_leaves_keep_gradients(self):
        x = t([1.5, -2.0], rg=True)
        y = T.mul(x, x)
        tsum(T.add(y, y)).backward()  # y's two contributions arrive before its backward
        assert y.grad is None
        assert np.allclose(x.grad, 4 * x.data)

    def test_shared_leaf_accumulates(self):
        x = t([3.0], rg=True)
        loss = tsum(T.add(T.mul(x, x), x))
        loss.backward()
        assert np.allclose(x.grad, 2 * x.data + 1)


def _fd_check(build, tensors, n=24, h=1e-4, seed=0):
    return gradcheck(build, tensors, n, Pcg32(seed), h=h)


class TestGradientsAgainstFiniteDifferences:
    """Every differentiable op, checked on float64 inputs."""

    def setup_method(self):
        self.rng = Pcg32(7)

    def _randn(self, shape, scale=1.0):
        return t(self.rng.normal(shape, dtype=np.float64) * scale, rg=True)

    def test_matmul(self):
        a, b = self._randn((4, 5)), self._randn((5, 3))
        assert _fd_check(lambda: tsum(T.mul(matmul(a, b), matmul(a, b))), [a, b]) < 1e-6

    def test_batched_matmul(self):
        a, b = self._randn((2, 3, 4, 5)), self._randn((2, 3, 5, 4))
        assert _fd_check(lambda: tsum(matmul(a, b)), [a, b]) < 1e-6

    def test_matmul_does_not_broadcast(self):
        a, b = self._randn((2, 4, 5)), self._randn((5, 3))
        with pytest.raises(ValueError, match="batch dims"):
            matmul(a, b)

    def test_linear(self):
        w, b = self._randn((5, 3)), self._randn((3,))
        for shape in ((4, 5), (2, 3, 5)):
            x = self._randn(shape)
            def build():
                y = T.linear(x, w, b)
                return tsum(T.mul(y, y))
            assert _fd_check(build, [x, w, b]) < 1e-6

    def test_broadcast_add_mul(self):
        x, b = self._randn((6, 8)), self._randn((8,))
        assert _fd_check(lambda: tsum(T.mul(T.add(x, b), T.add(x, b))), [x, b]) < 1e-6

    def _attention_check(self, rate):
        q = self._randn((2, 5, 6), scale=2.0)
        k, v = (self._randn((10, 6), scale=2.0) for _ in range(2))  # packed rows of `grid`
        w = self.rng.normal((2, 5, 6), dtype=np.float64)
        pad = np.zeros((2, 5), dtype=bool)
        pad[1, 3:] = True
        grid = T.Grid(pad)  # every cell a row, the last two keys of row 1 padding

        def build():
            ctx, _ = T.attention(q, k, v, 2, (rate, Pcg32(123)), kv_grid=grid)
            return tsum(T.mul(ctx, T.Tensor(w)))

        return _fd_check(build, [q, k, v], n=36)

    def test_softmax(self):
        """Attention without dropout: scores, padding mask, softmax and
        context, with respect to q, k and v."""
        assert self._attention_check(0.0) < 1e-6

    def test_attention_with_dropout(self):
        assert self._attention_check(0.3) < 1e-6

    def test_gelu(self):
        x = self._randn((7, 7), scale=2.0)
        assert _fd_check(lambda: tsum(T.gelu(x)), [x]) < 1e-6

    def test_layer_norm(self):
        x, g, b = self._randn((4, 16), scale=3.0), self._randn((16,)), self._randn((16,))
        w = self.rng.normal((4, 16), dtype=np.float64)
        assert (
            _fd_check(lambda: tsum(T.mul(T.layer_norm(x, g, b), T.Tensor(w))), [x, g, b]) < 1e-6
        )

    def test_cross_entropy(self):
        x = self._randn((6, 11), scale=2.0)
        targets = np.array([0, 3, 10, 5, 5, 1])
        assert _fd_check(lambda: T.cross_entropy(x, targets), [x]) < 1e-6

    def test_embedding_and_gather(self):
        w = self._randn((12, 5))
        ids = np.array([[0, 3, 3], [11, 2, 0]])
        assert _fd_check(lambda: tsum(T.mul(T.embedding(w, ids), T.embedding(w, ids))), [w]) < 1e-6
        idx = np.array([0, 0, 8, 2])
        for shape in ((9, 4), (3, 3, 4)):  # rows of a table, or positions of states
            x = self._randn(shape)
            assert T.embedding(x, idx).data.tolist() == x.data.reshape(9, 4)[idx].tolist()
            assert _fd_check(lambda: tsum(T.embedding(x, idx) * 2.0), [x]) < 1e-6

    def test_merge_rows_to_grid_transpose(self):
        """Rows of a and b interleaved, placed on a (3, 3) grid with four
        padded cells, and transposed."""
        a, b = self._randn((3, 4)), self._randn((2, 4))
        grid = T.Grid.of(np.array([[False, True, False], [False, False, True],
                                   [False, True, True]]))
        rows = [np.array([0, 2, 3]), np.array([4, 1])]
        placed = T.to_grid(T.merge_rows([a, b], rows), grid).data
        assert placed.shape == (3, 3, 4)
        expect = np.zeros((9, 4))
        expect[[0, 3, 4, 6, 2]] = np.concatenate([a.data, b.data])  # cells 0, 2, 3, 4, 6
        assert placed.reshape(9, 4).tolist() == expect.tolist()
        def build():
            c = T.to_grid(T.merge_rows([a, b], rows), grid)
            c = reshape(c, (9, 4))
            c = T.transpose(c, (1, 0))
            return tsum(T.mul(c, c))
        assert _fd_check(build, [a, b]) < 1e-6

    def test_dropout_fixed_mask(self):
        x = self._randn((40, 10))
        def build():
            return tsum(T.dropout(x, (0.3, Pcg32(123))))
        assert _fd_check(build, [x]) < 1e-6


class TestDropout:
    def test_rate_zero_is_identity(self):
        x = t(np.ones((5, 5)), rg=True)
        for rate in (0.0, 0):  # float or int, a zero rate draws nothing
            stream = Pcg32(1)
            out = T.dropout(x, (rate, stream))
            assert out is x
            assert stream.u32() == Pcg32(1).u32()

    def test_eval_mode_is_identity(self):
        x = t(np.ones((5, 5)))
        assert T.dropout(x, None) is x

    def test_drop_fraction_and_scaling(self):
        p = 0.3
        x = t(np.ones(100_000))
        out = T.dropout(x, (p, Pcg32(42).split("dropout"))).data
        dropped = np.mean(out == 0.0)
        assert abs(dropped - p) < 0.01
        kept = out[out != 0]
        assert np.allclose(kept, 1.0 / (1.0 - p), atol=1e-6)


class TestDeterminism:
    def test_forward_bits_reproducible(self):
        def run():
            rng = Pcg32(2024)
            x = t(rng.normal((8, 16)), rg=True)
            w = t(rng.normal((16, 16)))
            h = T.gelu(matmul(x, w))
            h = T.dropout(h, (0.1, rng.split("drop")))
            return tsum(h).item()

        assert run() == run()

    def test_no_grad_blocks_tape(self):
        x = t([1.0, 2.0], rg=True)
        with T.no_grad():
            y = T.mul(x, x)
        assert y._backward is None and not y.requires_grad

    def test_no_grad_is_per_thread(self):
        """Another thread's no_grad neither stops this thread's recording
        (of an op and of gelu's derivative) while it is entered, nor
        restarts it when it is left inside this thread's no_grad."""
        x = t([1.0, 2.0], rg=True)

        def records():
            return T.mul(x, x).requires_grad, T.gelu(x)._backward is not None

        entered, leave = threading.Event(), threading.Event()
        seen = []

        def other():
            with T.no_grad():
                entered.set()
                leave.wait(timeout=30)
                seen.append(records())

        thread = threading.Thread(target=other)
        thread.start()
        try:
            assert entered.wait(timeout=30)
            assert records() == (True, True)
            with T.no_grad():
                leave.set()
                thread.join(timeout=30)
                assert not thread.is_alive()
                assert records() == (False, False)
        finally:
            leave.set()
            thread.join(timeout=30)
        assert seen == [(False, False)]
        assert records() == (True, True)


def _x_w_b(dtype=np.float32):
    """Leaves x (6, 5), w (5, 3) and b (3,) of a linear."""
    rng = Pcg32(4)
    return tuple(t(rng.normal(shape, dtype=dtype), rg=True) for shape in ((6, 5), (5, 3), (3,)))


def test_leaf_read_by_linear_and_mul_accumulates_in_tape_order():
    """w's three terms 1e8, -1e8 and 1 add to 1 in one float32 order and
    to 0 in another; .grad holds the sum in the tape's order."""
    x = t([[1e8]], dtype=np.float32)
    w = t([[0.5]], rg=True, dtype=np.float32)
    b = t([0.0], dtype=np.float32)
    first, second = t([[-1e8]], dtype=np.float32), t([[1.0]], dtype=np.float32)
    lin, m1, m2 = T.linear(x, w, b), T.mul(w, first), T.mul(w, second)
    loss = T.add(T.add(tsum(lin), tsum(m1)), tsum(m2))
    terms = {id(lin): x.data, id(m1): first.data, id(m2): second.data}
    expect = np.zeros((1, 1), np.float32)
    for node in reversed(T.topo_order(loss)):
        if id(node) in terms:
            expect += terms[id(node)]
    # in another order the 1 is lost: 1e8 + 1 rounds to 1e8 in float32
    assert expect[0, 0] != (np.float32(1e8) + np.float32(1.0)) - np.float32(1e8)
    loss.backward()
    assert w.grad.tobytes() == expect.tobytes()


def _mlp_grads(x, params):
    """Gradients of a two-layer GELU MLP with a layer norm, on fresh leaf
    tensors that share the arrays of `params` (w1, b1, w2, b2, g, b)."""
    leaves = [t(p, rg=True) for p in params]
    w1, b1, w2, b2, g, b = leaves
    h = T.gelu(T.linear(t(x), w1, b1))
    tsum(T.layer_norm(T.linear(h, w2, b2), g, b)).backward()
    return [leaf.grad.tobytes() for leaf in leaves]


class TestSplitMap:
    def test_results_in_order_odd_items_on_the_worker(self):
        got = T.split_map(lambda i: (i, threading.current_thread().name), list(range(5)))
        main = threading.current_thread().name
        assert got == [(i, main if i % 2 == 0 else pool_thread_name()) for i in range(5)]
        assert pool_thread_name() != main

    def test_worker_system_exit_is_raised_and_the_next_call_runs(self):
        """Item 1 raises SystemExit on the pool's thread: split_map raises
        it, and a later split_map still runs every item, in order. Run
        on a helper thread, so that a hang fails the test."""
        def fn(i):
            if i == 1:
                raise SystemExit(i)
            return i

        got = {}

        def run():
            with pytest.raises(SystemExit) as raised:
                T.split_map(fn, [0, 1, 2])
            got["raised"] = raised.value.code
            got["next"] = T.split_map(lambda i: i, list(range(5)))

        helper = threading.Thread(target=run, daemon=True)
        helper.start()
        helper.join(timeout=30)
        assert not helper.is_alive(), "split_map hung after a SystemExit on the pool's thread"
        assert got == {"raised": 1, "next": list(range(5))}

    def test_drains_the_worker_before_raising(self):
        """Item 0 fails on the calling thread once the worker's slow item 1
        has started; split_map raises item 0's error only after item 1 has
        returned."""
        done, started = [], threading.Event()

        def fn(i):
            if i == 0:
                assert started.wait(timeout=30)
                raise KeyError(i)
            if i == 1:
                started.set()
                time.sleep(0.2)
            done.append(i)

        with pytest.raises(KeyError) as raised:
            T.split_map(fn, [0, 1, 2])
        assert raised.value.args == (0,)
        assert 1 in done

    @pytest.mark.parametrize("interval", [None, 1e-6])
    def test_backwards_on_both_threads_equal_one_thread(self, interval):
        """Items that each run a forward and a backward on their own leaves,
        which share the parameter arrays, give the gradients of running
        them one after the other, also when the threads hand over the
        interpreter as often as they can."""
        rng = Pcg32(6)
        params = [rng.normal(shape) for shape in ((16, 64), (64,), (64, 16), (16,), (16,), (16,))]
        xs = [rng.normal((48, 16)) for _ in range(4)]
        expect = [_mlp_grads(x, params) for x in xs]
        prev = sys.getswitchinterval()
        sys.setswitchinterval(interval or prev)
        try:
            got = T.split_map(lambda x: _mlp_grads(x, params), xs)
        finally:
            sys.setswitchinterval(prev)
        assert got == expect


def _backwards_in_child():
    x, w, b = _x_w_b(np.float64)

    def w_grad(_):
        leaves = [t(p.data, rg=True) for p in (x, w, b)]
        tsum(T.linear(*leaves)).backward()
        return leaves[1].grad

    grads = T.split_map(w_grad, [0, 1])
    sys.exit(0 if all(np.array_equal(g, x.data.T @ np.ones((6, 3))) for g in grads) else 1)


# fork in a process with threads warns from Python 3.12 on; the pool is
# dropped in the child, so this fork is the case under test
@pytest.mark.filterwarnings("ignore:This process .* is multi-threaded:DeprecationWarning")
def test_forked_child_runs_a_backward():
    """A child forked after a `split_map`, while the parent's pool
    thread is alive, runs backwards on two threads of its own."""
    assert pool_thread_name() in [th.name for th in threading.enumerate()]
    child = multiprocessing.get_context("fork").Process(target=_backwards_in_child)
    child.start()
    child.join(timeout=60)
    if child.is_alive():
        child.kill()
        child.join(timeout=10)
        pytest.fail("the forked child's split_map hung")
    assert child.exitcode == 0
