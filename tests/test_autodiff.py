import gc
import weakref
from itertools import combinations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from meladapt import autodiff as ad
from meladapt.autodiff import Tape, Tensor, backward
from meladapt.errors import ConfigError, ShapeError


def fd_gradient(f, x, h=1e-5):
    """Independent central-difference oracle: perturbs raw buffers only."""
    g = np.zeros_like(x.data)
    flat = x.data.reshape(-1)
    gflat = g.reshape(-1)
    for i in range(flat.size):
        keep = flat[i]
        flat[i] = keep + h
        up = float(f().data)
        flat[i] = keep - h
        dn = float(f().data)
        flat[i] = keep
        gflat[i] = (up - dn) / (2 * h)
    return g


def run_backward(loss_fn, *tensors):
    for t in tensors:
        t.grad = None
        t.requires_grad = True
    with Tape() as tape:
        loss = loss_fn()
    backward(loss, tape)
    return loss


class TestMatmul:
    def test_identity(self):
        x = Tensor([[1.0, 2.0], [3.0, 4.0]])
        out = ad.matmul(Tensor(np.eye(2)), x)
        np.testing.assert_array_equal(out.data, x.data)

    def test_hand_checked(self):
        a = Tensor([[1.0, 2.0], [3.0, 4.0]])
        b = Tensor([[1.0], [1.0]])
        np.testing.assert_array_equal(ad.matmul(a, b).data, [[3.0], [7.0]])

    def test_shape_mismatch_names_both(self):
        with pytest.raises(ShapeError, match=r"\(2, 3\).*\(2, 3\)"):
            ad.matmul(Tensor(np.zeros((2, 3))), Tensor(np.zeros((2, 3))))

    def test_grad_of_sum_equals_row_sums_and_fd(self):
        rng = np.random.default_rng(7)
        a = Tensor(rng.normal(size=(3, 4)))
        b = Tensor(rng.normal(size=(4, 5)))
        run_backward(lambda: ad.sum_all(ad.matmul(a, b)), a, b)
        # analytic: d sum(ab) / da = row sums of b broadcast
        np.testing.assert_allclose(a.grad, np.tile(b.data.sum(axis=1), (3, 1)))
        fd = fd_gradient(lambda: ad.sum_all(ad.matmul(a, b)), a)
        np.testing.assert_allclose(a.grad, fd, rtol=1e-6, atol=1e-8)
        fd_b = fd_gradient(lambda: ad.sum_all(ad.matmul(a, b)), b)
        np.testing.assert_allclose(b.grad, fd_b, rtol=1e-6, atol=1e-8)


class TestSoftmax:
    def test_uniform(self):
        out = ad.softmax(Tensor([0.0, 0.0, 0.0]), axis=0)
        np.testing.assert_allclose(out.data, [1 / 3] * 3, atol=1e-15)

    def test_large_logit_no_overflow(self):
        out = ad.softmax(Tensor([1000.0, 0.0, 0.0]), axis=0)
        assert np.isfinite(out.data).all()
        np.testing.assert_allclose(out.data, [1.0, 0.0, 0.0], atol=1e-300)

    def test_against_high_precision_oracle(self):
        # frozen from a 50-digit evaluation of exp(x_i)/sum exp(x_j)
        expected = [0.090030573170380458, 0.24472847105479765, 0.66524095577482189]
        out = ad.softmax(Tensor([1.0, 2.0, 3.0]), axis=0)
        np.testing.assert_allclose(out.data, expected, rtol=1e-15)

    def test_invalid_axis(self):
        with pytest.raises(ShapeError):
            ad.softmax(Tensor([1.0, 2.0]), axis=2)

    @settings(max_examples=40, deadline=None)
    @given(st.lists(st.floats(-50, 50), min_size=2, max_size=8), st.floats(-30, 30))
    def test_sums_to_one_and_shift_invariant(self, xs, shift):
        x = Tensor(xs)
        out = ad.softmax(x, axis=0)
        assert out.data.sum() == pytest.approx(1.0, abs=1e-12)
        shifted = ad.softmax(Tensor(np.asarray(xs) + shift), axis=0)
        np.testing.assert_allclose(out.data, shifted.data, atol=1e-9)

    def test_grad_vs_fd(self):
        rng = np.random.default_rng(3)
        x = Tensor(rng.normal(size=(4, 5)))
        w = Tensor(rng.normal(size=(5, 1)))
        loss = lambda: ad.sum_all(ad.matmul(ad.softmax(x, axis=1), w))
        run_backward(loss, x)
        np.testing.assert_allclose(x.grad, fd_gradient(loss, x), rtol=1e-5, atol=1e-8)


class TestLayerNorm:
    def test_constant_row_maps_to_zero(self):
        x = Tensor(np.full((3, 6), 2.5))
        out = ad.layer_norm(x, Tensor(np.ones(6)), Tensor(np.zeros(6)))
        np.testing.assert_array_equal(out.data, np.zeros((3, 6)))

    def test_affine_dominance(self):
        rng = np.random.default_rng(0)
        x = Tensor(rng.normal(size=(4, 5)))
        beta = rng.normal(size=5)
        out = ad.layer_norm(x, Tensor(np.zeros(5)), Tensor(beta))
        np.testing.assert_allclose(out.data, np.tile(beta, (4, 1)))

    def test_row_statistics(self):
        # direct statistic computation on the pre-affine output
        rng = np.random.default_rng(11)
        x = Tensor(rng.normal(size=(4, 8)) * 3 + 1)
        out = ad.layer_norm(x, Tensor(np.ones(8)), Tensor(np.zeros(8)))
        mu = out.data.mean(axis=1)
        var = out.data.var(axis=1)
        assert np.abs(mu).max() < 1e-9
        assert np.abs(var - 1).max() < 1e-6

    def test_row_mean_is_numpy_mean_bitwise(self):
        # d=129 crosses numpy's 8-wide unrolled block and its pairwise split
        rng = np.random.default_rng(12)
        for shape in [(1, 1), (5, 3), (7, 8), (40, 64), (3, 129), (2, 300)]:
            x = rng.normal(size=shape) * rng.lognormal(size=shape)
            assert ad._row_mean(x).tobytes() == x.mean(axis=1, keepdims=True).tobytes()

    def test_grad_vs_fd(self):
        rng = np.random.default_rng(5)
        x = Tensor(rng.normal(size=(3, 6)))
        gamma = Tensor(rng.normal(size=6))
        beta = Tensor(rng.normal(size=6))
        w = rng.normal(size=(6, 1))
        loss = lambda: ad.sum_all(
            ad.matmul(ad.layer_norm(x, gamma, beta), Tensor(w))
        )
        run_backward(loss, x, gamma, beta)
        for t in (x, gamma, beta):
            np.testing.assert_allclose(t.grad, fd_gradient(loss, t), rtol=1e-4, atol=1e-7)


class TestConv1d:
    def test_pointwise_identity(self):
        x = Tensor(np.random.default_rng(1).normal(size=(5, 3)))
        kernel = Tensor(np.eye(3)[None, :, :])
        np.testing.assert_array_equal(ad.conv1d(x, kernel, Tensor(np.zeros(3))).data, x.data)

    def test_zero_kernel(self):
        x = Tensor(np.ones((4, 2)))
        out = ad.conv1d(x, Tensor(np.zeros((3, 2, 2))), Tensor(np.zeros(2)))
        np.testing.assert_array_equal(out.data, np.zeros((4, 2)))

    def test_averaging_kernel_on_ramp(self):
        # hand-computed: zero-padded 3-tap average of [0,1,2,3,4]
        x = Tensor(np.arange(5.0)[:, None])
        kernel = Tensor(np.full((3, 1, 1), 1 / 3))
        expected = [[1 / 3], [1.0], [2.0], [3.0], [7 / 3]]
        np.testing.assert_allclose(ad.conv1d(x, kernel, Tensor(np.zeros(1))).data, expected,
                                   rtol=1e-15)

    def test_even_kernel_rejected(self):
        with pytest.raises(ConfigError):
            ad.conv1d(Tensor(np.zeros((4, 2))), Tensor(np.zeros((2, 2, 2))), Tensor(np.zeros(2)))

    def test_length_preserved(self):
        for t in (1, 2, 9):
            out = ad.conv1d(Tensor(np.ones((t, 2))), Tensor(np.ones((5, 2, 3))),
                            Tensor(np.zeros(3)))
            assert out.shape == (t, 3)

    def test_grad_vs_fd(self):
        rng = np.random.default_rng(9)
        x = Tensor(rng.normal(size=(6, 3)))
        kernel = Tensor(rng.normal(size=(3, 3, 2)))
        bias = Tensor(rng.normal(size=2))
        w = Tensor(rng.normal(size=(2, 1)))
        loss = lambda: ad.sum_all(ad.matmul(ad.conv1d(x, kernel, bias), w))
        run_backward(loss, x, kernel, bias)
        for t in (x, kernel, bias):
            np.testing.assert_allclose(t.grad, fd_gradient(loss, t), rtol=1e-5, atol=1e-7)

    @staticmethod
    def _im2col_grads(x, kernel, g):
        """Kernel and input gradients of a same-padded conv1d from windows
        built one output row at a time: the im2col reference."""
        k, d_in, d_out = kernel.shape
        t, pad = x.shape[0], k // 2
        padded = np.zeros((t + 2 * pad, d_in))
        padded[pad:pad + t] = x
        cols = np.stack([padded[i:i + k].ravel() for i in range(t)])
        w2 = kernel.reshape(k * d_in, d_out)
        gu = (g @ w2.T).reshape(t, k, d_in)
        gp = np.zeros_like(padded)
        for j in range(k):
            gp[j:j + t] += gu[:, j, :]
        return (cols.T @ g).reshape(k, d_in, d_out), gp[pad:pad + t]

    @pytest.mark.parametrize("bias_tracks", [True, False])
    @pytest.mark.parametrize("t, k", [(1, 3), (6, 3), (7, 9)])
    def test_grads_match_im2col_reference_bitwise(self, t, k, bias_tracks):
        """Every set of tracking parents (x 0, kernel 1, bias 2) that holds
        the bias, or every one that leaves it frozen."""
        rng = np.random.default_rng(t * 10 + k)
        arrays = [rng.normal(size=(t, 4)), rng.normal(size=(k, 4, 3)), rng.normal(size=3)]
        w = rng.normal(size=(t, 3))  # the conv output's gradient, sum(out * w)
        want_kernel, want_x = self._im2col_grads(arrays[0], arrays[1], w)
        for r in range(1, 4):
            for tracking in combinations(range(3), r):
                if (2 in tracking) != bias_tracks:
                    continue
                x, kernel, bias = (Tensor(a.copy(), requires_grad=i in tracking)
                                   for i, a in enumerate(arrays))
                with Tape() as tape:
                    out = ad.conv1d(x, kernel, bias)
                    loss = ad.sum_all(ad.mul(out, Tensor(w)))
                backward(loss, tape)
                for i, (p, want) in enumerate(((x, want_x), (kernel, want_kernel))):
                    if i in tracking:
                        assert p.grad.tobytes() == want.tobytes(), (tracking, i)
                    else:
                        assert p.grad is None


class TestBackward:
    def test_replay_consumes_the_tape(self):
        rng = np.random.default_rng(21)
        x = Tensor(rng.normal(size=(6, 3)), requires_grad=True)
        kernel = Tensor(rng.normal(size=(3, 3, 4)), requires_grad=True)
        gamma = Tensor(rng.normal(size=4), requires_grad=True)
        zeros = Tensor(np.zeros(4))

        def record():
            # only the tape holds the intermediate tensors
            with Tape() as tape:
                h = ad.relu(ad.conv1d(x, kernel, zeros))
                y = ad.layer_norm(h, gamma, zeros)
                loss = ad.mean_all(ad.mul(y, y))
            return tape, loss, [weakref.ref(a.data) for a in (h, y)]

        was = gc.isenabled()
        gc.disable()
        try:
            tape, loss, inner = record()
            assert len(tape) == 5 and all(r() is not None for r in inner)
            backward(loss, tape)
            assert len(tape) == 0
            assert all(r() is None for r in inner)
            grads = [p.grad.copy() for p in (x, kernel, gamma)]
            assert loss.grad is None  # an output, not a leaf
            with pytest.raises(RuntimeError, match="already replayed"):
                backward(loss, tape)
        finally:
            if was:
                gc.enable()
        for p, g in zip((x, kernel, gamma), grads):
            assert p.grad.tobytes() == g.tobytes()

    def test_sum_gives_ones(self):
        x = Tensor(np.arange(6.0).reshape(2, 3))
        run_backward(lambda: ad.sum_all(x), x)
        np.testing.assert_array_equal(x.grad, np.ones((2, 3)))

    def test_sum_of_squares_gives_2x(self):
        x = Tensor(np.arange(6.0).reshape(2, 3))
        run_backward(lambda: ad.sum_all(ad.mul(x, x)), x)
        np.testing.assert_allclose(x.grad, 2 * x.data)

    def test_double_consumption_accumulates(self):
        # loss = sum(x) + sum(x*x) -> grad = 1 + 2x
        x = Tensor(np.array([[0.5, -1.0, 2.0]]))
        run_backward(lambda: ad.add(ad.sum_all(x), ad.sum_all(ad.mul(x, x))), x)
        np.testing.assert_allclose(x.grad, 1 + 2 * x.data)

    def test_non_scalar_loss_rejected(self):
        x = Tensor(np.ones((2, 2)), requires_grad=True)
        with Tape() as tape:
            y = ad.mul(x, x)
        with pytest.raises(ShapeError):
            backward(y, tape)

    def test_non_ancestors_untouched(self):
        x = Tensor(np.ones(3), requires_grad=True)
        unrelated = Tensor(np.ones(3), requires_grad=True)
        with Tape() as tape:
            loss = ad.sum_all(ad.mul(x, x))
            ad.sum_all(unrelated)  # on tape, but not feeding the loss
        backward(loss, tape)
        assert unrelated.grad is None

    def test_no_tape_means_no_tracking(self):
        x = Tensor(np.ones(3), requires_grad=True)
        out = ad.mul(x, x)
        assert not out.requires_grad


class TestBroadcastOps:
    def test_row_broadcast_add_1d(self):
        a = Tensor(np.zeros((3, 4)))
        b = Tensor(np.arange(4.0))
        out = ad.add(a, b)
        np.testing.assert_array_equal(out.data, np.tile(np.arange(4.0), (3, 1)))

    def test_row_broadcast_grads(self):
        rng = np.random.default_rng(13)
        a = Tensor(rng.normal(size=(3, 4)))
        b = Tensor(rng.normal(size=4))
        c = Tensor(rng.normal(size=(1, 4)))
        loss = lambda: ad.sum_all(ad.mul(ad.add(a, b), c))
        run_backward(loss, a, b, c)
        for t in (a, b, c):
            np.testing.assert_allclose(
                t.grad.reshape(-1), fd_gradient(loss, t).reshape(-1), rtol=1e-6, atol=1e-8
            )

    def test_rejects_wrong_broadcast(self):
        with pytest.raises(ShapeError):
            ad.add(Tensor(np.zeros((3, 4))), Tensor(np.zeros((3,))))


class TestStructuralOps:
    def test_gather_repeat_and_grad(self):
        h = Tensor(np.array([[1.0, 2.0], [3.0, 4.0]]))
        idx = np.array([0, 0, 1, 1, 1])
        out = ad.gather_rows(h, idx)
        assert out.shape == (5, 2)
        run_backward(lambda: ad.sum_all(ad.gather_rows(h, idx)), h)
        np.testing.assert_array_equal(h.grad, [[2.0, 2.0], [3.0, 3.0]])

    def test_slice_concat_roundtrip(self):
        rng = np.random.default_rng(2)
        x = Tensor(rng.normal(size=(4, 6)))
        parts = [ad.slice_cols(x, 0, 3), ad.slice_cols(x, 3, 6)]
        out = ad.concat_cols(parts)
        np.testing.assert_array_equal(out.data, x.data)
        loss = lambda: ad.sum_all(
            ad.mul(ad.concat_cols([ad.slice_cols(x, 0, 3), ad.slice_cols(x, 3, 6)]),
                   ad.concat_cols([ad.slice_cols(x, 0, 3), ad.slice_cols(x, 3, 6)]))
        )
        run_backward(loss, x)
        np.testing.assert_allclose(x.grad, 2 * x.data)

    def test_embedding_lookup_and_scatter(self):
        table = Tensor(np.arange(8.0).reshape(4, 2))
        ids = np.array([1, 1, 3])
        out = ad.embedding(table, ids)
        np.testing.assert_array_equal(out.data, [[2, 3], [2, 3], [6, 7]])
        run_backward(lambda: ad.sum_all(ad.embedding(table, ids)), table)
        np.testing.assert_array_equal(table.grad, [[0, 0], [2, 2], [0, 0], [1, 1]])

    def test_embedding_range_check(self):
        with pytest.raises(ConfigError):
            ad.embedding(Tensor(np.zeros((4, 2))), np.array([4]))

    def test_transpose_grad(self):
        x = Tensor(np.random.default_rng(4).normal(size=(3, 5)))
        w = Tensor(np.random.default_rng(5).normal(size=(3, 1)))
        loss = lambda: ad.sum_all(ad.matmul(ad.transpose(x), w))
        run_backward(loss, x)
        np.testing.assert_allclose(x.grad, fd_gradient(loss, x), rtol=1e-6, atol=1e-8)


class TestMaskedLosses:
    def test_mae_value(self):
        a = Tensor(np.array([[1.0, 2.0], [3.0, 4.0]]))
        b = Tensor(np.array([[2.0, 2.0], [3.0, 0.0]]))
        assert ad.masked_mae(a, b).item() == pytest.approx((1 + 0 + 0 + 4) / 4)

    def test_mse_direct_summation_oracle(self):
        rng = np.random.default_rng(21)
        a = Tensor(rng.normal(size=(5, 3)))
        b = Tensor(rng.normal(size=(5, 3)))
        expected = sum(
            (a.data[i, j] - b.data[i, j]) ** 2 for i in range(5) for j in range(3)
        ) / 15
        assert ad.masked_mse(a, b).item() == pytest.approx(expected, rel=1e-12)

    def test_grads_vs_fd(self):
        rng = np.random.default_rng(41)
        a = Tensor(rng.normal(size=(4, 3)))
        b = Tensor(rng.normal(size=(4, 3)))
        for op in (ad.masked_mae, ad.masked_mse):
            loss = lambda: op(a, b)
            run_backward(loss, a, b)
            np.testing.assert_allclose(a.grad, fd_gradient(loss, a), rtol=1e-5, atol=1e-7)
            np.testing.assert_allclose(b.grad, fd_gradient(loss, b), rtol=1e-5, atol=1e-7)


class TestOperatorGradProperty:
    """Every operator matches central differences on randomized small shapes."""

    @pytest.mark.parametrize("seed", range(20))
    def test_all_ops_fd(self, seed):
        rng = np.random.default_rng(seed)
        t = int(rng.integers(1, 8))
        d = int(rng.integers(2, 8))
        x = Tensor(rng.normal(size=(t, d)))
        y = Tensor(rng.normal(size=(t, d)))
        w = Tensor(rng.normal(size=(d, int(rng.integers(1, 8)))))
        g = Tensor(rng.normal(size=d))
        k = Tensor(rng.normal(size=(3, d, 2)))
        proj = Tensor(rng.normal(size=(2, 1)))
        cases = {
            "matmul": (lambda: ad.sum_all(ad.matmul(x, w)), (x, w)),
            "softmax": (lambda: ad.sum_all(ad.mul(ad.softmax(x, axis=1), y)), (x,)),
            "layer_norm": (
                lambda: ad.sum_all(ad.mul(ad.layer_norm(x, g, g), y)),
                (x, g),
            ),
            "conv1d": (lambda: ad.sum_all(ad.matmul(ad.conv1d(x, k, Tensor(np.zeros(2))),
                                                    proj)), (x, k)),
            "relu": (lambda: ad.sum_all(ad.mul(ad.relu(x), y)), (x,)),
            "mae": (lambda: ad.masked_mae(x, y), (x, y)),
            "mse": (lambda: ad.masked_mse(x, y), (x, y)),
            "mean": (lambda: ad.mean_all(ad.mul(x, x)), (x,)),
        }
        for name, (loss, tensors) in cases.items():
            run_backward(loss, *tensors)
            for tensor in tensors:
                fd = fd_gradient(loss, tensor)
                err = np.abs(tensor.grad - fd)
                denom = np.maximum(np.maximum(np.abs(tensor.grad), np.abs(fd)), 1e-6)
                assert (err / denom).max() < 1e-4, f"{name} failed at seed {seed}"
