"""Tensor storage, file round-trips, conv2d against loop oracles, adjoints."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from numpy.lib.stride_tricks import sliding_window_view

from logpolar import ConvKernel, conv2d, conv2d_backward, conv2d_raw, load_tensor, save_tensor, tensor
from logpolar import ops
from logpolar.conv import pad, unpad, windows

from oracles import finite_difference, loop_conv2d, max_rel_error

RNG = np.random.default_rng(20240811)


class TestTensor:
    def test_rejects_nan(self):
        with pytest.raises(ValueError, match="finite"):
            tensor([1.0, np.nan])

    def test_rejects_inf(self):
        with pytest.raises(ValueError, match="finite"):
            tensor([[np.inf]])

    def test_shape_reshape(self):
        t = tensor(np.arange(12.0), shape=(2, 3, 2))
        assert t.shape == (2, 3, 2)
        assert t.dtype == np.float64

    def test_file_roundtrip_bitwise(self, tmp_path):
        arr = RNG.normal(size=(4, 5, 3))
        p = tmp_path / "a.tnsr"
        save_tensor(p, arr)
        back = load_tensor(p)
        assert back.shape == arr.shape
        assert np.array_equal(back, arr)
        # a second write of the loaded array produces identical bytes
        p2 = tmp_path / "b.tnsr"
        save_tensor(p2, back)
        assert p.read_bytes() == p2.read_bytes()

    def test_file_bad_magic(self, tmp_path):
        p = tmp_path / "bad.tnsr"
        p.write_bytes(b"NOPE v1 1 3\n" + b"\x00" * 24)
        with pytest.raises(ValueError, match="TNSR"):
            load_tensor(p)

    def test_file_truncated(self, tmp_path):
        p = tmp_path / "short.tnsr"
        p.write_bytes(b"TNSR v1 1 4\n" + b"\x00" * 16)
        with pytest.raises(ValueError, match="payload"):
            load_tensor(p)


    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_save_refuses_non_finite(self, tmp_path, bad):
        p = tmp_path / "bad.tnsr"
        with pytest.raises(ValueError, match="NaN or Inf"):
            save_tensor(p, np.array([[1.0, bad]]))
        assert not p.exists()


@st.composite
def window_cases(draw):
    """(shape, size, stride, dilation); the input is at least one window tall and wide."""
    size = (draw(st.integers(1, 4)), draw(st.integers(1, 4)))
    stride = (draw(st.integers(1, 3)), draw(st.integers(1, 3)))
    dilation = (draw(st.integers(1, 3)), draw(st.integers(1, 3)))
    extent = [(k - 1) * d + 1 for k, d in zip(size, dilation)]
    h = extent[0] + draw(st.integers(0, 5))
    w = extent[1] + draw(st.integers(0, 5))
    shape = (draw(st.integers(1, 2)), h, w, draw(st.integers(1, 3)))
    return shape, size, stride, dilation


class TestWindows:
    @settings(max_examples=80, deadline=None)
    @given(case=window_cases(), seed=st.integers(0, 2**16))
    @example(case=((2, 7, 5, 3), (3, 2), (2, 3), (3, 4)), seed=0)  # window = whole input
    def test_view_matches_oracles(self, case, seed):
        shape, (kh, kw), (sh, sw), (dh, dw) = case
        rng = np.random.default_rng(seed)
        x = rng.normal(size=shape)
        extent = ((kh - 1) * dh + 1, (kw - 1) * dw + 1)

        # reading: an independent sliding_window_view oracle
        view = windows(x, (kh, kw), (sh, sw), (dh, dw))
        oracle = sliding_window_view(x, extent, axis=(1, 2))[:, ::sh, ::sw, :, ::dh, ::dw]
        np.testing.assert_array_equal(view, oracle.transpose(0, 1, 2, 4, 5, 3))
        assert not view.flags.writeable and np.shares_memory(view, x)

        # writing one tap at a time: an np.add.at scatter oracle (integer
        # values, so the two summation orders give the same sums)
        g = rng.integers(-9, 10, size=view.shape).astype(np.float64)
        got = np.zeros(shape)
        grad_view = windows(got, (kh, kw), (sh, sw), (dh, dw), writeable=True)
        for a, b in np.ndindex(kh, kw):
            grad_view[:, :, :, a, b] += g[:, :, :, a, b]
        n, i, j, a, b, c = np.indices(g.shape)
        want = np.zeros(shape)
        np.add.at(want, (n, i * sh + a * dh, j * sw + b * dw, c), g)
        np.testing.assert_array_equal(got, want)

        # an oversized window raises instead of reaching past the input
        with pytest.raises(ValueError, match="kernel extent"):
            windows(x[:, : extent[0] - 1], (kh, kw), (sh, sw), (dh, dw))
        with pytest.raises(ValueError, match="kernel extent"):
            windows(x[:, :, : extent[1] - 1], (kh, kw), (sh, sw), (dh, dw))

    def test_pad_unpad(self):
        x = RNG.normal(size=(2, 3, 4, 2))
        assert pad(x, (0, 0)) is x
        xp = pad(x, (2, 1))
        assert xp.shape == (2, 7, 6, 2)
        assert np.array_equal(unpad(xp, (2, 1)), x)
        assert np.count_nonzero(xp) == np.count_nonzero(x)  # the border is zero


class TestConv2d:
    def test_scalar_product(self):
        x = tensor([[[5.0]]])
        k = ConvKernel(weights=np.full((1, 1, 1, 1), 3.0))
        out = conv2d(x, k)
        assert out.shape == (1, 1, 1)
        assert out[0, 0, 0] == 15.0

    def test_sum_of_ones(self):
        x = np.ones((3, 3, 1))
        k = ConvKernel(weights=np.ones((3, 3, 1, 1)))
        out = conv2d(x, k)
        assert out.shape == (1, 1, 1)
        assert out[0, 0, 0] == 9.0

    def test_matches_loop_oracle(self):
        x = RNG.normal(size=(8, 8, 2))
        w = RNG.normal(size=(3, 3, 2, 4))
        want = loop_conv2d(x, w, stride=(1, 1), padding=(1, 1))
        got = conv2d(x, ConvKernel(weights=w), stride=(1, 1), padding=(1, 1))
        assert max_rel_error(got, want) < 1e-12

    @pytest.mark.parametrize("stride,padding", [((1, 1), (0, 0)), ((2, 2), (1, 1)), ((2, 1), (0, 2))])
    def test_strided_padded_vs_oracle(self, stride, padding):
        x = RNG.normal(size=(7, 9, 3))
        w = RNG.normal(size=(3, 5, 3, 2))
        want = loop_conv2d(x, w, stride=stride, padding=padding)
        got = conv2d(x, ConvKernel(weights=w), stride=stride, padding=padding)
        assert got.shape == want.shape
        assert max_rel_error(got, want) < 1e-12

    def test_identity_kernel_returns_input(self):
        x = RNG.normal(size=(6, 6, 3))
        w = np.zeros((3, 3, 3, 3))
        for c in range(3):
            w[1, 1, c, c] = 1.0
        out = conv2d(x, ConvKernel(weights=w), padding=(1, 1))
        assert np.array_equal(out, x)

    def test_batched_matches_per_sample(self):
        x = RNG.normal(size=(4, 6, 6, 2))
        w = RNG.normal(size=(3, 3, 2, 3))
        k = ConvKernel(weights=w)
        batched = conv2d(x, k, padding=(1, 1))
        for n in range(4):
            assert np.array_equal(batched[n], conv2d(x[n], k, padding=(1, 1)))

    def test_channel_mismatch_error(self):
        with pytest.raises(ValueError, match="channels"):
            conv2d(np.ones((4, 4, 2)), ConvKernel(weights=np.ones((3, 3, 3, 1))))

    def test_kernel_larger_than_padded_input(self):
        with pytest.raises(ValueError, match="kernel extent"):
            conv2d(np.ones((2, 2, 1)), ConvKernel(weights=np.ones((5, 5, 1, 1))))

    def test_even_kernel_rejected_for_convkernel(self):
        with pytest.raises(ValueError, match="odd"):
            ConvKernel(weights=np.ones((2, 2, 1, 1)))

    def test_raw_accepts_even_kernels(self):
        x = np.ones((4, 4, 1))
        out = conv2d_raw(x, np.ones((2, 2, 1, 1)), stride=(2, 2))
        assert out.shape == (2, 2, 1)
        assert np.all(out == 4.0)

    @settings(max_examples=25, deadline=None)
    @given(st.integers(0, 2**31 - 1), st.floats(-3, 3), st.floats(-3, 3))
    def test_linearity(self, seed, a, b):
        rng = np.random.default_rng(seed)
        x = rng.normal(size=(5, 5, 2))
        y = rng.normal(size=(5, 5, 2))
        w = rng.normal(size=(3, 3, 2, 2))
        k = ConvKernel(weights=w)
        lhs = conv2d(a * x + b * y, k, padding=(1, 1))
        rhs = a * conv2d(x, k, padding=(1, 1)) + b * conv2d(y, k, padding=(1, 1))
        np.testing.assert_allclose(lhs, rhs, rtol=1e-12, atol=1e-12)


def _loss_weights(shape, seed=7):
    return np.random.default_rng(seed).normal(size=shape)


class TestConvBackward:
    def test_zero_grad_output(self):
        x = RNG.normal(size=(5, 5, 2))
        k = ConvKernel(weights=RNG.normal(size=(3, 3, 2, 2)), bias=np.zeros(2))
        out = conv2d(x, k, padding=(1, 1))
        gx, gk = conv2d_backward(x, k, np.zeros_like(out), padding=(1, 1))
        assert not gx.any()
        assert not gk.weights.any()
        assert not gk.bias.any()

    def test_one_by_one_case(self):
        x = tensor([[[2.0]]])
        k = ConvKernel(weights=np.full((1, 1, 1, 1), 3.0))
        gx, gk = conv2d_backward(x, k, np.full((1, 1, 1), 5.0))
        assert gx[0, 0, 0] == 15.0  # grad_input = w * g
        assert gk.weights[0, 0, 0, 0] == 10.0  # grad_kernel = x * g

    @pytest.mark.parametrize("stride,padding", [((1, 1), (1, 1)), ((2, 2), (0, 0))])
    def test_matches_finite_differences(self, stride, padding):
        x = RNG.normal(size=(6, 6, 2))
        w = RNG.normal(size=(3, 3, 2, 3))
        b = RNG.normal(size=3)
        k = ConvKernel(weights=w, bias=b)
        out = conv2d(x, k, stride=stride, padding=padding)
        p = _loss_weights(out.shape)
        gx, gk = conv2d_backward(x, k, p, stride=stride, padding=padding)

        fx = finite_difference(
            lambda xv: float(np.sum(conv2d(xv, k, stride=stride, padding=padding) * p)), x
        )
        fw = finite_difference(
            lambda wv: float(
                np.sum(conv2d(x, ConvKernel(weights=wv, bias=b), stride=stride, padding=padding) * p)
            ),
            w,
        )
        fb = finite_difference(
            lambda bv: float(
                np.sum(conv2d(x, ConvKernel(weights=w, bias=bv), stride=stride, padding=padding) * p)
            ),
            b,
        )
        assert max_rel_error(gx, fx) < 1e-5
        assert max_rel_error(gk.weights, fw) < 1e-5
        assert max_rel_error(gk.bias, fb) < 1e-5

    def test_grad_shape_mismatch(self):
        x = RNG.normal(size=(5, 5, 1))
        k = ConvKernel(weights=RNG.normal(size=(3, 3, 1, 1)))
        with pytest.raises(ValueError, match="grad_output"):
            conv2d_backward(x, k, np.zeros((5, 5, 1)))


class TestOps:
    def test_relu_values(self):
        assert np.array_equal(ops.relu(np.array([-1.0, 2.0])), [0.0, 2.0])

    def test_relu_backward_fd(self):
        # keep inputs away from the kink so central differences are valid
        x = RNG.uniform(0.1, 1.0, size=(4, 4, 2)) * RNG.choice([-1.0, 1.0], size=(4, 4, 2))
        p = _loss_weights(x.shape)
        got = ops.relu_backward(x, p)
        want = finite_difference(lambda v: float(np.sum(ops.relu(v) * p)), x)
        assert max_rel_error(got, want) < 1e-5

    def test_max_pool_values(self):
        x = np.arange(16.0).reshape(4, 4, 1)
        out = ops.max_pool(x, 2)
        assert np.array_equal(out[:, :, 0], [[5.0, 7.0], [13.0, 15.0]])

    def test_mean_pool_values(self):
        x = np.arange(16.0).reshape(4, 4, 1)
        out = ops.mean_pool(x, 2)
        assert np.array_equal(out[:, :, 0], [[2.5, 4.5], [10.5, 12.5]])

    def test_max_pool_tie_routes_to_first_cell(self):
        x = np.zeros((2, 2, 1))
        g = np.ones((1, 1, 1))
        gx = ops.max_pool_backward(x, g, 2)
        assert np.array_equal(gx[:, :, 0], [[1.0, 0.0], [0.0, 0.0]])

    @pytest.mark.parametrize("op,bwd", [(ops.max_pool, ops.max_pool_backward), (ops.mean_pool, ops.mean_pool_backward)])
    def test_pool_backward_fd(self, op, bwd):
        x = RNG.normal(size=(6, 6, 3))
        out = op(x, 2)
        p = _loss_weights(out.shape)
        got = bwd(x, p, 2)
        want = finite_difference(lambda v: float(np.sum(op(v, 2) * p)), x)
        assert max_rel_error(got, want) < 1e-5

    def test_dense_backward_fd(self):
        x = RNG.normal(size=(5, 7))
        w = RNG.normal(size=(7, 4))
        b = RNG.normal(size=4)
        p = _loss_weights((5, 4))
        gx, gw, gb = ops.dense_backward(x, w, p, has_bias=True)
        assert max_rel_error(gx, finite_difference(lambda v: float(np.sum(ops.dense(v, w, b) * p)), x)) < 1e-5
        assert max_rel_error(gw, finite_difference(lambda v: float(np.sum(ops.dense(x, v, b) * p)), w)) < 1e-5
        assert max_rel_error(gb, finite_difference(lambda v: float(np.sum(ops.dense(x, w, v) * p)), b)) < 1e-5

    def test_uniform_logits_loss_is_log_k(self):
        for k in (2, 5, 10):
            logits = np.zeros((3, k))
            labels = np.array([0, 1, k - 1])
            assert ops.softmax_cross_entropy(logits, labels) == pytest.approx(np.log(k), rel=1e-12)

    def test_cross_entropy_backward_fd(self):
        logits = RNG.normal(size=(4, 3))
        labels = np.array([0, 2, 1, 1])
        got = ops.softmax_cross_entropy_backward(logits, labels)
        want = finite_difference(lambda v: ops.softmax_cross_entropy(v, labels), logits)
        assert max_rel_error(got, want) < 1e-5

    def test_label_out_of_range(self):
        with pytest.raises(ValueError, match="label"):
            ops.softmax_cross_entropy(np.zeros((2, 3)), np.array([0, 3]))
