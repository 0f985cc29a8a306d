"""Tensor storage, file round-trips, conv2d_raw against loop oracles, adjoints,
and the wording of errors and warnings through conv.renamed."""

import itertools
import math
import re
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from numpy.lib.stride_tricks import sliding_window_view

import logpolar.conv
from logpolar import conv2d_raw, load_tensor, save_tensor
from logpolar import ops
from logpolar.checks import EQUIVALENCE_TOL
from logpolar.baselines import (
    DilatedConfig,
    SquareShareConfig,
    dilated_conv2d,
    dilated_conv2d_backward,
    square_share_conv2d,
    square_share_conv2d_backward,
)
from logpolar.conv import _bias_grad, conv2d_raw_backward, pad, renamed, unpad, windows, windows_backward
from logpolar.geometry import DegenerateGeometryWarning, LpscConfig
from logpolar.lpsc import (
    LpscWeights,
    log_polar_pool,
    lpsc_backward,
    lpsc_forward_fast,
    lpsc_forward_reference,
)
from logpolar.network import LayerSpec, NetSpec, build_network

from oracles import (
    finite_difference,
    loop_conv2d,
    max_rel_error,
    scatter_conv2d_backward,
    scatter_pool_cells_backward,
    tap_conv2d,
)

RNG = np.random.default_rng(20240811)


class TestTensor:
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

    @pytest.mark.parametrize("shape", [(), (0,), (3,), (2, 3, 4), (1, 0, 2)], ids=str)
    def test_file_bytes_per_rank(self, tmp_path, shape):
        arr = np.arange(math.prod(shape), dtype=np.float64).reshape(shape) - 1.5
        p = tmp_path / "a.tnsr"
        save_tensor(p, arr)
        stored = shape or (1,)  # a 0-d array is stored with shape (1,)
        header = " ".join(["TNSR v1", str(len(stored)), *map(str, stored)]) + "\n"
        assert p.read_bytes() == header.encode("ascii") + arr.astype("<f8").tobytes()
        assert np.array_equal(load_tensor(p), arr.reshape(stored))

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
    @given(case=window_cases(), padding=st.tuples(st.integers(0, 2), st.integers(0, 2)),
           seed=st.integers(0, 2**16))
    @example(case=((2, 7, 5, 3), (3, 2), (2, 3), (3, 4)), padding=(0, 0), seed=0)  # window = whole input
    @example(case=((1, 6, 7, 2), (2, 3), (2, 3), (1, 1)), padding=(1, 2), seed=1)  # windows apart
    def test_view_matches_oracles(self, case, padding, seed):
        shape, (kh, kw), (sh, sw), (dh, dw) = case
        rng = np.random.default_rng(seed)
        x = rng.normal(size=shape)
        extent = ((kh - 1) * dh + 1, (kw - 1) * dw + 1)

        # reading: an independent sliding_window_view oracle
        view = windows(x, (kh, kw), (sh, sw), (dh, dw))
        oracle = sliding_window_view(x, extent, axis=(1, 2))[:, ::sh, ::sw, :, ::dh, ::dw]
        np.testing.assert_array_equal(view, oracle.transpose(0, 1, 2, 4, 5, 3))
        assert not view.flags.writeable and np.shares_memory(view, x)

        # the adjoint, one tap per yield, after zero padding: an np.add.at
        # scatter oracle (integer values, so the two summation orders give
        # the same sums); windows no larger than the stride add directly
        xp = pad(x, padding)
        grid = windows(xp, (kh, kw), (sh, sw), (dh, dw)).shape[1:3]
        g = rng.integers(-9, 10, size=(shape[0], *grid, kh, kw, shape[3])).astype(np.float64)

        def shares(buf):
            for a, b in np.ndindex(kh, kw):
                buf[...] = g[:, :, :, a, b]
                yield a * dh, b * dw

        got = windows_backward(shares, x, shape, (kh, kw), (sh, sw), padding, (dh, dw))
        n, i, j, a, b, c = np.indices(g.shape)
        want = np.zeros(xp.shape)
        np.add.at(want, (n, i * sh + a * dh, j * sw + b * dw, c), g)
        np.testing.assert_array_equal(got, unpad(want, padding))

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


def laid_out(a, layout):
    """The (N, H, W, C) *a*'s values in the named memory order."""
    if layout == "channel-major":
        return np.ascontiguousarray(a.transpose(3, 0, 1, 2)).transpose(1, 2, 3, 0)
    if layout == "strided":  # every other column of a wider array
        wide = np.zeros((*a.shape[:2], 2 * a.shape[2], a.shape[3]))
        wide[:, :, ::2] = a
        return wide[:, :, ::2]
    return a


class TestConv2d:
    def test_scalar_product(self):
        x = np.array([[[[5.0]]]])
        out = conv2d_raw(x, np.full((1, 1, 1, 1), 3.0))
        assert out.shape == (1, 1, 1, 1)
        assert out[0, 0, 0, 0] == 15.0

    def test_sum_of_ones(self):
        x = np.ones((1, 3, 3, 1))
        out = conv2d_raw(x, np.ones((3, 3, 1, 1)))
        assert out.shape == (1, 1, 1, 1)
        assert out[0, 0, 0, 0] == 9.0

    def test_matches_loop_oracle(self):
        x = RNG.normal(size=(1, 8, 8, 2))
        w = RNG.normal(size=(3, 3, 2, 4))
        want = loop_conv2d(x[0], w, stride=(1, 1), padding=(1, 1))
        got = conv2d_raw(x, w, stride=(1, 1), padding=(1, 1))
        assert max_rel_error(got[0], want) < 1e-12

    @pytest.mark.parametrize("stride,padding", [((1, 1), (0, 0)), ((2, 2), (1, 1)), ((2, 1), (0, 2))])
    def test_strided_padded_vs_oracle(self, stride, padding):
        x = RNG.normal(size=(1, 7, 9, 3))
        w = RNG.normal(size=(3, 5, 3, 2))
        want = loop_conv2d(x[0], w, stride=stride, padding=padding)
        got = conv2d_raw(x, w, stride=stride, padding=padding)
        assert got.shape == (1, *want.shape)
        assert max_rel_error(got[0], want) < 1e-12

    def test_identity_kernel_returns_input(self):
        x = RNG.normal(size=(1, 6, 6, 3))
        w = np.zeros((3, 3, 3, 3))
        for c in range(3):
            w[1, 1, c, c] = 1.0
        out = conv2d_raw(x, w, padding=(1, 1))
        assert np.array_equal(out, x)

    def test_batched_matches_per_sample(self):
        x = RNG.normal(size=(4, 6, 6, 2))
        w = RNG.normal(size=(3, 3, 2, 3))
        batched = conv2d_raw(x, w, padding=(1, 1))
        for n in range(4):
            assert np.array_equal(batched[n : n + 1], conv2d_raw(x[n : n + 1], w, padding=(1, 1)))

    def test_channel_mismatch_error(self):
        with pytest.raises(ValueError, match="channels"):
            conv2d_raw(np.ones((1, 4, 4, 2)), np.ones((3, 3, 3, 1)))

    def test_kernel_larger_than_padded_input(self):
        with pytest.raises(ValueError, match="kernel extent"):
            conv2d_raw(np.ones((1, 2, 2, 1)), np.ones((5, 5, 1, 1)))

    @pytest.mark.parametrize("shape", [(1,), (2, 2, 4), (4, 1), ()], ids=["1", "2x2x4", "4x1", "0-d"])
    def test_bias_not_one_per_output_channel_rejected(self, shape):
        # a bias that merely broadcasts would add the wrong values silently
        with pytest.raises(ValueError, match=re.escape(f"bias shape {shape} does not match (4,)")):
            conv2d_raw(np.ones((1, 4, 4, 2)), np.ones((3, 3, 2, 4)), bias=np.ones(shape))

    def test_raw_accepts_even_kernels(self):
        x = np.ones((1, 4, 4, 1))
        out = conv2d_raw(x, np.ones((2, 2, 1, 1)), stride=(2, 2))
        assert out.shape == (1, 2, 2, 1)
        assert np.all(out == 4.0)

    @pytest.mark.parametrize("size", [(0, 1), (1, 0), (0, 0)])
    def test_kernel_without_taps_rejected(self, size):
        x, w = np.ones((1, 4, 4, 1)), np.ones((*size, 1, 1))
        with pytest.raises(ValueError, match=f"spatial dims must be >= 1, got {size[0]}x{size[1]}"):
            conv2d_raw(x, w)
        with pytest.raises(ValueError, match="spatial dims"):
            conv2d_raw_backward(x, w, np.ones((1, 4, 4, 1)))

    @pytest.mark.parametrize("size", [(1, 1), (3, 2)])
    @pytest.mark.parametrize(
        "n, c_in, c_out", [(0, 2, 3), (2, 0, 3), (2, 2, 0)],
        ids=["no-samples", "no-inputs", "no-outputs"],
    )
    def test_empty_axis_gives_shaped_zeros(self, size, n, c_in, c_out):
        x, w = np.ones((n, 5, 4, c_in)), np.ones((*size, c_in, c_out))
        out = conv2d_raw(x, w, padding=(1, 0), bias=np.ones(c_out))
        assert out.shape == (n, 7 - size[0] + 1, 5 - size[1], c_out)
        assert np.all(out == 1.0)  # bias only
        gx, gw, gb = conv2d_raw_backward(x, w, np.ones(out.shape), padding=(1, 0))
        assert gx.shape == x.shape and gw.shape == w.shape and gb.shape == (c_out,)
        assert not gx.any() and not gw.any() and np.all(gb == n * out.shape[1] * out.shape[2])

    @pytest.mark.parametrize("size, stride", [((3, 3), (1, 1)), ((3, 3), (2, 2)), ((2, 1), (1, 1)),
                                              ((1, 3), (2, 2)), ((1, 1), (2, 2))], ids=str)
    @pytest.mark.parametrize("channels", [(1, 4), (3, 1), (3, 4)], ids=str)
    @pytest.mark.parametrize("layout", ["c-order", "channel-major"])
    def test_vector_row_blocks_match_tap_oracle(self, size, stride, channels, layout):
        # where a tap's (Wo, C_in) row block or its product is a vector (Wo,
        # C_in or C_out of 1), each tap is one 2-D product over the rows, so
        # the forward's bytes are the oracle's; elsewhere numpy's stacked
        # matmul may round the last bit otherwise, so nothing is asserted there
        rng = np.random.default_rng(30)
        w = rng.normal(size=(*size, *channels))
        one_column = 0
        for p in range(2):
            for wd in range(1, 6):
                if wd + 2 * p < size[1]:
                    continue
                wo = (wd + 2 * p - size[1]) // stride[1] + 1
                if wo > 1 and 1 not in channels:
                    continue
                one_column += wo == 1
                x = laid_out(rng.normal(size=(2, 5, wd, channels[0])), layout)
                got = conv2d_raw(x, w, stride=stride, padding=(p, p))
                assert got.tobytes() == tap_conv2d(x, w, stride, (p, p)).tobytes()
        assert one_column > 0

    @pytest.mark.parametrize("padding", [(0, 0), (1, 2)])
    @pytest.mark.parametrize("c_in", [1, 7])
    def test_one_by_one_unit_stride_is_one_matmul(self, padding, c_in):
        # the LPSC block convolution: bit-identical to one plain matmul in
        # each direction on P = rows.T, which keeps LPSC outputs and
        # checkpoints byte-stable; a C-order input's output and input
        # gradient are stored as (C, N*H*W) memory all the same
        x = RNG.normal(size=(3, 5, 6, c_in))
        w = RNG.normal(size=(1, 1, c_in, 4))
        ph, pw = padding
        xp = np.pad(x, ((0, 0), (ph, ph), (pw, pw), (0, 0)))
        g = RNG.normal(size=(*xp.shape[:3], 4))
        rows, g_rows = xp.reshape(-1, c_in), g.reshape(-1, 4)
        out = conv2d_raw(x, w, padding=padding)
        assert np.array_equal(out, (w[0, 0].T @ rows.T).T.reshape(g.shape))
        assert out.transpose(3, 0, 1, 2).flags.c_contiguous
        gx, gw, _ = conv2d_raw_backward(x, w, g, padding=padding)
        assert np.array_equal(gx, unpad((w[0, 0] @ g_rows.T).T.reshape(xp.shape), padding))
        assert gx.strides[2] == gx.itemsize  # a view of (C, N*H*W) memory, as unpad leaves it
        assert np.array_equal(gw[0, 0], rows.T @ g_rows)

    @pytest.mark.parametrize("c_in", [2, 7])
    def test_one_by_one_channel_major_input(self, c_in):
        # the LPSC pooled tensor's memory order: each tap's transpose is one
        # C-contiguous (C_in, N*H*W) matrix, contracted as (w.T @ P).T with no copy
        x = RNG.normal(size=(3, 5, 6, c_in))
        xc = np.ascontiguousarray(x.transpose(3, 0, 1, 2)).transpose(1, 2, 3, 0)
        w = RNG.normal(size=(1, 1, c_in, 4))
        g = RNG.normal(size=(3, 5, 6, 4))
        out = conv2d_raw(xc, w)
        assert max_rel_error(out, conv2d_raw(x, w)) < EQUIVALENCE_TOL
        assert out.transpose(3, 0, 1, 2).flags.c_contiguous  # the product's own memory
        gx, gw, gb = conv2d_raw_backward(xc, w, g)
        want_gx, want_gw, want_gb = conv2d_raw_backward(x, w, g)
        assert max_rel_error(gw, want_gw) < EQUIVALENCE_TOL and np.array_equal(gb, want_gb)
        assert max_rel_error(gx, want_gx) < EQUIVALENCE_TOL
        assert gx.transpose(3, 0, 1, 2).flags.c_contiguous  # as the input is laid out

    @pytest.mark.parametrize("g_layout", ["c-order", "channel-major", "strided"])
    @pytest.mark.parametrize("x_layout", ["c-order", "channel-major", "strided"])
    @pytest.mark.parametrize("size", [1, 3])
    def test_memory_order_does_not_change_the_result(self, size, x_layout, g_layout):
        # the path follows the kernel's shape alone: gradients are byte-identical
        # to the C-order call's, and the forward within the equivalence gate. The
        # one exception is the 1x1 weight gradient P @ g of a channel-major x,
        # whose P is C-order where a C-order x's is its transpose: BLAS runs
        # another case of its GEMM there, equal within the gate
        x = RNG.normal(size=(3, 7, 6, 5))
        w = RNG.normal(size=(size, size, 5, 4))
        g = RNG.normal(size=(3, 7 - size + 1, 6 - size + 1, 4))
        xl, gl = laid_out(x, x_layout), laid_out(g, g_layout)
        assert np.array_equal(xl, x) and np.array_equal(gl, g)
        assert max_rel_error(conv2d_raw(xl, w), conv2d_raw(x, w)) < EQUIVALENCE_TOL
        gx, gw, gb = conv2d_raw_backward(xl, w, gl)
        want_gx, want_gw, want_gb = conv2d_raw_backward(x, w, g)
        assert np.array_equal(gx, want_gx) and np.array_equal(gb, want_gb)
        if size == 1 and x_layout == "channel-major":
            assert max_rel_error(gw, want_gw) < EQUIVALENCE_TOL
        else:
            assert np.array_equal(gw, want_gw)

    @settings(max_examples=80, deadline=None)
    @given(
        size=st.tuples(st.integers(1, 4), st.integers(1, 4)),
        stride=st.tuples(st.integers(1, 3), st.integers(1, 3)),
        padding=st.tuples(st.integers(0, 2), st.integers(0, 2)),
        dilation=st.tuples(st.integers(1, 3), st.integers(1, 3)),
        extra=st.tuples(st.integers(0, 4), st.integers(0, 4)),
        channels=st.tuples(st.integers(1, 3), st.integers(1, 3)),
        strided_input=st.booleans(),
        seed=st.integers(0, 2**16),
    )
    @example(size=(1, 1), stride=(1, 1), padding=(0, 0), dilation=(1, 1), extra=(2, 3),
             channels=(3, 2), strided_input=False, seed=0)  # the LPSC block convolution
    @example(size=(4, 3), stride=(3, 2), padding=(2, 1), dilation=(2, 3), extra=(1, 0),
             channels=(2, 3), strided_input=True, seed=0)
    def test_matches_window_oracles(self, size, stride, padding, dilation, extra, channels,
                                    strided_input, seed):
        (kh, kw), (sh, sw), (ph, pw), (dh, dw) = size, stride, padding, dilation
        rng = np.random.default_rng(seed)
        extent = ((kh - 1) * dh + 1, (kw - 1) * dw + 1)
        h, wd = (max(1, e - 2 * p + x) for e, p, x in zip(extent, padding, extra))
        if strided_input:  # a view with non-unit strides on H and C
            x = rng.normal(size=(2, 2 * h, wd, 2 * channels[0]))[:, ::2, :, ::2]
        else:
            x = rng.normal(size=(2, h, wd, channels[0]))
        w = rng.normal(size=(kh, kw, *channels))
        geometry = dict(stride=stride, padding=padding, dilation=dilation)

        # forward: sliding_window_view of an np.pad copy, contracted by einsum
        xp = np.pad(x, ((0, 0), (ph, ph), (pw, pw), (0, 0)))
        view = sliding_window_view(xp, extent, axis=(1, 2))[:, ::sh, ::sw, :, ::dh, ::dw]
        out = conv2d_raw(x, w, **geometry)
        assert out.shape == (*view.shape[:3], channels[1])
        assert max_rel_error(out, np.einsum("nijcab,abcd->nijd", view, w)) < 1e-12

        # backward: every window's share of the gradient scattered by np.add.at
        g = rng.normal(size=out.shape)
        gx, gw, _ = conv2d_raw_backward(x, w, g, **geometry)
        n, i, j, a, b, c = np.indices((*out.shape[:3], kh, kw, channels[0]))
        want_xp = np.zeros(xp.shape)
        shares = np.einsum("nijd,abcd->nijabc", g, w)
        np.add.at(want_xp, (n, i * sh + a * dh, j * sw + b * dw, c), shares)
        assert max_rel_error(gx, want_xp[:, ph : ph + x.shape[1], pw : pw + x.shape[2]]) < 1e-12
        want_w = np.zeros(w.shape)
        taps = view.transpose(0, 1, 2, 4, 5, 3)  # (N, Ho, Wo, kh, kw, C_in)
        np.add.at(want_w, (a, b, c), taps[..., None] * g[:, :, :, None, None, None])
        assert max_rel_error(gw, want_w) < 1e-12

    @settings(max_examples=25, deadline=None)
    @given(st.integers(0, 2**31 - 1), st.floats(-3, 3), st.floats(-3, 3))
    def test_linearity(self, seed, a, b):
        rng = np.random.default_rng(seed)
        x = rng.normal(size=(1, 5, 5, 2))
        y = rng.normal(size=(1, 5, 5, 2))
        w = rng.normal(size=(3, 3, 2, 2))
        lhs = conv2d_raw(a * x + b * y, w, padding=(1, 1))
        rhs = a * conv2d_raw(x, w, padding=(1, 1)) + b * conv2d_raw(y, w, padding=(1, 1))
        np.testing.assert_allclose(lhs, rhs, rtol=1e-12, atol=1e-12)


def _loss_weights(shape, seed=7):
    return np.random.default_rng(seed).normal(size=shape)


class TestConvBackward:
    def test_zero_grad_output(self):
        x = RNG.normal(size=(1, 5, 5, 2))
        w, b = RNG.normal(size=(3, 3, 2, 2)), np.zeros(2)
        out = conv2d_raw(x, w, padding=(1, 1), bias=b)
        gx, gw, gb = conv2d_raw_backward(x, w, np.zeros_like(out), padding=(1, 1))
        assert not gx.any()
        assert not gw.any()
        assert not gb.any()

    def test_one_by_one_case(self):
        x = np.array([[[[2.0]]]])
        gx, gw, _ = conv2d_raw_backward(x, np.full((1, 1, 1, 1), 3.0), np.full((1, 1, 1, 1), 5.0))
        assert gx[0, 0, 0, 0] == 15.0  # grad_input = w * g
        assert gw[0, 0, 0, 0] == 10.0  # grad_kernel = x * g

    @pytest.mark.parametrize("stride,padding", [((1, 1), (1, 1)), ((2, 2), (0, 0))])
    def test_matches_finite_differences(self, stride, padding):
        x = RNG.normal(size=(1, 6, 6, 2))
        w = RNG.normal(size=(3, 3, 2, 3))
        b = RNG.normal(size=3)
        geometry = dict(stride=stride, padding=padding)
        out = conv2d_raw(x, w, bias=b, **geometry)
        p = _loss_weights(out.shape)
        gx, gw, gb = conv2d_raw_backward(x, w, p, **geometry)

        fx = finite_difference(lambda xv: float(np.sum(conv2d_raw(xv, w, bias=b, **geometry) * p)), x)
        fw = finite_difference(lambda wv: float(np.sum(conv2d_raw(x, wv, bias=b, **geometry) * p)), w)
        fb = finite_difference(lambda bv: float(np.sum(conv2d_raw(x, w, bias=bv, **geometry) * p)), b)
        assert max_rel_error(gx, fx) < 1e-5
        assert max_rel_error(gw, fw) < 1e-5
        assert max_rel_error(gb, fb) < 1e-5

    @pytest.mark.parametrize("size, c_out, geometry", [
        ((1, 1), 4, {}),
        ((3, 3), 4, dict(padding=(1, 1))),
        ((3, 2), 1, dict(stride=(2, 3), padding=(1, 0))),
    ], ids=["1x1", "k3-padded", "strided"])
    def test_without_input_grad_weight_and_bias_bytes_stay(self, monkeypatch, size, c_out, geometry):
        rng = np.random.default_rng(31)
        x = rng.normal(size=(2, 7, 6, 3))
        w = rng.normal(size=(*size, 3, c_out))
        g = rng.normal(size=conv2d_raw(x, w, **geometry).shape)
        _, want_gw, want_gb = conv2d_raw_backward(x, w, g, **geometry)
        gathers = []
        monkeypatch.setattr(logpolar.conv, "windows_backward", lambda *args: gathers.append(args))
        gx, gw, gb = conv2d_raw_backward(x, w, g, **geometry, input_grad=False)
        assert gx is None and not gathers
        assert gw.tobytes() == want_gw.tobytes() and gb.tobytes() == want_gb.tobytes()

    def test_bias_gradient_is_the_column_sum_bytewise(self):
        # einsum where C_out >= 2, sum where C_out == 1: the bytes of sum(axis=0)
        # everywhere, over plain, widely scaled and signed-zero rows
        rng = np.random.default_rng(30)
        for m, c in itertools.product((1, 2, 3, 7, 8, 9, 16, 17, 127, 128, 129, 1000, 4096, 5000),
                                      (1, 2, 3, 4, 7, 8, 9, 16, 17, 32, 33, 63, 64)):
            plain = rng.normal(size=(m, c))
            scaled = plain * 10.0 ** rng.integers(-8, 9, size=(m, c))
            zeros = np.where(rng.random((m, c)) < 0.5, 0.0, -0.0)
            for rows in (plain, scaled, zeros):
                assert _bias_grad(rows).tobytes() == rows.sum(axis=0).tobytes(), (m, c)

    @pytest.mark.parametrize("size", [(3, 3), (2, 4), (1, 3)], ids=str)
    @pytest.mark.parametrize("stride, dilation", [((1, 1), (1, 1)), ((2, 2), (2, 2)), ((3, 2), (2, 1)),
                                                  ((2, 3), (1, 2)), ((3, 3), (2, 2))], ids=str)
    @pytest.mark.parametrize("channels", [(1, 3), (4, 1), (2, 8)], ids=str)
    def test_input_gradient_matches_scatter_oracle(self, size, stride, dilation, channels):
        # the gather's bytes are the scatter's: paddings 0..k+1, one or more
        # output rows and columns (a one-column output, like one input
        # channel, is a vector row block), C-order and channel-major inputs,
        # and a position whose gradient is all -0.0
        rng = np.random.default_rng(26)
        w = rng.normal(size=(*size, *channels))
        extent = [(k - 1) * d + 1 for k, d in zip(size, dilation)]
        for p in range(max(size) + 2):
            for extra in ((0, 0), (0, 5), (4, 0)):
                h, wd = (max(1, e - 2 * p) + x for e, x in zip(extent, extra))
                for layout in ("c-order", "channel-major"):
                    x = laid_out(rng.normal(size=(2, h, wd, channels[0])), layout)
                    geometry = dict(stride=stride, padding=(p, p), dilation=dilation)
                    g = rng.normal(size=conv2d_raw(x, w, **geometry).shape)
                    g[1, -1, 0] = -0.0
                    gx = conv2d_raw_backward(x, w, g, **geometry)[0]
                    assert gx.tobytes() == scatter_conv2d_backward(x, w, g, **geometry).tobytes()

    @settings(max_examples=80, deadline=None)
    @given(
        size=st.tuples(st.integers(1, 3), st.integers(1, 3)),
        stride=st.sampled_from([(1, 1), (2, 1), (1, 2), (2, 3)]),
        padding=st.tuples(st.integers(0, 2), st.integers(0, 2)),
        dilation=st.tuples(st.integers(1, 2), st.integers(1, 2)),
        extra=st.tuples(st.integers(0, 5), st.integers(0, 5)),
        seed=st.integers(0, 2**16),
    )
    # 1x1 at unit stride takes the one-to-one adjoint; at (2, 1) the gather
    @example(size=(1, 1), stride=(1, 1), padding=(1, 2), dilation=(2, 1), extra=(4, 5), seed=0)
    @example(size=(1, 1), stride=(2, 1), padding=(1, 0), dilation=(1, 1), extra=(4, 3), seed=0)
    def test_adjoint_identities(self, size, stride, padding, dilation, extra, seed):
        rng = np.random.default_rng(seed)
        extent = [(k - 1) * d + 1 for k, d in zip(size, dilation)]
        h, w = (max(1, e - 2 * p + x) for e, p, x in zip(extent, padding, extra))
        x = rng.normal(size=(2, h, w, 3))
        k = rng.normal(size=(*size, 3, 2))
        geometry = dict(stride=stride, padding=padding, dilation=dilation)
        out = conv2d_raw(x, k, **geometry)
        g = rng.normal(size=out.shape)
        gx, gk, _ = conv2d_raw_backward(x, k, g, **geometry)
        lhs = float(np.vdot(out, g))
        scale = float(np.abs(out).ravel() @ np.abs(g).ravel()) + 1e-300
        assert gx.shape == x.shape and gk.shape == k.shape
        assert abs(lhs - float(np.vdot(x, gx))) <= 1e-12 * scale
        assert abs(lhs - float(np.vdot(k, gk))) <= 1e-12 * scale



@st.composite
def tied_pool_cases(draw):
    """Pool input in halves (ties are common, sums exact), a gradient in
    quarters, the geometry and the mode."""
    size = (draw(st.integers(1, 3)), draw(st.integers(1, 3)))
    stride = (draw(st.integers(1, 3)), draw(st.integers(1, 3)))
    h, w = draw(st.integers(size[0], size[0] + 5)), draw(st.integers(size[1], size[1] + 5))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    x = np.round(rng.normal(size=(draw(st.integers(1, 2)), h, w, draw(st.integers(1, 3))))) / 2
    ho, wo = (h - size[0]) // stride[0] + 1, (w - size[1]) // stride[1] + 1
    g = rng.integers(-8, 9, size=(x.shape[0], ho, wo, x.shape[3])) / 4  # sums stay exact
    return x, g, size, stride, draw(st.booleans()), draw(st.sampled_from(["max", "mean"]))


def pool_oracle(x, g, size, stride, mode):
    """Window pool and its adjoint from sliding_window_view and np.add.at:
    the max adjoint goes to the argmax, the mean adjoint g / (kh*kw) to every cell."""
    (kh, kw), (sh, sw) = size, stride
    cells = sliding_window_view(x, size, axis=(1, 2))[:, ::sh, ::sw]  # (N, Ho, Wo, C, kh, kw)
    if mode == "mean":
        n, i, j, c = np.indices(g.shape)
        a, b = np.indices(size).reshape(2, kh, kw, 1, 1, 1, 1)  # taps outermost, row-major
        grad_x = np.zeros_like(x)
        np.add.at(grad_x, (n, i * sh + a, j * sw + b, c), g / (kh * kw))
        return cells.mean(axis=(-2, -1)), grad_x
    cells = cells.reshape(*cells.shape[:4], kh * kw)
    first = cells.argmax(axis=-1)  # the first maximal cell, row-major
    n, i, j, c = np.indices(first.shape)
    grad_x = np.zeros_like(x)
    np.add.at(grad_x, (n, i * sh + first // kw, j * sw + first % kw, c), g)
    return cells.max(axis=-1), grad_x


class TestOps:
    @settings(max_examples=120, deadline=None)
    @given(tied_pool_cases())
    def test_pool_ties_match_oracle(self, case):
        # overlapping (stride < size), non-square and strided windows alike
        x, g, size, stride, batched, mode = case
        fwd, bwd = {"max": (ops.max_pool, ops.max_pool_backward),
                    "mean": (ops.mean_pool, ops.mean_pool_backward)}[mode]
        want_out, want_grad = pool_oracle(x, g, size, stride, mode)
        if not batched:  # one sample without its batch axis is refused
            with pytest.raises(ValueError, match="rank-4"):
                fwd(x[0], size, stride)
            with pytest.raises(ValueError, match="rank-4"):
                bwd(x[0], g[0], size, stride)
        assert np.array_equal(fwd(x, size, stride), want_out)
        assert np.array_equal(bwd(x, g, size, stride), want_grad)

    @pytest.mark.parametrize("mode", ["max", "mean"])
    @pytest.mark.parametrize("size, stride", [((2, 2), (2, 2)), ((3, 2), (1, 2)), ((2, 3), (3, 1))])
    @pytest.mark.parametrize("layout", ["c-order", "channel-major", "strided"])
    def test_pool_adjoint_matches_scatter_oracle(self, mode, size, stride, layout):
        # 7x9 leaves rows or columns that no window reaches (floor semantics);
        # a negative gradient times a non-maximal tap's 0 is -0.0, which must
        # not reach the input gradient: every zero there is +0.0
        rng = np.random.default_rng(25)
        x = np.round(rng.normal(size=(2, 7, 9, 3))) / 2
        x = laid_out(x, layout)
        pooled = (ops.max_pool if mode == "max" else ops.mean_pool)(x, size, stride)
        bwd = ops.max_pool_backward if mode == "max" else ops.mean_pool_backward
        g = -np.abs(rng.normal(size=pooled.shape))
        for grad in (g, laid_out(g, "channel-major")):
            got = bwd(x, grad, size, stride)
            want = scatter_pool_cells_backward(
                windows(x, size, stride), [list(np.ndindex(*size))], mode, pooled[:, :, :, None],
                grad[:, :, :, None], x.shape, size, stride, (0, 0))
            assert got.tobytes() == want.tobytes()
            assert (got == 0).any() and not np.signbit(got[got == 0]).any()

    @pytest.mark.parametrize("mode", ["max", "mean"])
    @pytest.mark.parametrize("layout, order", [("c-order", [3, 2, 1, 0]), ("channel-major", [2, 1, 0, 3])])
    @pytest.mark.parametrize("size, stride", [((2, 2), (2, 2)), ((3, 2), (1, 2))])
    def test_pool_adjoint_keeps_the_input_layout(self, mode, layout, order, size, stride):
        # the input gradient comes back in the input's memory order, whatever the gradient's
        rng = np.random.default_rng(26)
        x = laid_out(rng.normal(size=(2, 8, 9, 3)), layout)
        pooled = (ops.max_pool if mode == "max" else ops.mean_pool)(x, size, stride)
        bwd = ops.max_pool_backward if mode == "max" else ops.mean_pool_backward
        for g in (rng.normal(size=pooled.shape), laid_out(rng.normal(size=pooled.shape), "channel-major")):
            assert np.argsort(bwd(x, g, size, stride).strides).tolist() == order

    def test_pool_cells_combines_taps_in_order(self):
        # 2**53 + 1 rounds back to 2**53, so the sum depends on the tap order
        x = np.array([2.0**53, 1.0, -(2.0**53)]).reshape(1, 1, 3, 1)
        win = windows(x, (1, 3), (1, 1))
        taps = [(0, 0), (0, 1), (0, 2)]
        pooled = ops.pool_cells(win, [taps, taps[::-1], []], "sum")
        assert pooled.ravel().tolist() == [0.0, 1.0, 0.0]  # an empty slot pools to 0

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
        x = np.arange(16.0).reshape(1, 4, 4, 1)
        out = ops.max_pool(x, 2)
        assert np.array_equal(out[0, :, :, 0], [[5.0, 7.0], [13.0, 15.0]])

    def test_mean_pool_values(self):
        x = np.arange(16.0).reshape(1, 4, 4, 1)
        out = ops.mean_pool(x, 2)
        assert np.array_equal(out[0, :, :, 0], [[2.5, 4.5], [10.5, 12.5]])

    def test_mean_pool_of_negative_zeros_is_positive_zero(self):
        # as numpy's mean gives it; log-polar pooling keeps -0.0 instead
        out = ops.mean_pool(np.full((1, 2, 2, 1), -0.0), 2)
        assert out.ravel().tolist() == [0.0] and not np.signbit(out).any()

    def test_max_pool_tie_routes_to_first_cell(self):
        x = np.zeros((1, 2, 2, 1))
        g = np.ones((1, 1, 1, 1))
        gx = ops.max_pool_backward(x, g, 2)
        assert np.array_equal(gx[0, :, :, 0], [[1.0, 0.0], [0.0, 0.0]])

    @pytest.mark.parametrize("op,bwd", [(ops.max_pool, ops.max_pool_backward), (ops.mean_pool, ops.mean_pool_backward)])
    def test_pool_backward_fd(self, op, bwd):
        x = RNG.normal(size=(1, 6, 6, 3))
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
        gx, gw, gb = ops.dense_backward(x, w, p)
        assert max_rel_error(gx, finite_difference(lambda v: float(np.sum(ops.dense(v, w, b) * p)), x)) < 1e-5
        assert max_rel_error(gw, finite_difference(lambda v: float(np.sum(ops.dense(x, v, b) * p)), w)) < 1e-5
        assert max_rel_error(gb, finite_difference(lambda v: float(np.sum(ops.dense(x, w, v) * p)), b)) < 1e-5

    @pytest.mark.parametrize(
        "x_shape, w_shape, g_shape",
        [((2, 3), (4, 5), (2, 5)), ((2, 3, 1), (3, 4), (2, 4)), ((2, 3), (3,), (2, 3))],
        ids=["features-mismatch", "x-rank-3", "w-rank-1"],
    )
    def test_dense_backward_refuses_what_dense_refuses(self, x_shape, w_shape, g_shape):
        x, w = np.ones(x_shape), np.ones(w_shape)
        with pytest.raises(ValueError, match="dense shapes incompatible"):
            ops.dense(x, w)
        with pytest.raises(ValueError, match="dense shapes incompatible"):
            ops.dense_backward(x, w, np.ones(g_shape))

    @pytest.mark.parametrize("shape", [(1,), (2, 4), (4, 1), ()], ids=["1", "2x4", "4x1", "0-d"])
    def test_dense_bias_not_one_per_unit_rejected(self, shape):
        # a bias that merely broadcasts would add the wrong values silently
        with pytest.raises(ValueError, match=re.escape(f"bias shape {shape} does not match (4,)")):
            ops.dense(np.ones((2, 3)), np.ones((3, 4)), bias=np.ones(shape))

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


_LPSC = LpscConfig(kernel_size=3, levels_r=1, levels_theta=4, growth=2, padding=1)
_LPSC_WEIGHTS = LpscWeights(np.ones((2, 2)), np.ones((1, 4, 2, 2)))
_DILATED = DilatedConfig(kernel_size=3, dilation=2, padding=2)
_SQUARE = SquareShareConfig(kernel_size=2, pool_size=2, stride=2)

# every public operator and adjoint on a 6x6x2 input x, with the gradient g
# of a same-size 2-channel output (3x3 for the pools and the square-shared one)
_OPERATORS = {
    "conv2d_raw": lambda x, g: conv2d_raw(x, np.ones((3, 3, 2, 2)), padding=1),
    "conv2d_raw_backward": lambda x, g: conv2d_raw_backward(x, np.ones((3, 3, 2, 2)), g, padding=1),
    "max_pool": lambda x, g: ops.max_pool(x, 2),
    "max_pool_backward": lambda x, g: ops.max_pool_backward(x, g[..., ::2, ::2, :], 2),
    "mean_pool": lambda x, g: ops.mean_pool(x, 2),
    "mean_pool_backward": lambda x, g: ops.mean_pool_backward(x, g[..., ::2, ::2, :], 2),
    "dilated_conv2d": lambda x, g: dilated_conv2d(x, np.ones((3, 3, 2, 2)), _DILATED),
    "dilated_conv2d_backward": lambda x, g: dilated_conv2d_backward(
        x, np.ones((3, 3, 2, 2)), _DILATED, g),
    "square_share_conv2d": lambda x, g: square_share_conv2d(x, np.ones((1, 1, 2, 2)), _SQUARE),
    "square_share_conv2d_backward": lambda x, g: square_share_conv2d_backward(
        x, np.ones((1, 1, 2, 2)), _SQUARE, g[..., ::2, ::2, :]),
    "log_polar_pool": lambda x, g: log_polar_pool(x, _LPSC),
    "lpsc_forward_fast": lambda x, g: lpsc_forward_fast(x, _LPSC, _LPSC_WEIGHTS),
    "lpsc_forward_reference": lambda x, g: lpsc_forward_reference(x, _LPSC, _LPSC_WEIGHTS),
    "lpsc_backward": lambda x, g: lpsc_backward(x, _LPSC, _LPSC_WEIGHTS, g),
}


@pytest.mark.parametrize("name", list(_OPERATORS))
def test_operators_take_batches_only(name):
    x, g = np.ones((1, 6, 6, 2)), np.ones((1, 6, 6, 2))
    _OPERATORS[name](x, g)  # a batch of one sample runs
    with pytest.raises(ValueError, match=re.escape("rank-4 (N, H, W, C) batch, got rank 3")):
        _OPERATORS[name](x[0], g[0])


_X = np.ones((1, 6, 6, 2))
# every argument that conv._shaped checks, with a 6x6x2 input where there is
# one: (a call given the array, the argument's name, the shape it must have)
_SHAPED = {
    "conv2d_raw": (lambda a: conv2d_raw(_X, np.ones((3, 3, 2, 2)), bias=a), "bias", (2,)),
    "dense": (lambda a: ops.dense(np.ones((3, 4)), np.ones((4, 2)), bias=a), "bias", (2,)),
    "LpscWeights": (lambda a: LpscWeights(np.ones((2, 2)), np.ones((1, 4, 2, 2)), bias=a), "bias", (2,)),
    "conv2d_raw_backward": (lambda a: conv2d_raw_backward(_X, np.ones((3, 3, 2, 2)), a, padding=1),
                            "grad_output", (1, 6, 6, 2)),
    "relu_backward": (lambda a: ops.relu_backward(_X, a), "grad_output", (1, 6, 6, 2)),
    "max_pool_backward": (lambda a: ops.max_pool_backward(_X, a, 2), "grad_output", (1, 3, 3, 2)),
    "mean_pool_backward": (lambda a: ops.mean_pool_backward(_X, a, 2), "grad_output", (1, 3, 3, 2)),
    "dense_backward": (lambda a: ops.dense_backward(np.ones((3, 4)), np.ones((4, 2)), a),
                       "grad_output", (3, 2)),
    # the 4 regions and the center, 2 channels each
    "lpsc_backward": (lambda a: lpsc_backward(_X, _LPSC, _LPSC_WEIGHTS, np.ones((1, 6, 6, 2)), pooled=a),
                      "pooled", (1, 6, 6, 10)),
}


@pytest.mark.parametrize("name", list(_SHAPED))
def test_array_shape_has_one_check(name):
    # a shape that merely broadcasts would give wrong values silently
    call, argument, shape = _SHAPED[name]
    call(np.ones(shape))  # the right shape runs
    for bad in ((*shape[:-1], shape[-1] + 1), (*shape, 1)):
        with pytest.raises(ValueError, match=re.escape(f"{argument} shape {bad} does not match {shape}")):
            call(np.ones(bad))


def _layer(kind, **options):
    """A one-layer network of *kind* on (6, 6, 2) input."""
    spec = NetSpec(layers=[LayerSpec(kind, options)], input_shape=(6, 6, 2), num_classes=2)
    return build_network(spec, require_logits=False)


# every config, window operator and window layer, and the geometry keywords it takes
_GEOMETRY_TAKERS = {
    "LpscConfig": (lambda **g: LpscConfig(kernel_size=3, levels_r=1, levels_theta=4, growth=2, **g),
                   ("stride", "padding")),
    "DilatedConfig": (lambda **g: DilatedConfig(kernel_size=3, **g), ("stride", "padding", "dilation")),
    "SquareShareConfig": (lambda **g: SquareShareConfig(kernel_size=4, pool_size=2, **g),
                          ("stride", "padding")),
    "conv2d_raw": (lambda **g: conv2d_raw(np.ones((1, 6, 6, 2)), np.ones((3, 3, 2, 2)), **g),
                   ("stride", "padding", "dilation")),
    "conv2d_raw_backward": (lambda **g: conv2d_raw_backward(
        np.ones((1, 6, 6, 2)), np.ones((3, 3, 2, 2)), np.ones((1, 4, 4, 2)), **g),
        ("stride", "padding", "dilation")),
    "max_pool": (lambda size=2, **g: ops.max_pool(np.ones((1, 6, 6, 2)), size, **g),
                 ("size", "stride")),
    # the spec's layers, built from their options
    "conv layer": (lambda **g: _layer("conv", out_channels=2, kernel_size=3, **g), ("stride", "padding")),
    "maxpool layer": (lambda **g: _layer("maxpool", **g), ("stride",)),
}
_NOT_INTEGERS = (True, 0.5, 1.5, 2.5, (2.9, 1), (2.9, 2))  # bools, bare floats, non-integral entries


def _bad(low, message, name, what="an integer or a pair of integers"):
    """[(value, the message it raises, up to ", got")]: *low* out of range, then each of _NOT_INTEGERS."""
    return [(low, message)] + [(v, f"{name} must be {what}") for v in _NOT_INTEGERS]


# key, or (taker, key) where it differs, -> the rows _bad gives
_BAD_GEOMETRY = {
    "stride": _bad(0, "stride must be positive", "stride"),
    "padding": _bad(-1, "padding must be non-negative", "padding"),
    "dilation": _bad(0, "dilation must be >= 1", "dilation"),
    "size": _bad(0, "pool size must be positive", "pool size"),
    # a dilated config's dilation is an int field, not a pair
    ("DilatedConfig", "dilation"): _bad(0, "dilation must be >= 1", "dilation", "an integer"),
    # a layer's type error names the spec option; a pool's stride is an int key, not a pair
    ("conv layer", "stride"): _bad(0, "stride must be positive", "option 'stride'"),
    ("conv layer", "padding"): _bad(-1, "padding must be non-negative", "option 'padding'"),
    ("maxpool layer", "stride"): _bad(0, "stride must be positive", "option 'stride'", "an integer"),
}


@pytest.mark.parametrize(
    "name, key", [(name, key) for name, (_, keys) in _GEOMETRY_TAKERS.items() for key in keys]
)
def test_window_geometry_has_one_check(name, key):
    make, _ = _GEOMETRY_TAKERS[name]
    make()  # the default geometry is accepted
    for value, message in _BAD_GEOMETRY.get((name, key), _BAD_GEOMETRY[key]):
        with pytest.raises(ValueError, match=re.escape(f"{message}, got")):
            make(**{key: value})


def _degenerate():
    """An LpscConfig whose DegenerateGeometryWarning points at this line."""
    return LpscConfig(kernel_size=5, levels_r=3, levels_theta=8, growth=2)


def _recorded(block):
    """The warnings that running *block* issues, each one shown."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        block()
    return caught


class TestRenamed:
    NAMES = {"kernel_size": "size", "output_location": "argument --loc:"}

    def _raise(self, message, prefix="layer.1 (lpsc): "):
        with pytest.raises(ValueError) as info:
            with renamed(self.NAMES, prefix):
                raise ValueError(message)
        return info.value

    def test_leading_field_is_renamed_and_prefixed(self):
        exc = self._raise("kernel_size must be odd and >= 3, got 4")
        assert str(exc) == "layer.1 (lpsc): size must be odd and >= 3, got 4"
        assert str(self._raise("output_location (40, 0) is outside", "")) == (
            "argument --loc: (40, 0) is outside")

    @pytest.mark.parametrize("message", ["unknown options ['sise']", "size must be odd"])
    def test_other_message_only_gets_the_prefix(self, message):
        assert str(self._raise(message)) == "layer.1 (lpsc): " + message

    def test_warning_is_reissued_once_reworded_from_where_it_was_issued(self):
        (direct,) = _recorded(_degenerate)

        def block():
            with renamed(self.NAMES, "layer.2 (lpsc): "):
                _degenerate()

        (w,) = _recorded(block)
        assert str(w.message) == "layer.2 (lpsc): size " + str(direct.message).partition(" ")[2]
        assert str(direct.message).startswith("kernel_size 5 is degenerate")
        assert (w.category, w.filename, w.lineno) == (
            DegenerateGeometryWarning, direct.filename, direct.lineno)

    def test_block_that_raises_reissues_no_warning(self):
        def block():
            with pytest.raises(ValueError, match="^p: size bad$"):
                with renamed(self.NAMES, "p: "):
                    _degenerate()
                    raise ValueError("kernel_size bad")

        assert _recorded(block) == []

    def test_error_is_raised_from_none(self):
        with pytest.raises(ValueError) as info:
            with renamed(self.NAMES):
                try:
                    {}["kernel_size"]
                except KeyError:
                    raise ValueError("kernel_size is missing")
        assert str(info.value) == "size is missing"
        assert info.value.__cause__ is None
        assert info.value.__suppress_context__

    @pytest.mark.parametrize("error", [TypeError("kernel_size must be an integer"),
                                       FloatingPointError("kernel_size is nan"), KeyError("kernel_size")])
    def test_other_errors_pass_unchanged(self, error):
        with pytest.raises(type(error)) as info:
            with renamed(self.NAMES, "p: "):
                raise error
        assert info.value is error
