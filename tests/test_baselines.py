"""Dilated and square-shared convolution baselines."""

import re

import numpy as np
import pytest

from logpolar import conv2d_raw
from logpolar.baselines import (
    DilatedConfig,
    SquareShareConfig,
    dilated_conv2d,
    dilated_conv2d_backward,
    expand_square_weights,
    square_share_conv2d,
    square_share_conv2d_backward,
)
from logpolar.conv import out_extent

from oracles import finite_difference, loop_conv2d, max_rel_error

RNG = np.random.default_rng(99)


class TestDilated:
    def test_dilation_one_identical_to_conv2d(self):
        x = RNG.normal(size=(1, 8, 8, 2))
        w, b = RNG.normal(size=(3, 3, 2, 3)), RNG.normal(size=3)
        cfg = DilatedConfig(kernel_size=3, dilation=1, padding=(1, 1))
        assert np.array_equal(
            dilated_conv2d(x, w, cfg, bias=b), conv2d_raw(x, w, padding=(1, 1), bias=b)
        )

    def test_taps_touch_only_dilated_offsets(self):
        # a 3x3 kernel at rate 2 reads offsets {-2, 0, 2}^2 only: poking any
        # other offset of an interior window leaves that output unchanged
        cfg = DilatedConfig(kernel_size=3, dilation=2, padding=(2, 2))
        w = RNG.normal(size=(3, 3, 1, 1))
        x = RNG.normal(size=(1, 9, 9, 1))
        base = dilated_conv2d(x, w, cfg)
        center = (0, 4, 4)
        for dr in range(-2, 3):
            for dc in range(-2, 3):
                poked = x.copy()
                poked[0, center[1] + dr, center[2] + dc, 0] += 5.0
                changed = dilated_conv2d(poked, w, cfg)[center] != base[center]
                assert changed == (dr in (-2, 0, 2) and dc in (-2, 0, 2))

    def test_matches_loop_oracle(self):
        x = RNG.normal(size=(1, 10, 9, 2))
        w = RNG.normal(size=(3, 3, 2, 2))
        cfg = DilatedConfig(kernel_size=3, dilation=2, stride=(2, 1), padding=(2, 2))
        want = loop_conv2d(x[0], w, stride=cfg.stride, padding=cfg.padding, dilation=(2, 2))
        got = dilated_conv2d(x, w, cfg)
        assert got.shape == (1, *want.shape)
        assert max_rel_error(got[0], want) < 1e-12

    def test_extent_overflow(self):
        cfg = DilatedConfig(kernel_size=3, dilation=3)  # effective extent 7
        with pytest.raises(ValueError, match="kernel extent"):
            dilated_conv2d(np.ones((1, 5, 5, 1)), np.ones((3, 3, 1, 1)), cfg)

    def test_backward_refuses_the_kernel_its_forward_refuses(self):
        cfg = DilatedConfig(kernel_size=3, dilation=2)
        x, w, g = np.ones((1, 6, 6, 1)), np.ones((1, 1, 1, 1)), np.ones((1, 6, 6, 1))
        message = re.escape("kernel is (1, 1), config wants 3")
        with pytest.raises(ValueError, match=message):
            dilated_conv2d(x, w, cfg)
        with pytest.raises(ValueError, match=message):
            dilated_conv2d_backward(x, w, cfg, g)

    @pytest.mark.parametrize("k", [0, 2, 4])
    def test_kernel_size_must_be_odd(self, k):
        # a dilated kernel has a center tap, so the config refuses an even size up front
        with pytest.raises(ValueError, match=f"kernel_size must be odd and >= 1, got {k}"):
            DilatedConfig(kernel_size=k)

    def test_backward_finite_differences(self):
        x = RNG.normal(size=(1, 8, 8, 2))
        w = RNG.normal(size=(3, 3, 2, 2))
        b = RNG.normal(size=2)
        cfg = DilatedConfig(kernel_size=3, dilation=2, padding=(2, 2))
        out = dilated_conv2d(x, w, cfg, bias=b)
        p = RNG.normal(size=out.shape)
        gx, gw, gb = dilated_conv2d_backward(x, w, cfg, p)
        fx = finite_difference(lambda v: float(np.sum(dilated_conv2d(v, w, cfg, bias=b) * p)), x)
        fw = finite_difference(lambda v: float(np.sum(dilated_conv2d(x, v, cfg, bias=b) * p)), w)
        fb = finite_difference(lambda v: float(np.sum(dilated_conv2d(x, w, cfg, bias=v) * p)), b)
        assert max_rel_error(gx, fx) < 1e-5
        assert max_rel_error(gw, fw) < 1e-5
        assert max_rel_error(gb, fb) < 1e-5


class TestSquareShare:
    def test_pool_one_identical_to_conv2d(self):
        x = RNG.normal(size=(1, 7, 7, 2))
        w = RNG.normal(size=(3, 3, 2, 2))
        cfg = SquareShareConfig(kernel_size=3, pool_size=1, padding=(1, 1))
        assert np.array_equal(
            square_share_conv2d(x, w, cfg), conv2d_raw(x, w, padding=(1, 1))
        )

    def test_nine_by_nine_has_nine_distinct_weights(self):
        w = RNG.normal(size=(3, 3, 1, 1))
        full = expand_square_weights(w, 3)
        assert full.shape == (9, 9, 1, 1)
        assert len(np.unique(full)) == 9
        # each 3x3 block is constant
        for a in range(3):
            for b in range(3):
                block = full[3 * a : 3 * a + 3, 3 * b : 3 * b + 3, 0, 0]
                assert np.all(block == w[a, b, 0, 0])

    def test_matches_expand_then_conv_oracle(self):
        x = RNG.normal(size=(1, 12, 12, 2))
        w = RNG.normal(size=(3, 3, 2, 3))
        cfg = SquareShareConfig(kernel_size=9, pool_size=3, padding=(4, 4))
        # independent expansion by scalar loops, then the library conv
        full = np.empty((9, 9, 2, 3))
        for a in range(9):
            for b in range(9):
                full[a, b] = w[a // 3, b // 3]
        want = conv2d_raw(x, full, padding=(4, 4))
        got = square_share_conv2d(x, w, cfg)
        assert np.array_equal(got, want)

    def test_matches_loop_oracle(self):
        x = RNG.normal(size=(1, 10, 10, 1))
        w = RNG.normal(size=(2, 2, 1, 2))
        cfg = SquareShareConfig(kernel_size=6, pool_size=3, stride=(2, 2), padding=(3, 3))
        full = expand_square_weights(w, 3)
        want = loop_conv2d(x[0], full, stride=(2, 2), padding=(3, 3))
        got = square_share_conv2d(x, w, cfg)
        assert max_rel_error(got[0], want) < 1e-12

    def test_backward_refuses_the_region_grid_its_forward_refuses(self):
        cfg = SquareShareConfig(kernel_size=4, pool_size=2)
        x, w, g = np.ones((1, 6, 6, 1)), np.ones((3, 3, 1, 1)), np.ones((1, 3, 3, 1))
        message = re.escape("region grid is (3, 3), config wants (2, 2)")
        with pytest.raises(ValueError, match=message):
            square_share_conv2d(x, w, cfg)
        with pytest.raises(ValueError, match=message):
            square_share_conv2d_backward(x, w, cfg, g)

    def test_divisibility_enforced(self):
        with pytest.raises(ValueError, match="divisible"):
            SquareShareConfig(kernel_size=11, pool_size=5)

    def test_backward_finite_differences(self):
        x = RNG.normal(size=(1, 8, 8, 2))
        w = RNG.normal(size=(2, 2, 2, 2))
        cfg = SquareShareConfig(kernel_size=6, pool_size=3, padding=(3, 3))
        out = square_share_conv2d(x, w, cfg)
        p = RNG.normal(size=out.shape)
        gx, gw, _ = square_share_conv2d_backward(x, w, cfg, p)
        fx = finite_difference(lambda v: float(np.sum(square_share_conv2d(v, w, cfg) * p)), x)
        fw = finite_difference(lambda v: float(np.sum(square_share_conv2d(x, v, cfg) * p)), w)
        assert max_rel_error(gx, fx) < 1e-5
        assert max_rel_error(gw, fw) < 1e-5


class TestParameterCounts:
    def test_counts_for_equal_receptive_fields(self):
        # 9x9 footprint three ways: dense 81, square-shared 9, dilated 9
        dense = np.zeros((9, 9, 1, 1))
        assert dense[:, :, 0, 0].size == 81
        assert np.zeros((3, 3)).size == 9  # square regions for pool 3
        dilated = np.zeros((3, 3, 1, 1))
        assert dilated[:, :, 0, 0].size == 9
        assert out_extent(9, 3, 1, 0, dilation=4) == 1  # three taps 4 apart span all 9 cells
