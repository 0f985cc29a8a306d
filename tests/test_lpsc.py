"""The log-polar operator: region-channel pooling, path equivalence, adjoints."""

import dataclasses
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import logpolar.lpsc
from logpolar.checks import EQUIVALENCE_TOL, equivalence_sweep
from logpolar.geometry import POOLING_MODES, DegenerateGeometryWarning, LpscConfig, build_mask
from logpolar.lpsc import (
    LpscWeights,
    load_lpsc_weights,
    log_polar_pool,
    lpsc_backward,
    lpsc_forward_fast,
    lpsc_forward_reference,
    save_lpsc_weights,
)

from oracles import finite_difference, max_rel_error, scatter_pool_cells_backward

RNG = np.random.default_rng(771)


def loop_lpsc(x, mask, weights, stride, padding, mode, center_conv):
    """Scalar-loop evaluation of the operator straight from its definition."""
    h, w_, cin = x.shape
    cout = weights.out_channels
    sh, sw = stride
    ph, pw = padding
    radius = mask.radius
    xp = np.zeros((h + 2 * ph, w_ + 2 * pw, cin))
    xp[ph : ph + h, pw : pw + w_] = x
    gh = (h + 2 * ph - mask.size) // sh + 1
    gw = (w_ + 2 * pw - mask.size) // sw + 1
    lt = mask.levels_theta
    out = np.zeros((gh, gw, cout))
    for i in range(gh):
        for j in range(gw):
            cr, cc = i * sh + radius, j * sw + radius
            for co in range(cout):
                acc = 0.0
                if center_conv:
                    for ci in range(cin):
                        acc += weights.center[ci, co] * xp[cr, cc, ci]
                for level in range(1, mask.levels_r + 1):
                    for sector in range(1, lt + 1):
                        k = (level - 1) * lt + sector
                        cells = [
                            (a - radius, b - radius)
                            for a in range(mask.size)
                            for b in range(mask.size)
                            if mask.index_grid[a, b] == k
                        ]
                        if not cells:
                            continue
                        for ci in range(cin):
                            vals = [xp[cr + dr, cc + dc, ci] for dr, dc in cells]
                            if mode == "mean":
                                pooled = sum(vals) / len(vals)
                            elif mode == "sum":
                                pooled = sum(vals)
                            else:
                                pooled = max(vals)
                            acc += weights.regions[level - 1, sector - 1, ci, co] * pooled
                if weights.bias is not None:
                    acc += weights.bias[co]
                out[i, j, co] = acc
    return out


def loop_lpsc_max_grad_input(x, mask, weights, stride, padding, center_conv, g):
    """Scalar-loop input gradient of max mode: each region's gradient goes to
    its first maximal cell in row-major mask order."""
    h, w_, cin = x.shape
    gh, gw, cout = g.shape
    (sh, sw), (ph, pw), radius = stride, padding, mask.radius
    xp = np.zeros((h + 2 * ph, w_ + 2 * pw, cin))
    xp[ph : ph + h, pw : pw + w_] = x
    grad = np.zeros_like(xp)
    for i in range(gh):
        for j in range(gw):
            cr, cc = i * sh + radius, j * sw + radius
            for ci in range(cin):
                if center_conv:
                    grad[cr, cc, ci] += sum(g[i, j, co] * weights.center[ci, co] for co in range(cout))
                for level in range(mask.levels_r):
                    for sector in range(mask.levels_theta):
                        k = level * mask.levels_theta + sector + 1
                        cells = [
                            (a - radius, b - radius)
                            for a in range(mask.size)
                            for b in range(mask.size)
                            if mask.index_grid[a, b] == k
                        ]
                        if not cells:
                            continue
                        vals = [xp[cr + dr, cc + dc, ci] for dr, dc in cells]
                        dr, dc = cells[vals.index(max(vals))]
                        w = weights.regions[level, sector, ci]
                        grad[cr + dr, cc + dc, ci] += sum(g[i, j, co] * w[co] for co in range(cout))
    return grad[ph : ph + h, pw : pw + w_]


def make_weights(config, cin, cout, rng, bias=True):
    return LpscWeights(
        center=rng.normal(size=(cin, cout)),
        regions=rng.normal(size=(config.levels_r, config.levels_theta, cin, cout)),
        bias=rng.normal(size=cout) if bias else None,
    )


class TestLogPolarPool:
    def test_region_channel_shape(self):
        c = LpscConfig(kernel_size=5, levels_r=2, levels_theta=6, growth=2, padding=(2, 2))
        x = RNG.normal(size=(1, 8, 8, 3))
        pooled = log_polar_pool(x, c)
        # 12 region slots, then the center slot, each C_in = 3 channels wide
        assert pooled.shape == (1, 8, 8, (2 * 6 + 1) * 3)
        # unit stride at padding r: the window centers are the input pixels
        assert np.array_equal(pooled[..., 2 * 6 * 3 :], x)
        no_center = dataclasses.replace(c, center_conv=False)
        assert np.array_equal(log_polar_pool(x, no_center), pooled[..., : 2 * 6 * 3])

    def test_constant_input_mean(self):
        # levels_theta=4 leaves no region empty on the size-5 kernel, so a
        # constant input pools to that constant in every region channel
        c = LpscConfig(kernel_size=5, levels_r=2, levels_theta=4, growth=2)
        x = np.full((1, 7, 7, 1), 3.25)
        pooled = log_polar_pool(x, c)
        assert np.array_equal(pooled, np.full((1, 3, 3, 8 + 1), 3.25))
        assert np.array_equal(pooled[..., 8:], x[:, 2:5, 2:5])  # center slot: the window centers

    def test_single_location_sum_mode_outer_shell(self):
        c = LpscConfig(kernel_size=5, levels_r=2, levels_theta=8, growth=2, pooling_mode="sum")
        mask = build_mask(c)
        x = RNG.normal(size=(1, 5, 5, 2))
        pooled = log_polar_pool(x, c)
        assert pooled.shape == (1, 1, 1, 17 * 2)
        slots = pooled[0, 0, 0].reshape(17, 2)  # region k = (level-1)*8 + sector-1, then channel
        assert np.array_equal(slots[16], x[0, 2, 2])  # the center slot, last
        for k in range(16):
            np.testing.assert_allclose(slots[k], x[0][mask.index_grid == k + 1].sum(axis=0), rtol=1e-14)
        # the outer shell holds one cell on each axis
        assert np.array_equal(slots[8], x[0, 2, 4])  # shell 2, sector 1 = offset (0, 2)
        assert np.array_equal(slots[10], x[0, 0, 2])  # sector 3 = offset (-2, 0)
        assert np.array_equal(slots[12], x[0, 2, 0])  # sector 5 = offset (0, -2)
        assert np.array_equal(slots[14], x[0, 4, 2])  # sector 7 = offset (2, 0)
        # empty outer sectors (diagonals fall outside) pool to zero
        assert not slots[[9, 11, 13, 15]].any()

    def test_mask_larger_than_padded_input(self):
        c = LpscConfig(kernel_size=5, levels_r=2, levels_theta=8, growth=2)
        with pytest.raises(ValueError, match="larger than padded input"):
            log_polar_pool(np.ones((1, 3, 3, 1)), c)


class TestForward:
    def test_zero_weights_zero_output(self):
        c = LpscConfig(kernel_size=5, levels_r=2, levels_theta=8, growth=2, padding=(2, 2))
        x = RNG.normal(size=(1, 8, 8, 2))
        w = LpscWeights(center=np.zeros((2, 3)), regions=np.zeros((2, 8, 2, 3)))
        assert not lpsc_forward_fast(x, c, w).any()
        assert not lpsc_forward_reference(x, c, w).any()

    def test_identity_center_returns_input(self):
        c = LpscConfig(kernel_size=5, levels_r=2, levels_theta=8, growth=2, padding=(2, 2))
        x = RNG.normal(size=(1, 9, 9, 1))
        w = LpscWeights(center=np.ones((1, 1)), regions=np.zeros((2, 8, 1, 1)))
        for fwd in (lpsc_forward_fast, lpsc_forward_reference):
            assert np.array_equal(fwd(x, c, w), x)

    def test_one_pixel_input_sees_only_center(self):
        c = LpscConfig(kernel_size=5, levels_r=2, levels_theta=8, growth=2, padding=(2, 2))
        x = np.full((1, 1, 1, 1), 1.75)
        w = make_weights(c, 1, 3, RNG, bias=False)
        want = 1.75 * w.center[0]
        for fwd in (lpsc_forward_fast, lpsc_forward_reference):
            np.testing.assert_allclose(fwd(x, c, w)[0, 0, 0], want, rtol=1e-14)

    def test_constant_input_closed_form(self):
        # interior window, no empty regions: out = c * sum(all weights)
        c = LpscConfig(kernel_size=5, levels_r=2, levels_theta=4, growth=2)
        const = 0.6
        x = np.full((1, 7, 7, 2), const)
        w = make_weights(c, 2, 3, RNG, bias=False)
        want = const * (w.center.sum(axis=0) + w.regions.sum(axis=(0, 1, 2)))
        got = lpsc_forward_reference(x, c, w)[0, 1, 1]
        np.testing.assert_allclose(got, want, rtol=1e-12)

    def test_reference_matches_scalar_loop_all_modes(self):
        for mode in ("mean", "sum", "max"):
            c = LpscConfig(
                kernel_size=5, levels_r=2, levels_theta=6, growth=2,
                stride=(2, 1), padding=(2, 1), pooling_mode=mode,
            )
            x = RNG.normal(size=(1, 7, 6, 2))
            w = make_weights(c, 2, 2, RNG)
            want = loop_lpsc(x[0], build_mask(c), w, c.stride, c.padding, mode, True)
            got = lpsc_forward_reference(x, c, w)[0]
            assert max_rel_error(got, want) < 1e-12

    @pytest.mark.parametrize("mode", ["mean", "sum", "max"])
    @pytest.mark.parametrize("center", [True, False])
    @pytest.mark.parametrize("stride", [1, 2])
    def test_fast_matches_reference(self, mode, center, stride):
        c = LpscConfig(
            kernel_size=5, levels_r=2, levels_theta=8, growth=2,
            stride=stride, padding=(2, 2), pooling_mode=mode, center_conv=center,
        )
        x = RNG.normal(size=(1, 16, 16, 3))
        w = make_weights(c, 3, 4, RNG)
        got = lpsc_forward_fast(x, c, w)
        want = lpsc_forward_reference(x, c, w)
        assert got.shape == want.shape
        assert max_rel_error(got, want) < 1e-10

    def test_fast_matches_reference_asymmetric_geometry(self):
        c = LpscConfig(
            kernel_size=7, levels_r=2, levels_theta=6, growth=2,
            stride=(2, 1), padding=(3, 1), pooling_mode="mean",
        )
        x = RNG.normal(size=(1, 13, 11, 2))
        w = make_weights(c, 2, 3, RNG)
        got = lpsc_forward_fast(x, c, w)
        want = lpsc_forward_reference(x, c, w)
        assert got.shape == want.shape
        assert max_rel_error(got, want) < 1e-10

    def test_reference_sees_a_fault_in_the_slot_plan(self, monkeypatch):
        # the fast path pools each region from the next region's cells; the
        # reference reads only the mask, so every equivalence check fails
        plan = logpolar.lpsc._plan

        def shifted(config):
            slots = plan(config)
            n = config.levels_r * config.levels_theta
            return slots[1:n] + slots[:1] + slots[n:]

        monkeypatch.setattr(logpolar.lpsc, "_plan", shifted)
        results = equivalence_sweep(full=False)
        assert results and not any(r.passed for r in results)
        c = LpscConfig(kernel_size=5, levels_r=2, levels_theta=8, growth=2, padding=(2, 2))
        x = RNG.normal(size=(1, 8, 8, 2))
        w = make_weights(c, 2, 3, RNG)
        assert max_rel_error(lpsc_forward_fast(x, c, w), lpsc_forward_reference(x, c, w)) > EQUIVALENCE_TOL

    def test_batched_matches_per_sample(self):
        c = LpscConfig(kernel_size=5, levels_r=2, levels_theta=6, growth=2, padding=(2, 2))
        x = RNG.normal(size=(3, 8, 8, 2))
        w = make_weights(c, 2, 2, RNG)
        out = lpsc_forward_fast(x, c, w)
        for n in range(3):
            assert np.array_equal(out[n : n + 1], lpsc_forward_fast(x[n : n + 1], c, w))

    def test_channel_mismatch(self):
        c = LpscConfig(kernel_size=5, levels_r=2, levels_theta=8, growth=2, padding=(2, 2))
        w = make_weights(c, 3, 2, RNG)
        with pytest.raises(ValueError, match="channels"):
            lpsc_forward_fast(np.ones((1, 8, 8, 2)), c, w)


class TestAlgebraicProperties:
    def test_sum_equals_mean_with_population_scaled_weights(self):
        c_mean = LpscConfig(kernel_size=7, levels_r=2, levels_theta=6, growth=2, padding=(3, 3))
        c_sum = LpscConfig(
            kernel_size=7, levels_r=2, levels_theta=6, growth=2, padding=(3, 3),
            pooling_mode="sum",
        )
        mask = build_mask(c_mean)
        x = RNG.normal(size=(1, 10, 10, 2))
        w = make_weights(c_mean, 2, 3, RNG)
        scaled = LpscWeights(
            center=w.center.copy(),
            regions=w.regions * np.maximum(mask.counts, 1)[:, :, None, None],
            bias=w.bias.copy(),
        )
        got = lpsc_forward_fast(x, c_sum, w)
        want = lpsc_forward_fast(x, c_mean, scaled)
        assert max_rel_error(got, want) < 1e-12

    def test_linearity_in_input(self):
        c = LpscConfig(kernel_size=5, levels_r=2, levels_theta=8, growth=2, padding=(2, 2))
        w = make_weights(c, 2, 2, RNG, bias=False)
        x = RNG.normal(size=(1, 8, 8, 2))
        y = RNG.normal(size=(1, 8, 8, 2))
        a, b = 1.3, -0.7
        lhs = lpsc_forward_fast(a * x + b * y, c, w)
        rhs = a * lpsc_forward_fast(x, c, w) + b * lpsc_forward_fast(y, c, w)
        assert max_rel_error(lhs, rhs) < 1e-12

    def test_linearity_in_weights(self):
        c = LpscConfig(kernel_size=5, levels_r=2, levels_theta=8, growth=2, padding=(2, 2))
        x = RNG.normal(size=(1, 8, 8, 2))
        w1 = make_weights(c, 2, 2, RNG, bias=False)
        w2 = make_weights(c, 2, 2, RNG, bias=False)
        combined = LpscWeights(
            center=2.0 * w1.center + 0.5 * w2.center,
            regions=2.0 * w1.regions + 0.5 * w2.regions,
        )
        lhs = lpsc_forward_reference(x, c, combined)
        rhs = 2.0 * lpsc_forward_reference(x, c, w1) + 0.5 * lpsc_forward_reference(x, c, w2)
        assert max_rel_error(lhs, rhs) < 1e-12

    def test_locality_beyond_radius(self):
        # stride 2, no padding: input pixels farther than R from every
        # window center cannot influence the output
        c = LpscConfig(kernel_size=5, levels_r=2, levels_theta=8, growth=2, stride=(2, 2))
        x = RNG.normal(size=(1, 9, 9, 1))
        w = make_weights(c, 1, 2, RNG)
        base = lpsc_forward_fast(x, c, w)
        poked = x.copy()
        poked[0, 8, 8, 0] += 100.0  # distance^2 from nearest center (6,6) is 8 > 4
        assert np.array_equal(lpsc_forward_fast(poked, c, w), base)

    def test_locality_elliptical_norm(self):
        # with high eccentricity the cell at offset (R, 0) leaves the
        # field, so poking it cannot change the single-window output
        c = LpscConfig(
            kernel_size=5, levels_r=2, levels_theta=8, growth=2, eccentricity=0.8
        )
        assert build_mask(c).index_grid[4, 2] == 0
        x = RNG.normal(size=(1, 5, 5, 1))
        w = make_weights(c, 1, 2, RNG)
        base = lpsc_forward_fast(x, c, w)
        poked = x.copy()
        poked[0, 4, 2, 0] += 50.0
        assert np.array_equal(lpsc_forward_fast(poked, c, w), base)
        # the circular kernel, by contrast, does see that cell
        circ = LpscConfig(kernel_size=5, levels_r=2, levels_theta=8, growth=2)
        assert not np.array_equal(
            lpsc_forward_fast(poked, circ, w), lpsc_forward_fast(x, circ, w)
        )

    def test_permuting_values_within_one_region(self):
        c = LpscConfig(kernel_size=5, levels_r=2, levels_theta=4, growth=2)
        mask = build_mask(c)
        x = RNG.normal(size=(1, 5, 5, 1))
        w = make_weights(c, 1, 2, RNG)
        cells = np.argwhere(mask.index_grid == 1)  # shell 1, sector 1: two cells
        assert len(cells) == 2
        permuted = x.copy()
        (a0, b0), (a1, b1) = cells
        permuted[0, a0, b0, 0], permuted[0, a1, b1, 0] = x[0, a1, b1, 0], x[0, a0, b0, 0]
        for mode_cfg in (c, LpscConfig(kernel_size=5, levels_r=2, levels_theta=4, growth=2, pooling_mode="sum")):
            base = lpsc_forward_reference(x, mode_cfg, w)
            swapped = lpsc_forward_reference(permuted, mode_cfg, w)
            assert max_rel_error(swapped, base) < 1e-12

    def test_mean_mode_depends_only_on_region_means(self):
        c = LpscConfig(kernel_size=5, levels_r=2, levels_theta=4, growth=2)
        mask = build_mask(c)
        x = RNG.normal(size=(1, 5, 5, 1))
        w = make_weights(c, 1, 2, RNG)
        flattened = x.copy()
        cells = np.argwhere(mask.index_grid == 2)
        mean_val = x[0, cells[:, 0], cells[:, 1], 0].mean()
        flattened[0, cells[:, 0], cells[:, 1], 0] = mean_val
        base = lpsc_forward_reference(x, c, w)
        got = lpsc_forward_reference(flattened, c, w)
        assert max_rel_error(got, base) < 1e-12

    def test_sum_mode_scales_with_region_values(self):
        c = LpscConfig(
            kernel_size=5, levels_r=2, levels_theta=4, growth=2, pooling_mode="sum"
        )
        mask = build_mask(c)
        x = RNG.normal(size=(1, 5, 5, 1))
        w = make_weights(c, 1, 1, RNG, bias=False)
        scaled = x.copy()
        cells = np.argwhere(mask.index_grid == 3)
        scaled[0, cells[:, 0], cells[:, 1], 0] *= 3.0
        base = lpsc_forward_reference(x, c, w)
        got = lpsc_forward_reference(scaled, c, w)
        region_part = w.regions[0, 2, 0, 0] * x[0, cells[:, 0], cells[:, 1], 0].sum()
        np.testing.assert_allclose(got - base, 2.0 * region_part, rtol=1e-10)


class TestBackward:
    def test_zero_grad_output(self):
        c = LpscConfig(kernel_size=5, levels_r=2, levels_theta=8, growth=2, padding=(2, 2))
        x = RNG.normal(size=(1, 8, 8, 2))
        w = make_weights(c, 2, 2, RNG)
        out = lpsc_forward_fast(x, c, w)
        assert out.shape == (1, 8, 8, 2)  # padding r at unit stride keeps the extent
        gx, gw_ = lpsc_backward(x, c, w, np.zeros(out.shape))
        assert not gx.any()
        assert not gw_.center.any() and not gw_.regions.any() and not gw_.bias.any()

    @pytest.mark.parametrize("mode", ["mean", "sum", "max"])
    @pytest.mark.parametrize("center", [True, False])
    def test_matches_finite_differences(self, mode, center):
        c = LpscConfig(
            kernel_size=5, levels_r=2, levels_theta=6, growth=2,
            stride=(2, 2), padding=(2, 2), pooling_mode=mode, center_conv=center,
        )
        rng = np.random.default_rng(5 + len(mode))
        # positive inputs keep max-mode selections away from ties
        x = rng.uniform(0.1, 1.0, size=(1, 8, 8, 2))
        w = make_weights(c, 2, 2, rng)
        out = lpsc_forward_reference(x, c, w)
        p = rng.normal(size=out.shape)
        gx, gws = lpsc_backward(x, c, w, p)

        def loss_x(v):
            return float(np.sum(lpsc_forward_reference(v, c, w) * p))

        def loss_center(v):
            return float(np.sum(lpsc_forward_reference(x, c, LpscWeights(v, w.regions, w.bias)) * p))

        def loss_regions(v):
            return float(np.sum(lpsc_forward_reference(x, c, LpscWeights(w.center, v, w.bias)) * p))

        def loss_bias(v):
            return float(np.sum(lpsc_forward_reference(x, c, LpscWeights(w.center, w.regions, v)) * p))

        assert max_rel_error(gx, finite_difference(loss_x, x)) < 1e-4
        assert max_rel_error(gws.regions, finite_difference(loss_regions, w.regions)) < 1e-4
        assert max_rel_error(gws.bias, finite_difference(loss_bias, w.bias)) < 1e-4
        if center:
            assert max_rel_error(gws.center, finite_difference(loss_center, w.center)) < 1e-4
        else:
            assert not gws.center.any()

    def test_empty_regions_get_zero_gradient(self):
        # size-5, levels_theta=8: outer-shell diagonal sectors are empty
        c = LpscConfig(kernel_size=5, levels_r=2, levels_theta=8, growth=2, padding=(2, 2))
        x = RNG.normal(size=(1, 8, 8, 1))
        w = make_weights(c, 1, 2, RNG)
        g = RNG.normal(size=(1, 8, 8, 2))
        _, gws = lpsc_backward(x, c, w, g)
        mask = build_mask(c)
        for level in range(2):
            for sector in range(8):
                if mask.counts[level, sector] == 0:
                    assert not gws.regions[level, sector].any()

    def test_constant_input_weight_gradient(self):
        c = LpscConfig(kernel_size=5, levels_r=2, levels_theta=4, growth=2)
        const = 0.8
        x = np.full((1, 7, 7, 1), const)
        w = make_weights(c, 1, 2, RNG, bias=False)
        g = RNG.normal(size=(1, 3, 3, 2))
        _, gws = lpsc_backward(x, c, w, g)
        want = const * g.sum(axis=(0, 1, 2))
        for level in range(2):
            for sector in range(4):
                np.testing.assert_allclose(gws.regions[level, sector, 0], want, rtol=1e-12)

    def test_grad_shape_mismatch(self):
        c = LpscConfig(kernel_size=5, levels_r=2, levels_theta=8, growth=2, padding=(2, 2))
        x = RNG.normal(size=(1, 8, 8, 1))
        w = make_weights(c, 1, 2, RNG)
        with pytest.raises(ValueError, match="grad_output"):
            lpsc_backward(x, c, w, np.zeros((1, 3, 3, 2)))

    @pytest.mark.parametrize(
        "regions, cin, message",
        [((2, 6), 1, r"weights cover \(2, 6\) regions, config wants \(2, 8\)"),
         ((2, 8), 3, "input has 1 channels but weights expect 3")],
        ids=["region-grid", "channels"],
    )
    def test_every_path_refuses_the_same_weights(self, regions, cin, message):
        c = LpscConfig(kernel_size=5, levels_r=2, levels_theta=8, growth=2, padding=(2, 2))
        w = LpscWeights(center=np.ones((cin, 2)), regions=np.ones((*regions, cin, 2)))
        x, g = np.ones((1, 6, 6, 1)), np.ones((1, 6, 6, 2))
        for call in (lambda: lpsc_forward_fast(x, c, w), lambda: lpsc_forward_reference(x, c, w),
                     lambda: lpsc_backward(x, c, w, g)):
            with pytest.raises(ValueError, match=message):
                call()

    @pytest.mark.parametrize("mode", POOLING_MODES)
    def test_pooling_adjoint_reads_contiguous_slots(self, monkeypatch, mode):
        # the pooled gradient takes the pooled tensor's channel-major memory, not
        # grad_output's: every slot the pooling adjoint reads is one contiguous block
        c = LpscConfig(kernel_size=7, levels_r=2, levels_theta=6, growth=2, padding=3,
                       pooling_mode=mode)
        x = RNG.normal(size=(2, 9, 8, 3))
        w = make_weights(c, 3, 4, RNG)
        out, pooled = lpsc_forward_fast(x, c, w, return_pooled=True)
        g = RNG.normal(size=out.shape)
        orders = [g, np.ascontiguousarray(g.transpose(3, 0, 1, 2)).transpose(1, 2, 3, 0)]
        assert orders[0].flags.c_contiguous and not orders[1].flags.c_contiguous
        adjoint, slot_blocks = logpolar.lpsc.pool_cells_backward, []

        def spy(win, slots, mode, pooled, grad, *geometry):
            slot_blocks.append([grad[:, :, :, k].transpose(3, 0, 1, 2).flags.c_contiguous
                                for k in range(len(slots))])
            return adjoint(win, slots, mode, pooled, grad, *geometry)

        monkeypatch.setattr(logpolar.lpsc, "pool_cells_backward", spy)
        (gx, gw), (gx2, gw2) = (lpsc_backward(x, c, w, grad, pooled=pooled) for grad in orders)
        assert len(slot_blocks) == 2 and all(all(blocks) for blocks in slot_blocks)
        assert gx.tobytes() == gx2.tobytes()
        for name in ("center", "regions", "bias"):
            assert getattr(gw, name).tobytes() == getattr(gw2, name).tobytes()

    @pytest.mark.parametrize("mode", POOLING_MODES)
    @pytest.mark.parametrize("reuse", [True, False], ids=["forward-pooled", "pooled-again"])
    def test_without_input_grad_weight_bytes_stay(self, monkeypatch, mode, reuse):
        # neither the pooled gradient nor the pooling adjoint is computed
        c = LpscConfig(kernel_size=5, levels_r=2, levels_theta=6, growth=2, stride=(2, 1),
                       padding=2, pooling_mode=mode)
        x = RNG.normal(size=(2, 9, 8, 3))
        w = make_weights(c, 3, 4, RNG)
        out, pooled = lpsc_forward_fast(x, c, w, return_pooled=True)
        g = RNG.normal(size=out.shape)
        kwargs = {"pooled": pooled} if reuse else {}
        _, want = lpsc_backward(x, c, w, g, **kwargs)
        block, block_kwargs, adjoints = logpolar.lpsc.conv2d_raw_backward, [], []
        monkeypatch.setattr(logpolar.lpsc, "conv2d_raw_backward",
                            lambda *args, **kw: block_kwargs.append(kw) or block(*args, **kw))
        monkeypatch.setattr(logpolar.lpsc, "pool_cells_backward", lambda *args: adjoints.append(args))
        gx, got = lpsc_backward(x, c, w, g, **kwargs, input_grad=False)
        assert gx is None and not adjoints and block_kwargs == [{"input_grad": False}]
        for name in ("center", "regions", "bias"):
            assert getattr(got, name).tobytes() == getattr(want, name).tobytes()

    def test_forward_pooled_tensor_reused(self):
        c = LpscConfig(kernel_size=5, levels_r=2, levels_theta=4, growth=2, stride=(1, 2))
        x = RNG.normal(size=(1, 7, 8, 2))
        w = make_weights(c, 2, 3, RNG)
        out, pooled = lpsc_forward_fast(x, c, w, return_pooled=True)
        assert np.array_equal(out, lpsc_forward_fast(x, c, w))
        assert np.array_equal(pooled, log_polar_pool(x, c))
        g = RNG.normal(size=out.shape)
        gx, gws = lpsc_backward(x, c, w, g, pooled=pooled)
        want_gx, want = lpsc_backward(x, c, w, g)
        assert np.array_equal(gx, want_gx)
        assert np.array_equal(gws.regions, want.regions) and np.array_equal(gws.bias, want.bias)
        with pytest.raises(ValueError, match="pooled shape"):
            lpsc_backward(x, c, w, g, pooled=pooled[:, :-1])

    @pytest.mark.parametrize("mode", POOLING_MODES)
    @pytest.mark.parametrize("center", [True, False])
    @pytest.mark.parametrize("size, padding", [(3, p) for p in range(4)] + [(5, p) for p in range(6)])
    def test_windows_apart_match_scatter_oracle(self, mode, center, size, padding):
        # stride = window: no two windows share a cell, so each stride phase
        # takes one tap, added straight into the input gradient
        levels_r, levels_theta = {3: (1, 4), 5: (2, 6)}[size]
        c = LpscConfig(kernel_size=size, levels_r=levels_r, levels_theta=levels_theta, growth=2,
                       stride=size, padding=padding, pooling_mode=mode, center_conv=center)
        x = np.round(RNG.normal(size=(2, 3 * size + 1, 2 * size + 2, 2))) / 2  # ties in max mode
        w = make_weights(c, 2, 3, RNG)
        out = lpsc_forward_fast(x, c, w)
        adjoint, calls = logpolar.lpsc.pool_cells_backward, []

        def spy(*args):
            calls.append(args)
            return adjoint(*args)

        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(logpolar.lpsc, "pool_cells_backward", spy)
            gx, _ = lpsc_backward(x, c, w, RNG.normal(size=out.shape))
        assert gx.tobytes() == scatter_pool_cells_backward(*calls[0]).tobytes()

    @pytest.mark.parametrize("mode", ["mean", "max"])
    @pytest.mark.parametrize("layout", ["c-order", "channel-major"])
    def test_input_gradient_layout_is_channel_major(self, mode, layout):
        # the pooled gradient lands channel-major, and the pooling adjoint
        # lays the input gradient out as it: (C, N, H, W) memory
        c = LpscConfig(kernel_size=5, levels_r=2, levels_theta=6, growth=2, stride=2,
                       padding=2, pooling_mode=mode)
        x = RNG.normal(size=(2, 9, 8, 3))
        if layout == "channel-major":
            x = np.ascontiguousarray(x.transpose(3, 0, 1, 2)).transpose(1, 2, 3, 0)
        w = make_weights(c, 3, 4, RNG)
        gx, _ = lpsc_backward(x, c, w, RNG.normal(size=lpsc_forward_fast(x, c, w).shape))
        assert np.argsort(gx.strides).tolist() == [2, 1, 0, 3]


class TestWeightFile:
    def test_roundtrip_bitwise(self, tmp_path):
        c = LpscConfig(kernel_size=5, levels_r=2, levels_theta=6, growth=2)
        w = make_weights(c, 3, 4, RNG)
        p = tmp_path / "w.lpscw"
        save_lpsc_weights(p, w)
        back = load_lpsc_weights(p)
        assert np.array_equal(back.center, w.center)
        assert np.array_equal(back.regions, w.regions)
        assert np.array_equal(back.bias, w.bias)
        p2 = tmp_path / "again.lpscw"
        save_lpsc_weights(p2, back)
        assert p.read_bytes() == p2.read_bytes()

    @pytest.mark.parametrize("bias", [True, False])
    def test_file_bytes(self, tmp_path, bias):
        c = LpscConfig(kernel_size=5, levels_r=2, levels_theta=6, growth=2)
        w = make_weights(c, 3, 4, RNG, bias=bias)
        p = tmp_path / "w.lpscw"
        save_lpsc_weights(p, w)
        blocks = [w.center, w.regions] + ([w.bias] if bias else [])
        want = f"LPSCW v1 2 6 3 4 {int(bias)}\n".encode("ascii")
        assert p.read_bytes() == want + b"".join(b.astype("<f8").tobytes() for b in blocks)

    def test_roundtrip_without_bias(self, tmp_path):
        c = LpscConfig(kernel_size=5, levels_r=1, levels_theta=4, growth=2)
        w = make_weights(c, 1, 1, RNG, bias=False)
        p = tmp_path / "nb.lpscw"
        save_lpsc_weights(p, w)
        assert load_lpsc_weights(p).bias is None

    @pytest.mark.parametrize("block", ["center", "regions", "bias"])
    def test_save_refuses_non_finite(self, tmp_path, block):
        c = LpscConfig(kernel_size=5, levels_r=2, levels_theta=6, growth=2)
        w = make_weights(c, 2, 3, RNG)
        getattr(w, block).flat[-1] = np.nan
        p = tmp_path / "nan.lpscw"
        with pytest.raises(ValueError, match="NaN or Inf"):
            save_lpsc_weights(p, w)
        assert not p.exists()

    def test_corrupted_header(self, tmp_path):
        p = tmp_path / "bad.lpscw"
        p.write_bytes(b"LPSCW v2 1 1 1 1 0\n" + b"\x00" * 16)
        with pytest.raises(ValueError, match="LPSCW"):
            load_lpsc_weights(p)

    def test_truncated_payload(self, tmp_path):
        p = tmp_path / "short.lpscw"
        p.write_bytes(b"LPSCW v1 1 4 1 1 0\n" + b"\x00" * 16)
        with pytest.raises(ValueError, match="payload"):
            load_lpsc_weights(p)


class TestRegionOffsets:
    def test_row_major_order_and_population(self):
        c = LpscConfig(kernel_size=5, levels_r=2, levels_theta=8, growth=2, pooling_mode="sum")
        mask = build_mask(c)
        cells = [np.argwhere(mask.index_grid == k) - mask.radius for k in range(1, 17)]
        assert all(len(o) == mask.counts.ravel()[k] for k, o in enumerate(cells))
        # row-major: sector 2 of shell 1 is the single cell (-1, 1)
        assert cells[1].tolist() == [[-1, 1]]
        # and the pooled slot of that region reads exactly that cell
        x = np.arange(25.0).reshape(1, 5, 5, 1)
        assert log_polar_pool(x, c)[0, 0, 0, 1] == x[0, 2 - 1, 2 + 1, 0]


@st.composite
def operator_cases(draw):
    """A random configuration from the whole space, with input and weights."""
    radius = draw(st.integers(1, 4))
    stride = (draw(st.integers(1, 3)), draw(st.integers(1, 3)))
    # padding up to kernel_size + 2: past the radius, some windows hold no input cell
    padding = (draw(st.integers(0, 2 * radius + 3)), draw(st.integers(0, 2 * radius + 3)))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", DegenerateGeometryWarning)
        config = LpscConfig(
            kernel_size=2 * radius + 1,
            levels_r=draw(st.integers(1, 3)),
            levels_theta=draw(st.sampled_from([2, 4, 6, 8])),
            growth=draw(st.sampled_from([1.5, 2.0, 3.0])),
            alpha=draw(st.floats(0.0, 2 * math.pi)),
            eccentricity=draw(st.floats(0.0, 0.9)),
            stride=stride,
            padding=padding,
            pooling_mode=draw(st.sampled_from(POOLING_MODES)),
            center_conv=draw(st.booleans()),
        )
    k = config.kernel_size
    h = draw(st.integers(max(1, k - 2 * padding[0]), k + 4))
    w = draw(st.integers(max(1, k - 2 * padding[1]), k + 4))
    cin, cout = draw(st.integers(1, 3)), draw(st.integers(1, 3))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    x = rng.normal(size=(draw(st.integers(1, 2)), h, w, cin))
    return config, x, make_weights(config, cin, cout, rng), rng


def _adjoint_gap(lhs, rhs, scale):
    return abs(lhs - rhs) / max(scale, 1e-300)


class TestProperties:
    """Fast path against the reference and the adjoint identities, drawn
    over alpha, eccentricity, every pooling mode, and non-square stride,
    padding and input extents."""

    @settings(max_examples=60, deadline=None)
    @given(operator_cases())
    def test_fast_matches_reference(self, case):
        config, x, weights, _ = case
        got = lpsc_forward_fast(x, config, weights)
        want = lpsc_forward_reference(x, config, weights)
        assert got.shape == want.shape
        assert max_rel_error(got, want) < EQUIVALENCE_TOL

    @settings(max_examples=40, deadline=None)
    @given(operator_cases())
    def test_max_mode_ties_route_to_first_cell(self, case):
        # inputs in halves tie often; each region's gradient must reach its
        # first maximal cell in row-major mask order
        config, x, weights, rng = case
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", DegenerateGeometryWarning)
            config = dataclasses.replace(config, pooling_mode="max")
        x = np.round(x) / 2
        g = rng.normal(size=lpsc_forward_fast(x, config, weights).shape)
        grad_x, _ = lpsc_backward(x, config, weights, g)
        mask = build_mask(config)
        for n in range(len(x)):
            want = loop_lpsc_max_grad_input(
                x[n], mask, weights, config.stride, config.padding, config.center_conv, g[n]
            )
            assert max_rel_error(grad_x[n], want) < 1e-12

    @settings(max_examples=60, deadline=None)
    @given(operator_cases())
    def test_pooling_adjoint_matches_scatter_oracle(self, case):
        # each input cell adds its taps in the scatter's (slot, tap) order, so
        # the bytes match, for the channel-major pooled gradient that
        # lpsc_backward passes and for a C-order one; every zero is +0.0
        config, x, weights, rng = case
        x = np.round(x) / 2  # max mode ties often
        adjoint, calls = logpolar.lpsc.pool_cells_backward, []

        def spy(*args):
            calls.append(args)
            return adjoint(*args)

        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(logpolar.lpsc, "pool_cells_backward", spy)
            out = lpsc_forward_fast(x, config, weights)
            lpsc_backward(x, config, weights, rng.normal(size=out.shape))
        ((win, slots, mode, pooled, grad, *geometry),) = calls
        for g in (grad, np.ascontiguousarray(grad)):
            got = adjoint(win, slots, mode, pooled, g, *geometry)
            want = scatter_pool_cells_backward(win, slots, mode, pooled, g, *geometry)
            assert got.shape == x.shape and got.tobytes() == want.tobytes()
            assert not np.signbit(got[got == 0]).any()

    @settings(max_examples=60, deadline=None)
    @given(operator_cases())
    def test_adjoint_identities(self, case):
        # <f(x), g> == <x, f^T g> and == <w, d/dw> with the bias left out;
        # max mode is piecewise linear, so the identities hold there too
        config, x, weights, rng = case
        weights = LpscWeights(center=weights.center, regions=weights.regions)
        out = lpsc_forward_fast(x, config, weights)
        g = rng.normal(size=out.shape)
        grad_x, grad_w = lpsc_backward(x, config, weights, g)
        lhs = float(np.vdot(out, g))
        scale = float(np.vdot(np.abs(out), np.abs(g)))
        rhs_x = float(np.vdot(x, grad_x))
        rhs_w = float(np.vdot(weights.center, grad_w.center) + np.vdot(weights.regions, grad_w.regions))
        assert _adjoint_gap(lhs, rhs_x, scale) < EQUIVALENCE_TOL
        assert _adjoint_gap(lhs, rhs_w, scale) < EQUIVALENCE_TOL
        assert grad_w.bias is None
