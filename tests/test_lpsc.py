"""The log-polar operator: region-channel pooling, path equivalence, adjoints."""

import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from logpolar.checks import EQUIVALENCE_TOL
from logpolar.geometry import POOLING_MODES, DegenerateGeometryWarning, LpscConfig, build_mask
from logpolar.lpsc import (
    LpscWeights,
    load_lpsc_weights,
    log_polar_pool,
    lpsc_backward,
    lpsc_forward_fast,
    lpsc_forward_reference,
    lpsc_output_shape,
    region_offsets,
    save_lpsc_weights,
)

from oracles import finite_difference, max_rel_error

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


def make_weights(config, cin, cout, rng, bias=True):
    return LpscWeights(
        center=rng.normal(size=(cin, cout)),
        regions=rng.normal(size=(config.levels_r, config.levels_theta, cin, cout)),
        bias=rng.normal(size=cout) if bias else None,
    )


class TestLogPolarPool:
    def test_region_channel_shape(self):
        c = LpscConfig(kernel_size=5, levels_r=2, levels_theta=6, growth=2, padding=(2, 2))
        x = RNG.normal(size=(8, 8, 3))
        assert log_polar_pool(x, c).shape == (8, 8, 2 * 6 * 3)
        assert log_polar_pool(x[None], c).shape == (1, 8, 8, 2 * 6 * 3)

    def test_constant_input_mean(self):
        # levels_theta=4 leaves no region empty on the size-5 kernel, so a
        # constant input pools to that constant in every region channel
        c = LpscConfig(kernel_size=5, levels_r=2, levels_theta=4, growth=2)
        x = np.full((7, 7, 1), 3.25)
        assert np.array_equal(log_polar_pool(x, c), np.full((3, 3, 8), 3.25))

    def test_single_location_sum_mode_outer_shell(self):
        c = LpscConfig(kernel_size=5, levels_r=2, levels_theta=8, growth=2, pooling_mode="sum")
        mask = build_mask(c)
        x = RNG.normal(size=(5, 5, 2))
        pooled = log_polar_pool(x, c)
        assert pooled.shape == (1, 1, 16 * 2)
        slots = pooled[0, 0].reshape(16, 2)  # region k = (level-1)*8 + sector-1, then channel
        for k in range(16):
            np.testing.assert_allclose(slots[k], x[mask.index_grid == k + 1].sum(axis=0), rtol=1e-14)
        # the outer shell holds one cell on each axis
        assert np.array_equal(slots[8], x[2, 4])  # shell 2, sector 1 = offset (0, 2)
        assert np.array_equal(slots[10], x[0, 2])  # sector 3 = offset (-2, 0)
        assert np.array_equal(slots[12], x[2, 0])  # sector 5 = offset (0, -2)
        assert np.array_equal(slots[14], x[4, 2])  # sector 7 = offset (2, 0)
        # empty outer sectors (diagonals fall outside) pool to zero
        assert not slots[[9, 11, 13, 15]].any()

    def test_mask_larger_than_padded_input(self):
        c = LpscConfig(kernel_size=5, levels_r=2, levels_theta=8, growth=2)
        with pytest.raises(ValueError, match="larger than padded input"):
            log_polar_pool(np.ones((3, 3, 1)), c)


class TestForward:
    def test_zero_weights_zero_output(self):
        c = LpscConfig(kernel_size=5, levels_r=2, levels_theta=8, growth=2, padding=(2, 2))
        x = RNG.normal(size=(8, 8, 2))
        w = LpscWeights(center=np.zeros((2, 3)), regions=np.zeros((2, 8, 2, 3)))
        assert not lpsc_forward_fast(x, c, w).any()
        assert not lpsc_forward_reference(x, c, w).any()

    def test_identity_center_returns_input(self):
        c = LpscConfig(kernel_size=5, levels_r=2, levels_theta=8, growth=2, padding=(2, 2))
        x = RNG.normal(size=(9, 9, 1))
        w = LpscWeights(center=np.ones((1, 1)), regions=np.zeros((2, 8, 1, 1)))
        for fwd in (lpsc_forward_fast, lpsc_forward_reference):
            assert np.array_equal(fwd(x, c, w), x)

    def test_one_pixel_input_sees_only_center(self):
        c = LpscConfig(kernel_size=5, levels_r=2, levels_theta=8, growth=2, padding=(2, 2))
        x = np.full((1, 1, 1), 1.75)
        w = make_weights(c, 1, 3, RNG, bias=False)
        want = 1.75 * w.center[0]
        for fwd in (lpsc_forward_fast, lpsc_forward_reference):
            np.testing.assert_allclose(fwd(x, c, w)[0, 0], want, rtol=1e-14)

    def test_constant_input_closed_form(self):
        # interior window, no empty regions: out = c * sum(all weights)
        c = LpscConfig(kernel_size=5, levels_r=2, levels_theta=4, growth=2)
        const = 0.6
        x = np.full((7, 7, 2), const)
        w = make_weights(c, 2, 3, RNG, bias=False)
        want = const * (w.center.sum(axis=0) + w.regions.sum(axis=(0, 1, 2)))
        got = lpsc_forward_reference(x, c, w)[1, 1]
        np.testing.assert_allclose(got, want, rtol=1e-12)

    def test_reference_matches_scalar_loop_all_modes(self):
        for mode in ("mean", "sum", "max"):
            c = LpscConfig(
                kernel_size=5, levels_r=2, levels_theta=6, growth=2,
                stride=(2, 1), padding=(2, 1), pooling_mode=mode,
            )
            x = RNG.normal(size=(7, 6, 2))
            w = make_weights(c, 2, 2, RNG)
            want = loop_lpsc(x, build_mask(c), w, c.stride, c.padding, mode, True)
            got = lpsc_forward_reference(x, c, w)
            assert max_rel_error(got, want) < 1e-12

    @pytest.mark.parametrize("mode", ["mean", "sum", "max"])
    @pytest.mark.parametrize("center", [True, False])
    @pytest.mark.parametrize("stride", [1, 2])
    def test_fast_matches_reference(self, mode, center, stride):
        c = LpscConfig(
            kernel_size=5, levels_r=2, levels_theta=8, growth=2,
            stride=stride, padding=(2, 2), pooling_mode=mode, center_conv=center,
        )
        x = RNG.normal(size=(16, 16, 3))
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
        x = RNG.normal(size=(13, 11, 2))
        w = make_weights(c, 2, 3, RNG)
        got = lpsc_forward_fast(x, c, w)
        want = lpsc_forward_reference(x, c, w)
        assert got.shape == want.shape
        assert max_rel_error(got, want) < 1e-10

    def test_batched_matches_per_sample(self):
        c = LpscConfig(kernel_size=5, levels_r=2, levels_theta=6, growth=2, padding=(2, 2))
        x = RNG.normal(size=(3, 8, 8, 2))
        w = make_weights(c, 2, 2, RNG)
        out = lpsc_forward_fast(x, c, w)
        for n in range(3):
            assert np.array_equal(out[n], lpsc_forward_fast(x[n], c, w))

    def test_channel_mismatch(self):
        c = LpscConfig(kernel_size=5, levels_r=2, levels_theta=8, growth=2, padding=(2, 2))
        w = make_weights(c, 3, 2, RNG)
        with pytest.raises(ValueError, match="channels"):
            lpsc_forward_fast(np.ones((8, 8, 2)), c, w)


class TestAlgebraicProperties:
    def test_sum_equals_mean_with_population_scaled_weights(self):
        c_mean = LpscConfig(kernel_size=7, levels_r=2, levels_theta=6, growth=2, padding=(3, 3))
        c_sum = LpscConfig(
            kernel_size=7, levels_r=2, levels_theta=6, growth=2, padding=(3, 3),
            pooling_mode="sum",
        )
        mask = build_mask(c_mean)
        x = RNG.normal(size=(10, 10, 2))
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
        x = RNG.normal(size=(8, 8, 2))
        y = RNG.normal(size=(8, 8, 2))
        a, b = 1.3, -0.7
        lhs = lpsc_forward_fast(a * x + b * y, c, w)
        rhs = a * lpsc_forward_fast(x, c, w) + b * lpsc_forward_fast(y, c, w)
        assert max_rel_error(lhs, rhs) < 1e-12

    def test_linearity_in_weights(self):
        c = LpscConfig(kernel_size=5, levels_r=2, levels_theta=8, growth=2, padding=(2, 2))
        x = RNG.normal(size=(8, 8, 2))
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
        x = RNG.normal(size=(9, 9, 1))
        w = make_weights(c, 1, 2, RNG)
        base = lpsc_forward_fast(x, c, w)
        poked = x.copy()
        poked[8, 8, 0] += 100.0  # distance^2 from nearest center (6,6) is 8 > 4
        assert np.array_equal(lpsc_forward_fast(poked, c, w), base)

    def test_locality_elliptical_norm(self):
        # with high eccentricity the cell at offset (R, 0) leaves the
        # field, so poking it cannot change the single-window output
        c = LpscConfig(
            kernel_size=5, levels_r=2, levels_theta=8, growth=2, eccentricity=0.8
        )
        assert build_mask(c).index_grid[4, 2] == 0
        x = RNG.normal(size=(5, 5, 1))
        w = make_weights(c, 1, 2, RNG)
        base = lpsc_forward_fast(x, c, w)
        poked = x.copy()
        poked[4, 2, 0] += 50.0
        assert np.array_equal(lpsc_forward_fast(poked, c, w), base)
        # the circular kernel, by contrast, does see that cell
        circ = LpscConfig(kernel_size=5, levels_r=2, levels_theta=8, growth=2)
        assert not np.array_equal(
            lpsc_forward_fast(poked, circ, w), lpsc_forward_fast(x, circ, w)
        )

    def test_permuting_values_within_one_region(self):
        c = LpscConfig(kernel_size=5, levels_r=2, levels_theta=4, growth=2)
        mask = build_mask(c)
        x = RNG.normal(size=(5, 5, 1))
        w = make_weights(c, 1, 2, RNG)
        cells = np.argwhere(mask.index_grid == 1)  # shell 1, sector 1: two cells
        assert len(cells) == 2
        permuted = x.copy()
        (a0, b0), (a1, b1) = cells
        permuted[a0, b0, 0], permuted[a1, b1, 0] = x[a1, b1, 0], x[a0, b0, 0]
        for mode_cfg in (c, LpscConfig(kernel_size=5, levels_r=2, levels_theta=4, growth=2, pooling_mode="sum")):
            base = lpsc_forward_reference(x, mode_cfg, w)
            swapped = lpsc_forward_reference(permuted, mode_cfg, w)
            assert max_rel_error(swapped, base) < 1e-12

    def test_mean_mode_depends_only_on_region_means(self):
        c = LpscConfig(kernel_size=5, levels_r=2, levels_theta=4, growth=2)
        mask = build_mask(c)
        x = RNG.normal(size=(5, 5, 1))
        w = make_weights(c, 1, 2, RNG)
        flattened = x.copy()
        cells = np.argwhere(mask.index_grid == 2)
        mean_val = x[cells[:, 0], cells[:, 1], 0].mean()
        flattened[cells[:, 0], cells[:, 1], 0] = mean_val
        base = lpsc_forward_reference(x, c, w)
        got = lpsc_forward_reference(flattened, c, w)
        assert max_rel_error(got, base) < 1e-12

    def test_sum_mode_scales_with_region_values(self):
        c = LpscConfig(
            kernel_size=5, levels_r=2, levels_theta=4, growth=2, pooling_mode="sum"
        )
        mask = build_mask(c)
        x = RNG.normal(size=(5, 5, 1))
        w = make_weights(c, 1, 1, RNG, bias=False)
        scaled = x.copy()
        cells = np.argwhere(mask.index_grid == 3)
        scaled[cells[:, 0], cells[:, 1], 0] *= 3.0
        base = lpsc_forward_reference(x, c, w)
        got = lpsc_forward_reference(scaled, c, w)
        region_part = w.regions[0, 2, 0, 0] * x[cells[:, 0], cells[:, 1], 0].sum()
        np.testing.assert_allclose(got - base, 2.0 * region_part, rtol=1e-10)


class TestBackward:
    def test_zero_grad_output(self):
        c = LpscConfig(kernel_size=5, levels_r=2, levels_theta=8, growth=2, padding=(2, 2))
        x = RNG.normal(size=(8, 8, 2))
        w = make_weights(c, 2, 2, RNG)
        gh, gw = lpsc_output_shape((8, 8), c)
        gx, gw_ = lpsc_backward(x, c, w, np.zeros((gh, gw, 2)))
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
        x = rng.uniform(0.1, 1.0, size=(8, 8, 2))
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
        x = RNG.normal(size=(8, 8, 1))
        w = make_weights(c, 1, 2, RNG)
        g = RNG.normal(size=(8, 8, 2))
        _, gws = lpsc_backward(x, c, w, g)
        mask = build_mask(c)
        for level in range(2):
            for sector in range(8):
                if mask.counts[level, sector] == 0:
                    assert not gws.regions[level, sector].any()

    def test_constant_input_weight_gradient(self):
        c = LpscConfig(kernel_size=5, levels_r=2, levels_theta=4, growth=2)
        const = 0.8
        x = np.full((7, 7, 1), const)
        w = make_weights(c, 1, 2, RNG, bias=False)
        g = RNG.normal(size=(3, 3, 2))
        _, gws = lpsc_backward(x, c, w, g)
        want = const * g.sum(axis=(0, 1))
        for level in range(2):
            for sector in range(4):
                np.testing.assert_allclose(gws.regions[level, sector, 0], want, rtol=1e-12)

    def test_grad_shape_mismatch(self):
        c = LpscConfig(kernel_size=5, levels_r=2, levels_theta=8, growth=2, padding=(2, 2))
        x = RNG.normal(size=(8, 8, 1))
        w = make_weights(c, 1, 2, RNG)
        with pytest.raises(ValueError, match="grad_output"):
            lpsc_backward(x, c, w, np.zeros((3, 3, 2)))


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
        c = LpscConfig(kernel_size=5, levels_r=2, levels_theta=8, growth=2)
        mask = build_mask(c)
        offs = region_offsets(mask)
        assert len(offs) == 16
        assert all(len(o) == mask.counts.ravel()[k] for k, o in enumerate(offs))
        # row-major: sector 2 of shell 1 is the single cell (-1, 1)
        assert offs[1].tolist() == [[-1, 1]]


@st.composite
def operator_cases(draw):
    """A random configuration from the whole space, with input and weights."""
    radius = draw(st.integers(1, 4))
    stride = (draw(st.integers(1, 3)), draw(st.integers(1, 3)))
    padding = (draw(st.integers(0, radius)), draw(st.integers(0, radius)))
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
    h = draw(st.integers(k - 2 * padding[0], k + 4))
    w = draw(st.integers(k - 2 * padding[1], k + 4))
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
