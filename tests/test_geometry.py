"""Mask geometry: hand-enumerated fixtures, invariant sweep, properties."""

import math
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import logpolar.lpsc
import logpolar.network
from logpolar.geometry import (
    DegenerateGeometryWarning,
    LpscConfig,
    build_mask,
    direction_sector,
    mask_to_pgm,
    mask_to_text,
    region_radii,
    squared_cell_distance,
)
from logpolar.network import LpscLayer


def cfg(size, lr, lt, g, **kw):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", DegenerateGeometryWarning)
        return LpscConfig(kernel_size=size, levels_r=lr, levels_theta=lt, growth=g, **kw)


# All 25 offsets of the (size 5, levels_r 2, levels_theta 8, growth 2)
# kernel enumerated by hand: shells at squared distance 2 and 4, sectors of
# 45 degrees counterclockwise from (0, 1), squared distances 5 and 8 outside.
SIZE5_EXPECTED = np.array(
    [
        [0, 0, 11, 0, 0],
        [0, 4, 3, 2, 0],
        [13, 5, -1, 1, 9],
        [0, 6, 7, 8, 0],
        [0, 0, 15, 0, 0],
    ]
)


class TestConfigValidation:
    def test_even_size_rejected(self):
        with pytest.raises(ValueError, match="odd"):
            LpscConfig(kernel_size=4, levels_r=2, levels_theta=8, growth=2)

    def test_odd_levels_theta_rejected(self):
        with pytest.raises(ValueError, match="even"):
            LpscConfig(kernel_size=5, levels_r=2, levels_theta=7, growth=2)

    def test_growth_must_exceed_one(self):
        with pytest.raises(ValueError, match="growth"):
            LpscConfig(kernel_size=5, levels_r=2, levels_theta=8, growth=1.0)

    @pytest.mark.parametrize(
        "field, value",
        [("growth", math.inf), ("growth", math.nan), ("alpha", math.inf), ("alpha", -math.inf),
         ("alpha", math.nan), pytest.param("growth", 10**400, id="growth-past-every-float"),
         pytest.param("alpha", -(10**400), id="alpha-past-every-float")],
    )
    def test_growth_and_alpha_must_be_finite(self, field, value):
        with pytest.raises(ValueError, match=f"{field} must be finite"):
            LpscConfig(kernel_size=5, levels_r=2, levels_theta=8, **{"growth": 2, field: value})

    def test_eccentricity_bounds(self):
        with pytest.raises(ValueError, match="eccentricity"):
            LpscConfig(kernel_size=5, levels_r=2, levels_theta=8, growth=2, eccentricity=1.0)

    def test_bad_pooling_mode(self):
        with pytest.raises(ValueError, match="pooling_mode"):
            LpscConfig(kernel_size=5, levels_r=2, levels_theta=8, growth=2, pooling_mode="median")

    def test_scalar_stride_normalized(self):
        c = LpscConfig(kernel_size=5, levels_r=2, levels_theta=8, growth=2, stride=2, padding=1)
        assert c.stride == (2, 2)
        assert c.padding == (1, 1)

    def test_degenerate_geometry_warns(self):
        with pytest.warns(DegenerateGeometryWarning):
            LpscConfig(kernel_size=5, levels_r=3, levels_theta=8, growth=2)

    def test_shell_chain_past_every_float_builds(self):
        # 2.0 ** 1099 is past the largest float: the outer thresholds are inf, not an error
        with pytest.warns(DegenerateGeometryWarning):
            mask = build_mask(LpscConfig(5, 1100, 4, 2.0))
        assert mask.counts.shape == (1100, 4)
        assert np.array_equal(mask.radii[:2], [2.0, 4.0]) and mask.radii[-1] == math.inf
        assert int(mask.counts.sum()) == int((mask.index_grid > 0).sum()) == 12

    def test_degenerate_geometry_warning_names_the_caller(self):
        with pytest.warns(DegenerateGeometryWarning) as rec:
            LpscConfig(kernel_size=5, levels_r=3, levels_theta=8, growth=2)
        assert rec[0].filename == __file__

    @pytest.mark.parametrize("size", [8193, 100001, 10**160 + 1], ids=["8193", "100001", "160-digit"])
    def test_mask_past_the_array_bound_refused(self, size):
        # refused from the size alone, before any mask is allocated
        with pytest.raises(ValueError, match=rf"^kernel_size must be at most 8192, .*, got {size}$"):
            LpscConfig(kernel_size=size, levels_r=2, levels_theta=4, growth=2)

    def test_largest_mask_size_builds(self):
        assert LpscConfig(kernel_size=8191, levels_r=2, levels_theta=4, growth=2).radius == 4095

    def test_healthy_geometry_does_not_warn(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            LpscConfig(kernel_size=5, levels_r=2, levels_theta=8, growth=2)
            LpscConfig(kernel_size=5, levels_r=2, levels_theta=6, growth=3)


class TestSize5Example:
    def test_radii(self):
        c = cfg(5, 2, 8, 2)
        assert np.array_equal(region_radii(c), [2.0, 4.0])

    def test_index_grid_matches_hand_enumeration(self):
        mask = build_mask(cfg(5, 2, 8, 2))
        assert np.array_equal(mask.index_grid, SIZE5_EXPECTED)

    def test_twelve_cells_inside(self):
        mask = build_mask(cfg(5, 2, 8, 2))
        assert int((mask.index_grid > 0).sum()) == 12

    def test_eight_neighbors_in_level_one(self):
        mask = build_mask(cfg(5, 2, 8, 2))
        lt = mask.levels_theta
        for dr in (-1, 0, 1):
            for dc in (-1, 0, 1):
                if dr == 0 and dc == 0:
                    continue
                k = mask.index_grid[2 + dr, 2 + dc]
                assert (k - 1) // lt + 1 == 1

    def test_counts(self):
        mask = build_mask(cfg(5, 2, 8, 2))
        assert np.array_equal(mask.counts[0], [1] * 8)
        assert np.array_equal(mask.counts[1], [1, 0, 1, 0, 1, 0, 1, 0])


class TestSize11Radii:
    def test_values(self):
        c = cfg(11, 3, 8, 2)
        assert np.array_equal(region_radii(c), [6.25, 12.5, 25.0])


class TestDirections:
    def test_reference_offset_is_sector_one(self):
        assert direction_sector(0, 1, 0.0, 8) == 1
        assert direction_sector(0, 2, 0.0, 8) == 1

    def test_up_offset_is_sector_three(self):
        # one row up: angle pi/2, third 45-degree sector under the
        # tie-to-higher rule
        assert direction_sector(-1, 0, 0.0, 8) == 3

    def test_boundary_ties_go_up(self):
        # 45-degree diagonal is the lower edge of sector 2
        assert direction_sector(-1, 1, 0.0, 8) == 2
        assert direction_sector(-3, 3, 0.0, 8) == 2
        # 135-degree diagonal opens sector 4
        assert direction_sector(-1, -1, 0.0, 8) == 4

    def test_alpha_quarter_turn_shifts_every_cell_one_sector(self):
        for dr in range(-2, 3):
            for dc in range(-2, 3):
                if dr == 0 and dc == 0:
                    continue
                base = direction_sector(dr, dc, 0.0, 8)
                shifted = direction_sector(dr, dc, math.pi / 4, 8)
                assert shifted == base % 8 + 1

    @settings(max_examples=80, deadline=None)
    @given(
        st.integers(-9, 9),
        st.integers(-9, 9),
        st.sampled_from([4, 8]),
    )
    def test_quarter_rotation_shifts_by_lt_over_4(self, dr, dc, lt):
        # rotating a cell 90 degrees counterclockwise moves its sector by
        # lt/4 when lt is divisible by 4
        if dr == 0 and dc == 0:
            return
        m = direction_sector(dr, dc, 0.0, lt)
        m_rot = direction_sector(-dc, dr, 0.0, lt)
        assert (m_rot - 1) % lt == (m - 1 + lt // 4) % lt

    @settings(max_examples=80, deadline=None)
    @given(st.integers(-9, 9), st.integers(-9, 9), st.sampled_from([2, 4, 6, 8]))
    def test_sector_in_range(self, dr, dc, lt):
        if dr == 0 and dc == 0:
            return
        assert 1 <= direction_sector(dr, dc, 0.0, lt) <= lt


class TestElliptical:
    def test_zero_settings_identical_to_circular(self):
        a = build_mask(cfg(5, 2, 8, 2))
        b = build_mask(cfg(5, 2, 8, 2, alpha=0.0, eccentricity=0.0))
        assert np.array_equal(a.index_grid, b.index_grid)
        assert np.array_equal(a.counts, b.counts)
        assert np.array_equal(a.radii, b.radii)

    def test_alpha_shifts_sectors_one_bin(self):
        base = build_mask(cfg(5, 2, 8, 2))
        rot = build_mask(cfg(5, 2, 8, 2, alpha=math.pi / 4))
        lt = 8
        for i in range(5):
            for j in range(5):
                kb, kr = base.index_grid[i, j], rot.index_grid[i, j]
                if kb <= 0:
                    assert kr == kb
                    continue
                level_b, m_b = (kb - 1) // lt + 1, (kb - 1) % lt + 1
                level_r, m_r = (kr - 1) // lt + 1, (kr - 1) % lt + 1
                assert level_r == level_b
                assert m_r == m_b % lt + 1

    def test_high_eccentricity_squeezes_minor_axis(self):
        # the major axis lies along alpha = 0, i.e. the row direction of
        # the reference vector (0, 1): (0, R) stays, (R, 0) drops out
        mask = build_mask(cfg(5, 2, 8, 2, eccentricity=0.9))
        assert mask.index_grid[2, 4] > 0  # offset (0, R)
        assert mask.index_grid[4, 2] == 0  # offset (R, 0)
        assert squared_cell_distance(2, 0, 0.0, 0.9) > 4.0
        assert squared_cell_distance(0, 2, 0.0, 0.9) == 4.0


def cell_distance_and_sector(dr, dc, config):
    """The squared distance and the sector of one cell offset, with ``math`` alone."""
    x, y, alpha, ecc = float(dc), float(-dr), config.alpha, config.eccentricity
    if ecc > 0.0:
        u = x * math.cos(alpha) + y * math.sin(alpha)
        v = -x * math.sin(alpha) + y * math.cos(alpha)
        d = u * u + v * v / (1.0 - ecc * ecc)
    else:
        d = x * x + y * y
    t = (math.atan2(y, x) + alpha) % (2 * math.pi)
    sector = math.floor(t / (2 * math.pi / config.levels_theta) + 1e-9) % config.levels_theta + 1
    return d, sector


def mask_invariants(config):
    """Assert every structural mask invariant for one configuration."""
    mask = build_mask(config)
    size = config.kernel_size
    radius = config.radius
    rr = float(radius * radius)
    lr, lt = config.levels_r, config.levels_theta
    grid = mask.index_grid

    # exactly one center marker, at the grid center
    assert (grid == -1).sum() == 1
    assert grid[radius, radius] == -1

    # radii follow the geometric recurrence with the floor-then-cap rule
    r1 = max(2.0, rr / config.growth ** (lr - 1))
    for level in range(lr - 1):
        assert mask.radii[level] == r1 * config.growth**level
    assert mask.radii[-1] == max(rr, r1 * config.growth ** (lr - 1))

    # membership, level and sector, recomputed cell by cell
    outside = 0
    for i in range(size):
        for j in range(size):
            dr, dc = i - radius, j - radius
            if dr == 0 and dc == 0:
                continue
            d, expected_sector = cell_distance_and_sector(dr, dc, config)
            k = grid[i, j]
            if d > rr:
                assert k == 0
                outside += 1
            else:
                assert k >= 1
                level = (k - 1) // lt + 1
                sector = (k - 1) % lt + 1
                assert 1 <= sector <= lt
                expected_level = next(
                    l for l, t in enumerate(mask.radii, start=1) if d <= t
                )
                assert (level, sector) == (expected_level, expected_sector)

    # counts tally the grid exactly; populations partition the window
    tally = np.bincount(grid[grid > 0].ravel(), minlength=lr * lt + 1)[1:]
    assert np.array_equal(mask.counts.ravel(), tally)
    assert mask.counts.sum() + 1 + outside == size * size

    # shell level is non-decreasing along every integer ray from center
    for dr in range(-radius, radius + 1):
        for dc in range(-radius, radius + 1):
            if (dr, dc) == (0, 0) or math.gcd(abs(dr), abs(dc)) != 1:
                continue
            levels = []
            step = 1
            while abs(dr * step) <= radius and abs(dc * step) <= radius:
                k = grid[radius + dr * step, radius + dc * step]
                if k > 0:
                    levels.append((k - 1) // lt + 1)
                step += 1
            assert levels == sorted(levels)

    assert glorot_cells(config) == lr * lt + 1


def glorot_cells(config):
    """The cell count with which an lpsc layer of *config* draws its Glorot weights."""
    layer = LpscLayer.__new__(LpscLayer)  # init_params reads these three alone
    layer.config, layer.out_channels, layer.use_bias = config, 1, True
    with mock.patch.object(logpolar.network, "_init", wraps=logpolar.network._init) as init:
        layer.init_params((1, 1, 1), np.random.default_rng(0))
    (cells,) = {call.args[4] for call in init.call_args_list}
    return cells


SWEEP = [
    (2 * r + 1, lr, lt, g)
    for r in range(1, 10)
    for lr in (1, 2, 3, 4)
    for lt in (2, 4, 6, 8)
    for g in (1.5, 2.0, 3.0)
]


@pytest.mark.parametrize("size,lr,lt,g", SWEEP)
def test_mask_invariant_sweep(size, lr, lt, g):
    mask_invariants(cfg(size, lr, lt, g))


# rotated circles and ellipses, whose sectors the sweep above never turns
OFF_CIRCLE_SWEEP = [
    (size, lr, lt, g, alpha, ecc)
    for size in range(11, 22, 2)
    for lr in (1, 3)
    for lt in (4, 6, 8)
    for g in (2.0, 3.0)
    for alpha, ecc in ((0.7, 0.0), (0.4, 0.6), (1.1, 0.8), (-2.3, 0.3))
]


@pytest.mark.parametrize("size,lr,lt,g,alpha,ecc", OFF_CIRCLE_SWEEP)
def test_mask_invariant_sweep_off_circle(size, lr, lt, g, alpha, ecc):
    mask_invariants(cfg(size, lr, lt, g, alpha=alpha, eccentricity=ecc))


@pytest.mark.parametrize(
    "size,lr,lt,g,alpha,ecc", [(*row, 0.0, 0.0) for row in SWEEP] + OFF_CIRCLE_SWEEP
)
def test_slot_plan_is_each_regions_cells_in_row_major_order(size, lr, lt, g, alpha, ecc):
    # the fast path's plan against one argwhere per region, with the center
    # cell last when center_conv is set; the taps are Python ints
    config = cfg(size, lr, lt, g, alpha=alpha, eccentricity=ecc)
    grid = build_mask(config).index_grid
    want = [list(map(tuple, np.argwhere(grid == k).tolist())) for k in range(1, lr * lt + 1)]
    plan = logpolar.lpsc._plan(config)
    assert plan == want + [[(config.radius, config.radius)]]
    assert all(type(v) is int for taps in plan for tap in taps for v in tap)
    free = cfg(size, lr, lt, g, alpha=alpha, eccentricity=ecc, center_conv=False)
    assert logpolar.lpsc._plan(free) == want


class TestRendering:
    def test_text_grid(self):
        text = mask_to_text(build_mask(cfg(5, 2, 8, 2)))
        lines = text.splitlines()
        assert len(lines) == 5
        cells = lines[2].split()
        assert cells[2] == "C"
        assert cells[0] == "13"
        assert lines[0].split()[0] == "."

    def test_pgm_raster(self):
        mask = build_mask(cfg(5, 2, 8, 2))
        blob = mask_to_pgm(mask)
        assert blob.startswith(b"P5\n5 5\n255\n")
        pixels = np.frombuffer(blob[len(b"P5\n5 5\n255\n") :], dtype=np.uint8).reshape(5, 5)
        assert pixels[2, 2] == 255  # center
        assert pixels[0, 0] == 0  # outside
        assert pixels[2, 3] == round(255 * 1 / 17)  # region 1 of 16


class TestCaching:
    def test_masks_are_shared_and_frozen(self):
        a = build_mask(cfg(5, 2, 8, 2))
        b = build_mask(cfg(5, 2, 8, 2))
        assert a is b
        with pytest.raises(ValueError):
            a.index_grid[0, 0] = 7
