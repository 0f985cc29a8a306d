"""Cost accounting, receptive-field estimation, kernel visualization."""

import numpy as np
import pytest

from logpolar.analysis import (
    count_costs,
    estimate_rf,
    kernel_to_pgm,
    nearest_region_grid,
    rf_to_pgm,
    visualize_kernel,
)
from logpolar.geometry import LpscConfig, build_mask, squared_cell_distance
from logpolar.lpsc import LpscWeights, log_polar_pool
from logpolar.network import LayerSpec, NetSpec, build_network
from logpolar.raster import to_gray

RNG = np.random.default_rng(31)


def lpsc_spec(size, lr, lt, g, hw=16, cin=1, cout=1, bias=False, **extra):
    options = {
        "out_channels": cout,
        "size": size,
        "levels_r": lr,
        "levels_theta": lt,
        "growth": g,
        "padding": (size - 1) // 2,
        "bias": bias,
    }
    options.update(extra)
    return NetSpec(
        layers=[LayerSpec("lpsc", options)],
        input_shape=(hw, hw, cin),
        num_classes=2,
    )


def conv_stack_spec(n_layers, hw=12, channels=2, kernel=3, bias=False):
    layers = [
        LayerSpec(
            "conv",
            {"out_channels": channels, "kernel_size": kernel, "padding": kernel // 2, "bias": bias},
        )
        for _ in range(n_layers)
    ]
    return NetSpec(layers=layers, input_shape=(hw, hw, 1), num_classes=2)


class TestCounting:
    def test_one_by_one_conv_multiplies(self):
        spec = NetSpec(
            layers=[LayerSpec("conv", {"out_channels": 5, "kernel_size": 1, "bias": False})],
            input_shape=(7, 9, 3),
            num_classes=2,
        )
        report = count_costs(spec)
        assert report.layers[0].mults == 7 * 9 * 3 * 5

    @pytest.mark.parametrize("lr,lt,want", [(3, 8, 25), (2, 6, 13)])
    def test_lpsc_params_per_channel_pair(self, lr, lt, want):
        report = count_costs(lpsc_spec(11, lr, lt, 2))
        assert report.layers[0].params == want

    def test_conventional_11x11_params(self):
        spec = NetSpec(
            layers=[LayerSpec("conv", {"out_channels": 1, "kernel_size": 11, "padding": 5, "bias": False})],
            input_shape=(16, 16, 1),
            num_classes=2,
        )
        assert count_costs(spec).layers[0].params == 121

    def test_lpsc_conv_term_formula(self):
        # conv + center multiplies = H'W'(Lr*Lt*C*C' + C*C') exactly
        report = count_costs(lpsc_spec(11, 3, 8, 2, hw=16, cin=3, cout=4))
        row = report.layers[0]
        assert row.detail["conv_mults"] + row.detail["center_mults"] == 16 * 16 * (
            3 * 8 * 3 * 4 + 3 * 4
        )

    def test_conv_term_invariant_in_kernel_size(self):
        # same-padding keeps H'W' fixed, so the block-convolution term
        # ignores the kernel radius entirely
        r_small = count_costs(lpsc_spec(7, 2, 8, 2)).layers[0]
        r_large = count_costs(lpsc_spec(13, 2, 8, 2)).layers[0]
        assert r_small.detail["conv_mults"] == r_large.detail["conv_mults"]
        assert r_small.detail["center_mults"] == r_large.detail["center_mults"]
        # pooling additions do grow with the footprint
        assert r_small.detail["pool_adds"] < r_large.detail["pool_adds"]

    def test_conv_term_linear_in_region_count(self):
        base = count_costs(lpsc_spec(11, 2, 6, 2)).layers[0]
        double = count_costs(lpsc_spec(11, 2, 12, 2)).layers[0]
        assert double.detail["conv_mults"] == 2 * base.detail["conv_mults"]

    def test_pooled_map_cells(self):
        # 12 region slots plus the center slot, C_in = 3 cells each
        for center, slots in ((True, 13), (False, 12)):
            spec = lpsc_spec(5, 2, 6, 2, hw=8, cin=3, center_conv=center)
            cells = count_costs(spec).layers[0].pooled_cells
            assert cells == 8 * 8 * slots * 3
            # the count is the size of the tensor the fast path pools into
            config = build_network(spec, require_logits=False).layers[0].config
            assert log_polar_pool(np.zeros((1, 8, 8, 3)), config).size == cells

    def test_totals_sum_rows(self):
        spec = NetSpec(
            layers=[
                LayerSpec("conv", {"out_channels": 2, "kernel_size": 3, "padding": 1}),
                LayerSpec("relu"),
                LayerSpec("meanpool", {"size": 2}),
                LayerSpec("flatten"),
                LayerSpec("dense", {"units": 2}),
            ],
            input_shape=(8, 8, 1),
            num_classes=2,
        )
        report = count_costs(spec)
        assert report.total_mults == sum(r.mults for r in report.layers)
        assert report.layers[1].mults == 0  # relu is free
        csv = report.to_csv()
        assert csv.splitlines()[0] == "layer,kind,output,params,mults,adds,pooled_cells"
        assert len(csv.splitlines()) == 7

    def test_text_and_csv_hold_the_same_cells(self):
        report = count_costs(lpsc_spec(7, 2, 6, 2, cin=2, cout=3, bias=True))
        text, csv = report.to_text().splitlines(), report.to_csv().splitlines()
        assert text[0].split() == ["layer", "kind", "output", "params", "mults", "adds", "pooled"]
        assert len(text) == len(csv) == len(report.layers) + 2
        for text_row, csv_row in zip(text[1:], csv[1:]):
            assert text_row.split() == [cell for cell in csv_row.split(",") if cell]
        assert csv[-1].startswith("total,,,")

    @pytest.mark.parametrize(
        "kind, options",
        [
            ("conv", {"kernel_size": 3, "padding": 1}),
            ("dilated", {"kernel_size": 3, "dilation": 2, "padding": 2}),
            ("square_share", {"kernel_size": 4, "pool_size": 2}),
            ("lpsc", {"size": 5, "levels_r": 2, "levels_theta": 6, "growth": 2, "padding": 2}),
        ],
    )
    def test_bias_adds_one_per_output_element(self, kind, options):
        def row(bias):
            layer = LayerSpec(kind, {"out_channels": 3, "bias": bias, **options})
            head = [LayerSpec("flatten"), LayerSpec("dense", {"units": 2, "bias": bias})]
            spec = NetSpec(layers=[layer, *head], input_shape=(8, 8, 2), num_classes=2)
            return count_costs(spec).layers

        with_bias, without = row(True), row(False)
        for biased, plain in zip(with_bias, without):
            assert biased.mults == plain.mults
            has_bias = biased.kind != "flatten"
            assert biased.adds - plain.adds == has_bias * int(np.prod(biased.output_shape))
        if kind != "lpsc":  # one multiply and one add per tap
            assert without[0].adds == without[0].mults

    # the benchmark's three networks, written out: their conv.mults, lpsc.mults and
    # lpsc.pooled_bytes are these counts, per sample and per layer
    @pytest.mark.parametrize(
        "layers, input_shape, want",
        [
            ([LayerSpec("lpsc", {"out_channels": 8, "size": 5, "levels_r": 2, "levels_theta": 6,
                                 "growth": 2, "padding": 2}),
              LayerSpec("relu"), LayerSpec("maxpool", {"size": 2}), LayerSpec("flatten"),
              LayerSpec("dense", {"units": 2})],
             (16, 16, 1), {0: (29696, 3328)}),
            ([LayerSpec("lpsc", {"out_channels": 8, "size": 21, "levels_r": 4, "levels_theta": 8,
                                 "growth": 2, "padding": 10}),
              LayerSpec("relu"), LayerSpec("meanpool", {"size": 2}), LayerSpec("flatten"),
              LayerSpec("dense", {"units": 4})],
             (32, 32, 8), {0: (2424832, 270336)}),
            ([LayerSpec("conv", {"out_channels": 16, "kernel_size": 3, "padding": 1}),
              LayerSpec("relu"),
              LayerSpec("dilated", {"out_channels": 16, "kernel_size": 3, "dilation": 2,
                                    "padding": 2}),
              LayerSpec("relu"),
              LayerSpec("square_share", {"out_channels": 16, "kernel_size": 4, "pool_size": 2,
                                         "padding": 2}),
              LayerSpec("relu"), LayerSpec("maxpool", {"size": 2}), LayerSpec("flatten"),
              LayerSpec("dense", {"units": 10})],
             (32, 32, 16), {0: (2359296, 0), 2: (2359296, 0), 4: (4460544, 0)}),
        ],
        ids=["edges", "wide-kernel", "baselines"],
    )
    def test_benchmark_network_counts(self, layers, input_shape, want):
        spec = NetSpec(layers=layers, input_shape=input_shape, num_classes=2)
        rows = count_costs(spec).layers
        assert {i: (rows[i].mults, rows[i].pooled_cells) for i in want} == want


class TestReceptiveField:
    def test_single_conv_footprint(self):
        net = build_network(conv_stack_spec(1), require_logits=False)
        report = estimate_rf(net)
        assert report.bbox == (3, 3)

    def test_two_stacked_convs(self):
        net = build_network(conv_stack_spec(2), require_logits=False)
        report = estimate_rf(net)
        assert report.bbox == (5, 5)

    def test_three_stacked_convs(self):
        net = build_network(conv_stack_spec(3), require_logits=False)
        report = estimate_rf(net)
        assert report.bbox == (7, 7)

    def test_lpsc_support_equals_mask_footprint(self):
        config = LpscConfig(kernel_size=11, levels_r=3, levels_theta=8, growth=2, padding=(5, 5))
        spec = lpsc_spec(11, 3, 8, 2, hw=32)
        net = build_network(spec, seed=4, require_logits=False)
        report = estimate_rf(net, output_location=(16, 16))
        mask = build_mask(config)
        want = np.zeros((32, 32), dtype=bool)
        want[16 - 5 : 16 + 6, 16 - 5 : 16 + 6] = mask.index_grid != 0
        assert np.array_equal(report.support, want)
        assert report.bbox == (11, 11)
        # strictly wider than a 3x3 footprint
        assert int(report.support.sum()) > 9

    def test_location_out_of_range(self):
        net = build_network(conv_stack_spec(1), require_logits=False)
        with pytest.raises(ValueError, match="location"):
            estimate_rf(net, output_location=(40, 0))

    def test_pgm_renders_normalized(self):
        net = build_network(conv_stack_spec(1), require_logits=False)
        report = estimate_rf(net)
        blob = rf_to_pgm(report)
        assert blob.startswith(b"P5\n12 12\n255\n")
        assert max(blob[len(b"P5\n12 12\n255\n") :]) == 255


class TestVisualization:
    def make_weights(self, config, value=None):
        lr, lt = config.levels_r, config.levels_theta
        if value is not None:
            regions = np.full((lr, lt, 1, 1), value)
            center = np.full((1, 1), value)
        else:
            regions = RNG.normal(size=(lr, lt, 1, 1))
            center = RNG.normal(size=(1, 1))
        return LpscWeights(center=center, regions=regions)

    def test_constant_weights_constant_image(self):
        config = LpscConfig(kernel_size=5, levels_r=2, levels_theta=8, growth=2)
        img = visualize_kernel(self.make_weights(config, value=2.5), config, fill_corners=True)
        assert img.shape == (1, 1, 5, 5)
        assert np.all(img == 2.5)

    def test_weights_of_another_grid_rejected(self):
        weights = self.make_weights(LpscConfig(kernel_size=5, levels_r=2, levels_theta=6, growth=2))
        config = LpscConfig(kernel_size=5, levels_r=2, levels_theta=8, growth=2)
        with pytest.raises(ValueError, match=r"weights cover \(2, 6\) regions, config wants \(2, 8\)"):
            visualize_kernel(weights, config)

    def test_unfilled_corners_are_sentinel(self):
        config = LpscConfig(kernel_size=5, levels_r=2, levels_theta=8, growth=2)
        img = visualize_kernel(self.make_weights(config), config, fill_corners=False)[0, 0]
        assert np.isnan(img[0, 0])
        assert np.isnan(img[0, 1])  # squared distance 5 is outside
        assert not np.isnan(img[2, 2])

    def test_corner_fill_matches_bruteforce_nearest(self):
        # a circular mask, then an elliptical rotated one: the fill uses the mask's metric
        for config in (LpscConfig(kernel_size=11, levels_r=3, levels_theta=8, growth=2),
                       LpscConfig(kernel_size=21, levels_r=3, levels_theta=6, growth=2,
                                  alpha=0.4, eccentricity=0.6)):
            mask = build_mask(config)
            filled = nearest_region_grid(mask)
            size = config.kernel_size
            inside = [(a, b) for a in range(size) for b in range(size) if mask.index_grid[a, b] > 0]
            for i in range(size):
                for j in range(size):
                    if mask.index_grid[i, j] != 0:
                        assert filled[i, j] == mask.index_grid[i, j]
                        continue
                    dists = [
                        (squared_cell_distance(i - a, j - b, mask.alpha, mask.eccentricity), pos)
                        for pos, (a, b) in enumerate(inside)
                    ]
                    best = min(dists)[1]  # the first in row-major order of the nearest
                    a, b = inside[best]
                    assert filled[i, j] == mask.index_grid[a, b]

    def test_corner_fill_of_a_mask_with_no_in_field_cell(self):
        # at k3 this ellipse reaches past R^2 = 1 at every neighbor: nothing to copy from
        mask = build_mask(LpscConfig(3, 1, 4, 2, alpha=np.pi / 4, eccentricity=0.5))
        assert np.array_equal(nearest_region_grid(mask), mask.index_grid)
        assert (mask.index_grid == 0).sum() == 8

    def test_far_corner_takes_outermost_shell_of_its_sector(self):
        config = LpscConfig(kernel_size=11, levels_r=3, levels_theta=8, growth=2)
        mask = build_mask(config)
        filled = nearest_region_grid(mask)
        k = filled[10, 10]  # offset (R, R), direction sector 8
        level = (k - 1) // 8 + 1
        sector = (k - 1) % 8 + 1
        assert level == 3
        assert sector == 8

    def test_pgm_sentinel_distinct(self):
        config = LpscConfig(kernel_size=5, levels_r=2, levels_theta=8, growth=2)
        img = visualize_kernel(self.make_weights(config, value=1.0), config, fill_corners=False)
        blob = kernel_to_pgm(img[0, 0])
        pixels = np.frombuffer(blob.split(b"\n", 3)[3], dtype=np.uint8).reshape(5, 5)
        assert pixels[0, 0] == 0  # sentinel renders black
        assert pixels[2, 2] == 255  # constant weights render at full white

    def test_gray_scale_starts_at_32(self):
        gray = to_gray(np.array([[0.0, 1.0], [np.nan, 0.5]]))
        assert gray.tolist() == [[32, 255], [0, 144]]
        assert to_gray(np.full((2, 2), 7.0)).tolist() == [[255, 255], [255, 255]]
        assert not to_gray(np.full(3, np.nan)).any()

