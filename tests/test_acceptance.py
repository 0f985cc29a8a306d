"""Acceptance criteria. One test per criterion, each at its stated
tolerance, printing one ACCEPTANCE line per criterion (visible with -v/-s
or in captured output)."""

import time
import warnings
from contextlib import contextmanager

import numpy as np

from logpolar import conv2d_raw, conv2d_raw_backward, load_tensor, save_tensor
from logpolar import ops
from logpolar.analysis import count_costs, estimate_rf
from logpolar.baselines import (
    DilatedConfig,
    SquareShareConfig,
    dilated_conv2d,
    dilated_conv2d_backward,
    square_share_conv2d,
    square_share_conv2d_backward,
)
from logpolar.checks import equivalence_sweep, sum_mean_identity_sweep
from logpolar.data import load_idx, make_oriented_edges, save_idx
from logpolar.geometry import DegenerateGeometryWarning, LpscConfig, build_mask, region_radii
from logpolar.lpsc import (
    LpscWeights,
    load_lpsc_weights,
    lpsc_backward,
    lpsc_forward_fast,
    save_lpsc_weights,
)
from logpolar.network import LayerSpec, NetSpec, TrainConfig, build_network, evaluate, train

from oracles import finite_difference, max_rel_error
from test_geometry import SWEEP, cfg, mask_invariants


@contextmanager
def criterion(number, description):
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {number}: FAIL - {description}")
        raise
    print(f"ACCEPTANCE {number}: PASS - {description}")


def test_criterion_1_path_equivalence():
    with criterion(1, "fast path matches reference path at 1e-10 over the full sweep"):
        start = time.perf_counter()
        results = equivalence_sweep(seed=2024, full=True)
        elapsed = time.perf_counter() - start
        worst = max(r.value for r in results)
        assert len(results) == 432
        assert all(r.passed for r in results), "a check failed (a NaN error fails)"
        assert worst <= 1e-10, f"worst relative error {worst:.3e}"
        assert elapsed <= 60.0, f"sweep took {elapsed:.1f}s"
        print(f"  432 configs x 10 inputs, worst rel err {worst:.2e} in {elapsed:.1f}s")


def test_criterion_2_gradient_suite():
    with criterion(2, "every backward matches central finite differences at 1e-4"):
        start = time.perf_counter()
        rng = np.random.default_rng(77)
        failures = []

        def check(name, got, want):
            err = max_rel_error(got, want)
            if not err <= 1e-4:  # a NaN error fails too
                failures.append(f"{name}: {err:.3e}")

        # conventional convolution
        x = rng.normal(size=(1, 8, 8, 3))
        k, b = rng.normal(size=(3, 3, 3, 2)), rng.normal(size=2)
        p = rng.normal(size=conv2d_raw(x, k, padding=(1, 1), bias=b).shape)
        gx, gk, _ = conv2d_raw_backward(x, k, p, padding=(1, 1))
        check("conv input", gx, finite_difference(
            lambda v: float(np.sum(conv2d_raw(v, k, padding=(1, 1), bias=b) * p)), x))
        check("conv kernel", gk, finite_difference(
            lambda v: float(np.sum(conv2d_raw(x, v, padding=(1, 1), bias=b) * p)), k))

        # log-polar operator, all pooling modes
        for mode in ("mean", "sum", "max"):
            c = LpscConfig(kernel_size=5, levels_r=2, levels_theta=6, growth=2,
                           padding=2, pooling_mode=mode)
            xl = rng.uniform(0.1, 1.0, size=(1, 8, 8, 3))
            w = LpscWeights(center=rng.normal(size=(3, 2)),
                            regions=rng.normal(size=(2, 6, 3, 2)),
                            bias=rng.normal(size=2))
            pl = rng.normal(size=lpsc_forward_fast(xl, c, w).shape)
            gxl, gwl = lpsc_backward(xl, c, w, pl)
            check(f"lpsc-{mode} input", gxl, finite_difference(
                lambda v: float(np.sum(lpsc_forward_fast(v, c, w) * pl)), xl))
            check(f"lpsc-{mode} regions", gwl.regions, finite_difference(
                lambda v: float(np.sum(lpsc_forward_fast(
                    xl, c, LpscWeights(w.center, v, w.bias)) * pl)), w.regions))
            check(f"lpsc-{mode} center", gwl.center, finite_difference(
                lambda v: float(np.sum(lpsc_forward_fast(
                    xl, c, LpscWeights(v, w.regions, w.bias)) * pl)), w.center))

        # dilated convolution
        dc = DilatedConfig(kernel_size=3, dilation=2, padding=(2, 2))
        kd, bdi = rng.normal(size=(3, 3, 3, 2)), rng.normal(size=2)
        pd = rng.normal(size=dilated_conv2d(x, kd, dc, bias=bdi).shape)
        gxd, gkd, _ = dilated_conv2d_backward(x, kd, dc, pd)
        check("dilated input", gxd, finite_difference(
            lambda v: float(np.sum(dilated_conv2d(v, kd, dc, bias=bdi) * pd)), x))
        check("dilated kernel", gkd, finite_difference(
            lambda v: float(np.sum(dilated_conv2d(x, v, dc, bias=bdi) * pd)), kd))

        # square-shared convolution
        sc = SquareShareConfig(kernel_size=6, pool_size=3, padding=(3, 3))
        ws = rng.normal(size=(2, 2, 3, 2))
        ps = rng.normal(size=square_share_conv2d(x, ws, sc).shape)
        gxs, gws, _ = square_share_conv2d_backward(x, ws, sc, ps)
        check("square-share input", gxs, finite_difference(
            lambda v: float(np.sum(square_share_conv2d(v, ws, sc) * ps)), x))
        check("square-share regions", gws, finite_difference(
            lambda v: float(np.sum(square_share_conv2d(x, v, sc) * ps)), ws))

        # dense
        xd = rng.normal(size=(5, 7))
        wd = rng.normal(size=(7, 4))
        bd = rng.normal(size=4)
        pdn = rng.normal(size=(5, 4))
        gxn, gwn, gbn = ops.dense_backward(xd, wd, pdn)
        check("dense input", gxn, finite_difference(
            lambda v: float(np.sum(ops.dense(v, wd, bd) * pdn)), xd))
        check("dense weights", gwn, finite_difference(
            lambda v: float(np.sum(ops.dense(xd, v, bd) * pdn)), wd))
        check("dense bias", gbn, finite_difference(
            lambda v: float(np.sum(ops.dense(xd, wd, v) * pdn)), bd))

        # pools
        xp = rng.normal(size=(1, 8, 8, 3))
        pp = rng.normal(size=(1, 4, 4, 3))
        check("maxpool", ops.max_pool_backward(xp, pp, 2), finite_difference(
            lambda v: float(np.sum(ops.max_pool(v, 2) * pp)), xp))
        check("meanpool", ops.mean_pool_backward(xp, pp, 2), finite_difference(
            lambda v: float(np.sum(ops.mean_pool(v, 2) * pp)), xp))

        # activations and loss
        xr = rng.uniform(0.1, 1.0, size=(6, 6, 2)) * rng.choice([-1.0, 1.0], size=(6, 6, 2))
        pr = rng.normal(size=xr.shape)
        check("relu", ops.relu_backward(xr, pr), finite_difference(
            lambda v: float(np.sum(ops.relu(v) * pr)), xr))
        logits = rng.normal(size=(4, 3))
        labels = np.array([0, 2, 1, 1])
        check("softmax-xent", ops.softmax_cross_entropy_backward(logits, labels),
              finite_difference(lambda v: ops.softmax_cross_entropy(v, labels), logits))

        elapsed = time.perf_counter() - start
        assert not failures, f"gradient checks failed: {failures}"
        assert elapsed <= 120.0, f"gradient suite took {elapsed:.1f}s"
        print(f"  all layer adjoints within 1e-4 of finite differences in {elapsed:.1f}s")


def test_criterion_3_geometry_suite():
    with criterion(3, "mask invariants hold across the sweep; pinned examples match"):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", DegenerateGeometryWarning)
            for size, lr, lt, g in SWEEP:
                mask_invariants(cfg(size, lr, lt, g))
        m5 = build_mask(cfg(5, 2, 8, 2))
        assert np.array_equal(m5.radii, [2.0, 4.0])
        assert int((m5.index_grid > 0).sum()) == 12
        for dr in (-1, 0, 1):
            for dc in (-1, 0, 1):
                if (dr, dc) == (0, 0):
                    continue
                k = int(m5.index_grid[2 + dr, 2 + dc])
                assert 1 <= k <= 8, "8-neighborhood must sit in shell 1"
        assert np.array_equal(region_radii(cfg(11, 3, 8, 2)), [6.25, 12.5, 25.0])
        print(f"  {len(SWEEP)} configurations checked; size-5 and size-11 examples exact")


def test_criterion_4_parameter_counting():
    with criterion(4, "parameter counts are exact: 25 and 13 per pair (24 without the center), "
                      "121 conventional"):
        def lpsc_params(lr, lt, center_conv=True):
            spec = NetSpec(
                layers=[LayerSpec("lpsc", {"out_channels": 1, "size": 11, "levels_r": lr,
                                           "levels_theta": lt, "growth": 2, "padding": 5,
                                           "center_conv": center_conv, "bias": False})],
                input_shape=(16, 16, 1), num_classes=2)
            return count_costs(spec).layers[0].params

        assert lpsc_params(3, 8) == 25
        assert lpsc_params(3, 8, center_conv=False) == 24
        assert lpsc_params(2, 6) == 13
        conv_spec = NetSpec(
            layers=[LayerSpec("conv", {"out_channels": 1, "kernel_size": 11, "padding": 5,
                                       "bias": False})],
            input_shape=(16, 16, 1), num_classes=2)
        assert count_costs(conv_spec).layers[0].params == 121
        print("  25 (24 without the center) / 13 / 121 parameters, exactly")


def test_criterion_5_receptive_fields():
    with criterion(5, "gradient-support receptive fields match kernel footprints"):
        def conv_stack(n):
            return build_network(
                NetSpec(
                    layers=[LayerSpec("conv", {"out_channels": 2, "kernel_size": 3,
                                               "padding": 1, "bias": False})] * n,
                    input_shape=(16, 16, 1), num_classes=2),
                seed=3, require_logits=False)

        assert estimate_rf(conv_stack(1)).bbox == (3, 3)
        assert estimate_rf(conv_stack(2)).bbox == (5, 5)

        lpsc_net = build_network(
            NetSpec(
                layers=[LayerSpec("lpsc", {"out_channels": 1, "size": 11, "levels_r": 3,
                                           "levels_theta": 8, "growth": 2, "padding": 5,
                                           "bias": False})],
                input_shape=(32, 32, 1), num_classes=2),
            seed=5, require_logits=False)
        report = estimate_rf(lpsc_net, output_location=(16, 16))
        mask = build_mask(cfg(11, 3, 8, 2))
        want = np.zeros((32, 32), dtype=bool)
        want[11:22, 11:22] = mask.index_grid != 0
        assert np.array_equal(report.support, want)
        assert report.bbox == (11, 11)
        assert int(report.support.sum()) > 9
        print("  conv 3x3 / stacked 5x5 / log-polar footprint all exact")


def test_criterion_6_sum_mean_identity():
    with criterion(6, "sum-mode(w) equals mean-mode(w*N) at 1e-12 over the full sweep"):
        results = sum_mean_identity_sweep(seed=11, full=True)
        worst = max(r.value for r in results)
        assert len(results) == 216
        assert all(r.passed for r in results), "a check failed (a NaN error fails)"
        assert worst <= 1e-12, f"worst relative error {worst:.3e}"
        print(f"  216 configurations, worst rel err {worst:.2e}")


def _edges_net_spec(kind):
    if kind == "lpsc":
        first = LayerSpec("lpsc", {"out_channels": 8, "size": 5, "levels_r": 2,
                                   "levels_theta": 6, "growth": 2, "padding": 2})
    else:
        first = LayerSpec("conv", {"out_channels": 8, "kernel_size": 3, "padding": 1})
    return NetSpec(
        layers=[first, LayerSpec("relu"), LayerSpec("maxpool", {"size": 2}),
                LayerSpec("flatten"), LayerSpec("dense", {"units": 2})],
        input_shape=(16, 16, 1), num_classes=2)


def test_criterion_7_training_smoke():
    with criterion(7, "oriented-edges task: log-polar net >= 90% train accuracy, deterministic"):
        start = time.perf_counter()
        dataset = make_oriented_edges(64, size=16, seed=1)
        train_cfg = TrainConfig(learning_rate=0.05, momentum=0.9, weight_decay=0.0005,
                                batch_size=16, epochs=200, seed=1)

        net = build_network(_edges_net_spec("lpsc"), seed=train_cfg.seed)
        history = train(net, dataset, train_cfg)
        _, acc = evaluate(net, dataset)
        assert acc >= 0.90, f"train accuracy {acc:.3f}"

        # determinism: an identical run reproduces the history bit for bit
        net2 = build_network(_edges_net_spec("lpsc"), seed=train_cfg.seed)
        history2 = train(net2, dataset, train_cfg)
        assert history == history2

        # conventional 3x3 baseline of equal width, recorded for comparison
        conv_net = build_network(_edges_net_spec("conv"), seed=train_cfg.seed)
        conv_history = train(conv_net, dataset, train_cfg)
        _, conv_acc = evaluate(conv_net, dataset)

        elapsed = time.perf_counter() - start
        assert elapsed <= 300.0, f"training smoke took {elapsed:.1f}s"
        for label, hist in (("lpsc", history), ("conv3x3", conv_history)):
            marks = " ".join(f"e{e}:{hist[e - 1][2]:.3f}" for e in (50, 100, 200))
            print(f"  {label} history {marks}")
        print(f"  lpsc train acc {acc:.3f}, conv baseline {conv_acc:.3f}, {elapsed:.1f}s")


def test_criterion_8_cost_scaling():
    with criterion(8, "multiply counts scale linearly in regions and ignore the radius"):
        def lpsc_cost(size, lr, lt):
            spec = NetSpec(
                layers=[LayerSpec("lpsc", {"out_channels": 4, "size": size, "levels_r": lr,
                                           "levels_theta": lt, "growth": 2,
                                           "padding": (size - 1) // 2, "bias": False})],
                input_shape=(16, 16, 3), num_classes=2)
            return count_costs(spec).layers[0]

        base = lpsc_cost(11, 2, 6)
        doubled = lpsc_cost(11, 2, 12)
        assert doubled.detail["conv_mults"] == 2 * base.detail["conv_mults"]
        assert doubled.detail["pool_mults"] == 2 * base.detail["pool_mults"]

        small_r = lpsc_cost(7, 2, 6)
        large_r = lpsc_cost(13, 2, 6)
        assert small_r.detail["conv_mults"] == large_r.detail["conv_mults"]
        assert small_r.detail["center_mults"] == large_r.detail["center_mults"]

        # exact formula: H'W'(Lr*Lt*C*C' + C*C') multiplies for conv + center
        row = lpsc_cost(11, 3, 8)
        assert row.detail["conv_mults"] + row.detail["center_mults"] == 16 * 16 * (
            3 * 8 * 3 * 4 + 3 * 4)
        # pooling additions stay proportional to the in-field cell count
        assert row.detail["pool_adds"] == 16 * 16 * row.detail["in_field_cells"] * 3
        assert row.detail["in_field_cells"] <= 11 * 11
        print("  region-count doubling doubles the conv term; radius leaves it unchanged")


def test_criterion_9_file_roundtrips(tmp_path):
    with criterion(9, "tensor, weight, and IDX files round-trip bitwise"):
        rng = np.random.default_rng(13)

        arr = rng.normal(size=(3, 4, 2))
        t1 = tmp_path / "a.tnsr"
        t2 = tmp_path / "b.tnsr"
        save_tensor(t1, arr)
        save_tensor(t2, load_tensor(t1))
        assert t1.read_bytes() == t2.read_bytes()
        assert np.array_equal(load_tensor(t2), arr)

        w = LpscWeights(center=rng.normal(size=(2, 3)),
                        regions=rng.normal(size=(2, 6, 2, 3)),
                        bias=rng.normal(size=3))
        w1 = tmp_path / "a.lpscw"
        w2 = tmp_path / "b.lpscw"
        save_lpsc_weights(w1, w)
        save_lpsc_weights(w2, load_lpsc_weights(w1))
        assert w1.read_bytes() == w2.read_bytes()

        ds = make_oriented_edges(4, size=16, seed=9)
        i1, l1 = tmp_path / "a.idx", tmp_path / "al.idx"
        i2, l2 = tmp_path / "b.idx", tmp_path / "bl.idx"
        save_idx(ds, i1, l1)
        save_idx(load_idx(i1, l1), i2, l2)
        assert i1.read_bytes() == i2.read_bytes()
        assert l1.read_bytes() == l2.read_bytes()
        print("  TNSR, LPSCW, and IDX files round-trip byte-exactly")
