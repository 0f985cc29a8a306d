"""Network building, SGD semantics, training loop, spec files, checkpoints."""

import math

import numpy as np
import pytest

import logpolar.lpsc
import logpolar.network
from logpolar import ops
from logpolar.data import Dataset
from logpolar.lpsc import lpsc_backward, lpsc_forward_fast
from logpolar.network import (
    LayerSpec,
    NetSpec,
    TrainConfig,
    build_network,
    evaluate,
    load_checkpoint,
    parse_net_file,
    save_checkpoint,
    sgd_update,
    train,
)

from oracles import finite_difference, max_rel_error

RNG = np.random.default_rng(2024)


def dense_only_spec(h=4, w=4, c=1, classes=2):
    return NetSpec(
        layers=[LayerSpec("flatten"), LayerSpec("dense", {"units": classes})],
        input_shape=(h, w, c),
        num_classes=classes,
    )


def small_conv_spec():
    return NetSpec(
        layers=[
            LayerSpec("conv", {"out_channels": 2, "kernel_size": 3, "padding": 1}),
            LayerSpec("meanpool", {"size": 2}),
            LayerSpec("flatten"),
            LayerSpec("dense", {"units": 2}),
        ],
        input_shape=(6, 6, 1),
        num_classes=2,
    )


def random_dataset(n=8, h=4, w=4, c=1, classes=2, seed=3):
    rng = np.random.default_rng(seed)
    return Dataset(
        images=rng.uniform(0, 1, size=(n, h, w, c)),
        labels=rng.integers(0, classes, size=n),
        num_classes=classes,
    )


class TestBuild:
    def test_dense_only_builds_and_trains(self):
        net = build_network(dense_only_spec(), seed=1)
        ds = random_dataset()
        history = train(net, ds, TrainConfig(learning_rate=0.1, epochs=3, batch_size=4))
        assert len(history) == 3

    def test_lpsc_weight_count_per_pair(self):
        spec = NetSpec(
            layers=[
                LayerSpec(
                    "lpsc",
                    {
                        "out_channels": 3,
                        "size": 5,
                        "levels_r": 2,
                        "levels_theta": 6,
                        "growth": 3,
                        "padding": 2,
                    },
                ),
                LayerSpec("flatten"),
                LayerSpec("dense", {"units": 2}),
            ],
            input_shape=(8, 8, 2),
            num_classes=2,
        )
        net = build_network(spec, seed=0)
        lpsc = net.layers[0]
        assert lpsc.config.weights_per_pair == 13
        weight_count = lpsc.weights.center.size + lpsc.weights.regions.size
        assert weight_count == 13 * 2 * 3

    @pytest.mark.parametrize("shape", [(16, 16, 0), (0, 4, 1), (4, -1, 1)])
    def test_input_dim_below_one_rejected(self, shape):
        with pytest.raises(ValueError, match=r"input_shape must be \(H, W, C\), each >= 1"):
            NetSpec(layers=[LayerSpec("flatten")], input_shape=shape, num_classes=2)

    def test_dense_without_flatten_is_an_error(self):
        spec = NetSpec(
            layers=[LayerSpec("dense", {"units": 2})],
            input_shape=(4, 4, 1),
            num_classes=2,
        )
        with pytest.raises(ValueError, match=r"layer\.1 \(dense\)"):
            build_network(spec)

    def test_wrong_logit_count_is_an_error(self):
        spec = NetSpec(
            layers=[LayerSpec("flatten"), LayerSpec("dense", {"units": 5})],
            input_shape=(4, 4, 1),
            num_classes=2,
        )
        with pytest.raises(ValueError, match="class logits"):
            build_network(spec)

    def test_kernel_too_large_names_layer(self):
        spec = NetSpec(
            layers=[
                LayerSpec("conv", {"out_channels": 2, "kernel_size": 9}),
                LayerSpec("flatten"),
                LayerSpec("dense", {"units": 2}),
            ],
            input_shape=(4, 4, 1),
            num_classes=2,
        )
        with pytest.raises(ValueError, match=r"layer\.1 \(conv\)"):
            build_network(spec)

    # one array of one sample past 2**26 = 67108864 numbers; only built, never run
    @pytest.mark.parametrize(
        "input_shape, kind, options, message",
        [
            ((8193, 8192, 1), "relu", {}, "input 8193x8192x1 holds 67117056"),
            ((16, 16, 1), "conv", {"kernel_size": 3, "padding": 200000},
             "layer.2 (conv): output 400014x400014x1 holds 160011200196"),
            ((16, 16, 1), "conv", {"kernel_size": 3, "stride": 8, "padding": 4100},
             "layer.2 (conv): padded input 8216x8216x1 holds 67502656"),
            ((2900, 2900, 1), "conv", {"kernel_size": 3, "padding": 1},
             "layer.2 (conv): window cells 2900x2900x9x1 holds 75690000"),
            ((512, 512, 32), "lpsc", {"size": 5, "levels_r": 2, "levels_theta": 6, "growth": 2,
                                      "padding": 2},
             "layer.2 (lpsc): window cells 512x512x13x32 holds 109051904"),
            ((2900, 2900, 1), "dilated", {"kernel_size": 3, "dilation": 2, "padding": 2},
             "layer.2 (dilated): window cells 2900x2900x9x1 holds 75690000"),
            ((2900, 2900, 1), "square_share", {"kernel_size": 4, "pool_size": 2, "padding": 2},
             "layer.2 (square_share): window cells 2901x2901x16x1 holds 134652816"),
        ],
        ids=["input", "conv-output", "conv-padded", "conv-cells", "lpsc-cells", "dilated-cells",
             "square_share-cells"],
    )
    def test_sample_array_past_the_bound_names_it_before_any_draw(
            self, monkeypatch, input_shape, kind, options, message):
        def draw(*args, **kwargs):
            raise AssertionError("a weight was drawn")

        monkeypatch.setattr(logpolar.network, "_init", draw)
        # a layer with weights comes first: the bound holds before it draws them
        first = LayerSpec("conv", {"out_channels": input_shape[2], "kernel_size": 1})
        options = options if kind == "relu" else {"out_channels": 1, **options}
        spec = NetSpec(layers=[first, LayerSpec(kind, options)], input_shape=input_shape,
                       num_classes=2)
        with pytest.raises(ValueError) as err:
            build_network(spec, require_logits=False)
        assert str(err.value).startswith(message)
        assert str(err.value).endswith("numbers per sample, more than 67108864")

    def test_dilated_cells_count_taps_not_the_dilated_extent(self):
        # 600*600*9*2 taps fit; the extent 101 would count 600*600*101*101*2
        spec = NetSpec(layers=[LayerSpec("dilated", {"out_channels": 1, "kernel_size": 3,
                                                     "dilation": 50, "padding": 50})],
                       input_shape=(600, 600, 2), num_classes=2)
        assert build_network(spec, require_logits=False).shapes[-1] == (600, 600, 1)

    @pytest.mark.parametrize(
        "kind, options, bad",
        [
            ("relu", {"size": 2}, "size"),
            ("conv", {"out_channels": 2, "kernel_size": 3, "pading": 1}, "pading"),
        ],
    )
    def test_unknown_option_names_layer_and_key(self, kind, options, bad):
        spec = NetSpec(
            layers=[LayerSpec(kind, options), LayerSpec("flatten"), LayerSpec("dense", {"units": 2})],
            input_shape=(4, 4, 1),
            num_classes=2,
        )
        with pytest.raises(ValueError, match=rf"layer\.1 \({kind}\): unknown options \['{bad}'\]"):
            build_network(spec)

    @pytest.mark.parametrize(
        "kind, options, key",
        [
            ("conv", {"out_channels": 2, "kernel_size": 3}, "bias"),
            ("dilated", {"out_channels": 2, "kernel_size": 3}, "bias"),
            ("square_share", {"out_channels": 2, "kernel_size": 2, "pool_size": 2}, "bias"),
            ("lpsc", {"out_channels": 2, "size": 3, "levels_r": 1, "levels_theta": 4,
                      "growth": 2}, "bias"),
            ("lpsc", {"out_channels": 2, "size": 3, "levels_r": 1, "levels_theta": 4,
                      "growth": 2}, "center_conv"),
        ],
    )
    @pytest.mark.parametrize("value", ["nope", 1])
    def test_flag_must_be_bool(self, kind, options, key, value):
        spec = NetSpec(
            layers=[LayerSpec(kind, {**options, key: value}), LayerSpec("flatten"),
                    LayerSpec("dense", {"units": 2})],
            input_shape=(4, 4, 1),
            num_classes=2,
        )
        with pytest.raises(
            ValueError,
            match=rf"layer\.1 \({kind}\): option '{key}' must be true or false, got {value!r}",
        ):
            build_network(spec)

    def test_dense_flag_must_be_bool(self):
        spec = NetSpec(
            layers=[LayerSpec("flatten"), LayerSpec("dense", {"units": 2, "bias": "nope"})],
            input_shape=(4, 4, 1),
            num_classes=2,
        )
        with pytest.raises(ValueError, match=r"layer\.2 \(dense\): option 'bias' must be"):
            build_network(spec)

    def test_parameter_counts_match_formulas(self):
        spec = NetSpec(
            layers=[
                LayerSpec(
                    "lpsc",
                    {"out_channels": 4, "size": 5, "levels_r": 2, "levels_theta": 6,
                     "growth": 2, "padding": 2},
                ),
                LayerSpec("relu"),
                LayerSpec("conv", {"out_channels": 3, "kernel_size": 3, "padding": 1}),
                LayerSpec("maxpool", {"size": 2}),
                LayerSpec("flatten"),
                LayerSpec("dense", {"units": 2}),
            ],
            input_shape=(8, 8, 2),
            num_classes=2,
        )
        net = build_network(spec, seed=0)
        lpsc_params = (2 * 6 + 1) * 2 * 4 + 4
        conv_params = 3 * 3 * 4 * 3 + 3
        dense_params = (4 * 4 * 3) * 2 + 2
        assert net.param_count() == lpsc_params + conv_params + dense_params

    def test_baseline_layer_parameter_formulas(self):
        spec = NetSpec(
            layers=[
                LayerSpec(
                    "dilated",
                    {"out_channels": 3, "kernel_size": 3, "dilation": 2, "padding": 2},
                ),
                LayerSpec(
                    "square_share",
                    {"out_channels": 2, "kernel_size": 6, "pool_size": 3, "padding": 3},
                ),
                LayerSpec("flatten"),
                LayerSpec("dense", {"units": 2}),
            ],
            input_shape=(8, 8, 1),
            num_classes=2,
        )
        net = build_network(spec, seed=0)
        dilated = net.layers[0]
        square = net.layers[1]
        # dilation does not change the parameter count; sharing divides it
        assert sum(a.size for a in dilated.params().values()) == 3 * 3 * 1 * 3 + 3
        assert sum(a.size for a in square.params().values()) == 2 * 2 * 3 * 2 + 2

    def test_initial_weights_are_glorot_draws_in_layer_order(self):
        spec = NetSpec(
            layers=[
                LayerSpec("conv", {"out_channels": 3, "kernel_size": 3, "padding": 1, "bias": False}),
                LayerSpec("lpsc", {"out_channels": 2, "size": 5, "levels_r": 2, "levels_theta": 6,
                                   "growth": 2, "padding": 2}),
                LayerSpec("dilated", {"out_channels": 2, "kernel_size": 3, "dilation": 2, "padding": 2}),
                LayerSpec("square_share", {"out_channels": 2, "kernel_size": 4, "pool_size": 2,
                                           "padding": 2}),
                LayerSpec("flatten"),
                LayerSpec("dense", {"units": 2}),
            ],
            input_shape=(8, 8, 1),
            num_classes=2,
        )
        net = build_network(spec, seed=5)
        rng = np.random.default_rng(5)

        def draw(shape, fan_in, fan_out):
            limit = math.sqrt(6.0 / (fan_in + fan_out))
            return rng.uniform(-limit, limit, size=shape)

        # one generator, in layer order; lpsc draws its center, then its regions,
        # each weight counted once per region (2 * 6 + 1 per channel pair)
        want = {
            "layer.1": {"kernel": draw((3, 3, 1, 3), 9 * 1, 9 * 3)},
            "layer.2": {"center": draw((3, 2), 13 * 3, 13 * 2),
                        "regions": draw((2, 6, 3, 2), 13 * 3, 13 * 2), "bias": np.zeros(2)},
            "layer.3": {"kernel": draw((3, 3, 2, 2), 9 * 2, 9 * 2), "bias": np.zeros(2)},
            "layer.4": {"regions": draw((2, 2, 2, 2), 4 * 2, 4 * 2), "bias": np.zeros(2)},
            "layer.5": {},
            "layer.6": {"weights": draw((9 * 9 * 2, 2), 9 * 9 * 2, 2), "bias": np.zeros(2)},
        }
        for layer in net.layers:
            got = layer.params()
            assert sorted(got) == sorted(want[layer.name]), layer.name
            for name, array in got.items():
                assert np.array_equal(array, want[layer.name][name]), (layer.name, name)


class TestSgd:
    def test_zero_learning_rate_keeps_parameters(self):
        net = build_network(dense_only_spec(), seed=5)
        before = [a.copy() for layer in net.layers for a in layer.params().values()]
        train(net, random_dataset(), TrainConfig(learning_rate=0.0, epochs=2, batch_size=4))
        after = [a for layer in net.layers for a in layer.params().values()]
        for b, a in zip(before, after):
            assert np.array_equal(b, a)

    def test_five_step_recurrence_matches_hand_iteration(self):
        # quadratic toy f(w) = w^2/2, grad = w; the update is
        # v <- mu*v + (g + wd*w); w <- w - lr*v
        cfg = TrainConfig(learning_rate=0.1, momentum=0.9, weight_decay=0.01, epochs=1)
        w = np.array([1.0])
        v = np.zeros(1)
        w_hand, v_hand = 1.0, 0.0
        for _ in range(5):
            g_hand = w_hand
            v_hand = cfg.momentum * v_hand + (g_hand + cfg.weight_decay * w_hand)
            w_hand = w_hand - cfg.learning_rate * v_hand
            sgd_update(w, w.copy(), v, cfg)
        assert w[0] == pytest.approx(w_hand, abs=0, rel=1e-15)
        assert v[0] == pytest.approx(v_hand, abs=0, rel=1e-15)

    def test_small_step_decreases_quadratic_loss(self):
        cfg = TrainConfig(learning_rate=1e-3, momentum=0.0, weight_decay=0.0, epochs=1)
        w = np.array([2.0])
        v = np.zeros(1)
        sgd_update(w, w.copy(), v, cfg)
        assert 0.5 * w[0] ** 2 < 0.5 * 2.0**2


class TestGradients:
    def test_whole_network_matches_finite_differences(self):
        net = build_network(small_conv_spec(), seed=7)
        ds = random_dataset(n=3, h=6, w=6, seed=11)

        def full_loss():
            logits = net.forward(ds.images)
            return ops.softmax_cross_entropy(logits, ds.labels)

        logits = net.forward(ds.images)
        grad_in, grads = net.backward(
            ops.softmax_cross_entropy_backward(logits, ds.labels)
        )

        for layer, layer_grads in zip(net.layers, grads):
            params = layer.params()
            for name, got in layer_grads.items():
                p = params[name]

                def loss_at(v, p=p):
                    saved = p.copy()
                    p[...] = v
                    out = full_loss()
                    p[...] = saved
                    return out

                want = finite_difference(loss_at, p.copy())
                assert max_rel_error(got, want) < 1e-4, f"{layer.name}.{name}"

        def loss_wrt_input(imgs):
            logits = net.forward(imgs)
            return ops.softmax_cross_entropy(logits, ds.labels)

        want_in = finite_difference(loss_wrt_input, ds.images)
        assert max_rel_error(grad_in, want_in) < 1e-4


def lpsc_spec(pooling="mean", center_conv=True, bias=True):
    lpsc = {
        "out_channels": 3, "size": 5, "levels_r": 2, "levels_theta": 4, "growth": 2,
        "stride": (2, 1), "padding": (2, 1), "pooling": pooling,
        "center_conv": center_conv, "bias": bias,
    }
    return NetSpec(
        layers=[LayerSpec("lpsc", lpsc), LayerSpec("flatten"), LayerSpec("dense", {"units": 2})],
        input_shape=(7, 6, 2),
        num_classes=2,
    )


class TestLpscLayerPath:
    """The layer hands the forward's pooled tensor to the backward."""

    @pytest.mark.parametrize("pooling", ["mean", "sum", "max"])
    @pytest.mark.parametrize("center_conv", [True, False])
    @pytest.mark.parametrize("bias", [True, False])
    def test_layer_matches_public_calls_bitwise(self, pooling, center_conv, bias):
        layer = build_network(lpsc_spec(pooling, center_conv, bias), seed=5).layers[0]
        rng = np.random.default_rng(8)
        x = rng.normal(size=(3, 7, 6, 2))
        out, cache = layer.forward(x)
        assert np.array_equal(out, lpsc_forward_fast(x, layer.config, layer.weights))
        g = rng.normal(size=out.shape)
        gx, grads = layer.backward(g, cache)
        want_gx, want = lpsc_backward(x, layer.config, layer.weights, g)
        assert np.array_equal(gx, want_gx)
        assert sorted(grads) == sorted(layer.params())
        assert np.array_equal(grads["center"], want.center)
        assert np.array_equal(grads["regions"], want.regions)
        if bias:
            assert np.array_equal(grads["bias"], want.bias)

    def test_train_step_pools_once(self, monkeypatch):
        calls = []
        pool = logpolar.lpsc.log_polar_pool

        def counted(*args, **kwargs):
            calls.append(1)
            return pool(*args, **kwargs)

        monkeypatch.setattr(logpolar.lpsc, "log_polar_pool", counted)
        net = build_network(lpsc_spec(), seed=5)
        ds = random_dataset(n=4, h=7, w=6, c=2, seed=6)
        train(net, ds, TrainConfig(epochs=1, batch_size=4))
        assert len(calls) == 1


class TestTraining:
    def test_memorizes_eight_random_samples(self):
        net = build_network(small_conv_spec(), seed=2)
        ds = random_dataset(n=8, h=6, w=6, seed=21)
        cfg = TrainConfig(learning_rate=0.2, momentum=0.9, weight_decay=0.0, batch_size=8, epochs=300, seed=2)
        train(net, ds, cfg)
        _, acc = evaluate(net, ds)
        assert acc == 1.0

    def test_identical_seeds_identical_history(self):
        ds = random_dataset(n=8, h=4, w=4, seed=4)
        cfg = TrainConfig(learning_rate=0.05, momentum=0.9, epochs=4, batch_size=4)
        h1 = train(build_network(dense_only_spec(), seed=9), ds, cfg)
        h2 = train(build_network(dense_only_spec(), seed=9), ds, cfg)
        assert h1 == h2

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_non_finite_loss_stops_before_the_update(self):
        net = build_network(dense_only_spec(), seed=1)
        net.layers[1].weights[0, 0] = np.inf
        before = [p.copy() for p in net.layers[1].params().values()]
        ds = random_dataset(n=8, h=4, w=4, seed=4)
        cfg = TrainConfig(learning_rate=0.05, epochs=2, batch_size=4)
        with pytest.raises(FloatingPointError, match="epoch 1, batch 1"):
            train(net, ds, cfg)
        after = list(net.layers[1].params().values())
        assert all(np.array_equal(a, b) for a, b in zip(after, before))

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_evaluate_names_the_batch_of_a_non_finite_loss(self):
        # finite weights whose logits overflow: zero images keep batch 1 finite
        net = build_network(dense_only_spec(), seed=1)
        net.layers[1].weights[...] = 1e308
        ds = random_dataset(n=8, h=4, w=4, seed=4)
        ds.images[:4] = 0.0
        with pytest.raises(FloatingPointError, match=r"^loss is nan at batch 2$"):
            evaluate(net, ds, batch_size=4)

    def test_empty_dataset_rejected(self):
        # the Dataset type itself refuses zero samples; the training loop
        # guards against empty array bundles from any other source
        with pytest.raises(ValueError, match="at least one"):
            Dataset(images=np.zeros((0, 4, 4, 1)), labels=np.zeros(0, dtype=int), num_classes=2)

        class Hollow:
            images = np.zeros((0, 4, 4, 1))
            labels = np.zeros(0, dtype=int)

        net = build_network(dense_only_spec(), seed=1)
        with pytest.raises(ValueError, match="empty"):
            train(net, Hollow(), TrainConfig(epochs=1))


NET_CFG = """\
[net]
input = 8x8x1
classes = 2

[layer.1]
kind = lpsc
out_channels = 4
size = 5
levels_r = 2
levels_theta = 6
growth = 2
padding = 2

[layer.2]
kind = relu

[layer.3]
kind = maxpool
size = 2

[layer.4]
kind = flatten

[layer.5]
kind = dense
units = 2

[train]
learning_rate = 0.05
momentum = 0.9
weight_decay = 0.0005
batch_size = 8
epochs = 5
seed = 1
"""


class TestSpecFiles:
    def test_parse_and_build(self, tmp_path):
        path = tmp_path / "net.cfg"
        path.write_text(NET_CFG)
        spec, cfg = parse_net_file(path)
        assert [l.kind for l in spec.layers] == ["lpsc", "relu", "maxpool", "flatten", "dense"]
        assert spec.input_shape == (8, 8, 1)
        assert cfg.epochs == 5 and cfg.learning_rate == 0.05
        net = build_network(spec, seed=cfg.seed)
        assert net.shapes[-1] == (2,)
        assert net.shapes[1] == (8, 8, 4)

    def test_unknown_key_rejected(self, tmp_path):
        path = tmp_path / "bad.cfg"
        path.write_text(NET_CFG.replace("momentum = 0.9", "momentun = 0.9"))
        with pytest.raises(ValueError, match="momentun"):
            parse_net_file(path)

    def test_missing_kind_rejected(self, tmp_path):
        path = tmp_path / "nokind.cfg"
        path.write_text("[net]\ninput = 4x4x1\nclasses = 2\n\n[layer.1]\nunits = 2\n")
        with pytest.raises(ValueError, match="kind"):
            parse_net_file(path)


class TestCheckpoints:
    def test_roundtrip_restores_outputs(self, tmp_path):
        spec = small_conv_spec()
        trained = build_network(spec, seed=3)
        ds = random_dataset(n=6, h=6, w=6, seed=8)
        train(trained, ds, TrainConfig(learning_rate=0.1, epochs=3, batch_size=3))
        save_checkpoint(trained, tmp_path / "ckpt")

        fresh = build_network(spec, seed=99)
        x = ds.images[:2]
        assert not np.array_equal(fresh.forward(x), trained.forward(x))
        load_checkpoint(fresh, tmp_path / "ckpt")
        assert np.array_equal(fresh.forward(x), trained.forward(x))

    def test_lpsc_checkpoint(self, tmp_path):
        path = tmp_path / "net.cfg"
        path.write_text(NET_CFG)
        spec, cfg = parse_net_file(path)
        net = build_network(spec, seed=cfg.seed)
        save_checkpoint(net, tmp_path / "ck")
        other = build_network(spec, seed=cfg.seed + 1)
        load_checkpoint(other, tmp_path / "ck")
        x = RNG.uniform(0, 1, size=(2, 8, 8, 1))
        assert np.array_equal(net.forward(x), other.forward(x))

    def test_missing_manifest(self, tmp_path):
        net = build_network(dense_only_spec(), seed=1)
        with pytest.raises(ValueError, match="manifest"):
            load_checkpoint(net, tmp_path / "nowhere")

    @pytest.mark.parametrize(
        "edit, message",
        [
            (lambda lines: lines[:1], "no stored value for layer.1.center"),
            (lambda lines: [line for line in lines if " lpsc " not in line], "no stored value for layer.1"),
            (lambda lines: [line for line in lines if " bias " not in line], "no stored value for layer.5.bias"),
            (lambda lines: lines + lines[-1:], "layer.5.bias is restored twice"),
            (lambda lines: lines + lines[1:2], "layer.1.center is restored twice"),
            (lambda lines: [line.replace(" lpsc weights ", " lpsc anything ") for line in lines],
             "lpsc line names 'anything', expected 'weights'"),
        ],
        ids=["header-only", "lpsc-line-removed", "bias-line-removed", "tnsr-twice", "lpscw-twice",
             "lpsc-param-renamed"],
    )
    def test_partial_or_repeated_manifest_rejected(self, tmp_path, edit, message):
        path = tmp_path / "net.cfg"
        path.write_text(NET_CFG)
        spec, _ = parse_net_file(path)
        save_checkpoint(build_network(spec, seed=1), tmp_path / "ck")
        manifest = tmp_path / "ck" / "manifest.txt"
        manifest.write_text("\n".join(edit(manifest.read_text().splitlines())) + "\n")
        net = build_network(spec, seed=2)
        x = RNG.uniform(0, 1, size=(2, 8, 8, 1))
        before = net.forward(x)
        with pytest.raises(ValueError, match=rf"manifest\.txt: {message}"):
            load_checkpoint(net, tmp_path / "ck")
        assert np.array_equal(net.forward(x), before)

    @pytest.mark.parametrize("saved_bias", [True, False])
    def test_lpscw_bias_presence_must_match(self, tmp_path, saved_bias):
        save_checkpoint(build_network(kind_spec("lpsc", saved_bias), seed=1), tmp_path / "ck")
        with pytest.raises(ValueError, match=r"manifest\.txt: .*bias"):
            load_checkpoint(build_network(kind_spec("lpsc", not saved_bias), seed=1), tmp_path / "ck")


KIND_OPTIONS = {
    "conv": {"out_channels": 2, "kernel_size": 3, "padding": 1},
    "lpsc": {"out_channels": 2, "size": 5, "levels_r": 2, "levels_theta": 4, "growth": 2,
             "padding": 2},
    "dilated": {"out_channels": 2, "kernel_size": 3, "dilation": 2, "padding": 2},
    "square_share": {"out_channels": 2, "kernel_size": 4, "pool_size": 2, "padding": 2},
    "dense": None,
}


def kind_spec(kind, bias):
    """One layer of *kind* (dense: the head alone) before a dense head, bias on or off."""
    first = [] if kind == "dense" else [LayerSpec(kind, {**KIND_OPTIONS[kind], "bias": bias})]
    return NetSpec(
        layers=[*first, LayerSpec("flatten"), LayerSpec("dense", {"units": 2, "bias": bias})],
        input_shape=(6, 6, 2),
        num_classes=2,
    )


@pytest.mark.parametrize("kind", list(KIND_OPTIONS))
@pytest.mark.parametrize("bias", [True, False], ids=["bias", "no-bias"])
class TestParameterContract:
    """Every parameterised layer names its arrays once, for SGD and checkpoints alike."""

    def test_gradients_named_like_params(self, kind, bias):
        net = build_network(kind_spec(kind, bias), seed=1)
        logits = net.forward(RNG.uniform(0, 1, size=(3, 6, 6, 2)))
        _, grads = net.backward(np.ones_like(logits))
        for layer, layer_grads in zip(net.layers, grads):
            assert list(layer_grads) == list(layer.params())
            for name, g in layer_grads.items():
                assert g.shape == layer.params()[name].shape
        assert all(("bias" in layer.params()) == bias for layer in net.layers if layer.params())

    def test_checkpoint_restores_in_place(self, kind, bias, tmp_path):
        spec = kind_spec(kind, bias)
        trained = build_network(spec, seed=1)
        train(trained, random_dataset(n=4, h=6, w=6, c=2), TrainConfig(epochs=1, batch_size=4))
        save_checkpoint(trained, tmp_path / "a")

        fresh = build_network(spec, seed=2)
        held = [(getattr(layer, "weights", None), dict(layer.params())) for layer in fresh.layers]
        load_checkpoint(fresh, tmp_path / "a")
        for layer, (weights, params) in zip(fresh.layers, held):
            assert getattr(layer, "weights", None) is weights
            assert all(layer.params()[name] is arr for name, arr in params.items())
        x = RNG.uniform(0, 1, size=(2, 6, 6, 2))
        assert np.array_equal(fresh.forward(x), trained.forward(x))

        save_checkpoint(fresh, tmp_path / "b")
        files = sorted(f.name for f in (tmp_path / "a").iterdir())
        assert files == sorted(f.name for f in (tmp_path / "b").iterdir())
        for name in files:
            assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()
