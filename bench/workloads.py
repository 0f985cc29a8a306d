"""The benchmark's workloads: network, inputs, one closed-loop step, output gate.

Each workload runs in one process with one caller; a batch starts only
after the previous one finished.

* ``edges-train`` is the paper's desk task: the edges net (lpsc k5,
  2x6, pad 2, then relu, maxpool, dense) trained on 16x16x1 oriented
  edges, batch 16. Its steps are a few milliseconds, so per-call
  plumbing, ``ops`` max pooling and small-kernel LPSC dominate.
* ``wide-kernel-train`` is one k21 LPSC layer on random 32x32x8 inputs,
  batch 8. Pooling, the block convolution and the pooling adjoint
  dominate, and the pooled map (~17 MB) is larger than the L2 cache.
* ``baselines-infer`` is forward-only ``evaluate`` of the comparison net
  (conv, dilated, square-shared) on 32x32x16, batch 32. It never calls
  ``lpsc``: it is the control on which an LPSC change predicts no change,
  and, having no backward pass, it shows work moved into the forward pass.

The seed draws every input; the library receives only the generated
arrays. The initial weights are part of the workload (``INIT_SEED``), and
the labels are balanced over the classes, so that final_loss varies
little from seed to seed.
"""

from __future__ import annotations

import contextlib
from dataclasses import dataclass
from typing import Callable

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from logpolar.checks import EQUIVALENCE_TOL
from logpolar.data import Dataset, make_oriented_edges
from logpolar.lpsc import LpscWeights, lpsc_backward, lpsc_forward_fast, lpsc_forward_reference
from logpolar.network import LayerSpec, NetSpec, TrainConfig, build_network, evaluate, train

CONV_KINDS = ("conv", "dilated", "square_share")
INIT_SEED = 1


@dataclass
class Workload:
    name: str
    spec: NetSpec
    batch_size: int
    # None: forward-only evaluate; otherwise one SGD step per batch
    train_config: TrainConfig | None
    # final_loss is the loss on the eval set after this many steps
    loss_steps: int
    # seed -> (batches cycled by the timed loop, eval set for final_loss)
    make_inputs: Callable[[int], tuple[list[Dataset], Dataset]]
    # (network, batch) -> [(check name, relative error)]
    checks: Callable


@dataclass
class State:
    network: object
    batches: list
    eval_set: Dataset


def setup(workload: Workload, seed: int, tracer=None) -> State:
    """Inputs, network and the first-call cache fill, before any timing."""
    with tracer.span("data.gen") if tracer is not None else contextlib.nullcontext():
        batches, eval_set = workload.make_inputs(seed)
    network = build_network(workload.spec, seed=INIT_SEED)
    # one single-sample forward fills the geometry mask and plan caches
    network.forward(batches[0].images[:1])
    return State(network=network, batches=batches, eval_set=eval_set)


def step(workload: Workload, network, batch: Dataset) -> float:
    """One closed-loop batch; returns its loss."""
    if workload.train_config is None:
        return eval_loss(workload, network, batch)
    return train(network, batch, workload.train_config)[0][1]


def eval_loss(workload: Workload, network, eval_set: Dataset) -> float:
    loss, _ = evaluate(network, eval_set, batch_size=workload.batch_size)
    return loss


def _split(dataset: Dataset, batch_size: int) -> list[Dataset]:
    return [
        Dataset(
            images=dataset.images[i : i + batch_size],
            labels=dataset.labels[i : i + batch_size],
            num_classes=dataset.num_classes,
        )
        for i in range(0, len(dataset), batch_size)
    ]


def _random_dataset(rng, n, shape, classes) -> Dataset:
    images = rng.uniform(0.0, 1.0, size=(n, *shape))
    labels = rng.permutation(np.arange(n) % classes)
    return Dataset(images=images, labels=labels, num_classes=classes)


# ----------------------------------------------------------------------
# output gate


def _rel_error(got, want) -> float:
    scale = max(float(np.max(np.abs(want))), 1e-300)
    return float(np.max(np.abs(got - want))) / scale


def _adjoint_error(lhs: float, rhs: float, scale: float) -> float:
    return abs(lhs - rhs) / max(scale, 1e-300)


def lpsc_checks(network, batch: Dataset):
    """Fast vs reference path, and both adjoint identities of lpsc_backward."""
    layer = next(layer for layer in network.layers if layer.kind == "lpsc")
    x = batch.images
    cfg, weights = layer.config, layer.weights
    fast = lpsc_forward_fast(x, cfg, weights)
    reference = lpsc_forward_reference(x, cfg, weights)
    # the adjoint identities hold for the linear part: the bias is excluded
    linear = LpscWeights(center=weights.center, regions=weights.regions)
    out = lpsc_forward_fast(x, cfg, linear)
    g = np.random.default_rng(0).standard_normal(out.shape)
    grad_x, grad_w = lpsc_backward(x, cfg, linear, g)
    lhs = float(np.vdot(out, g))
    scale = float(np.sum(np.abs(out * g)))
    rhs_w = float(np.vdot(linear.center, grad_w.center) + np.vdot(linear.regions, grad_w.regions))
    return [
        ("lpsc.fast_vs_reference", _rel_error(fast, reference)),
        ("lpsc.adjoint_input", _adjoint_error(lhs, float(np.vdot(x, grad_x)), scale)),
        ("lpsc.adjoint_weights", _adjoint_error(lhs, rhs_w, scale)),
    ]


def sliding_window_conv(x, kernel, stride, padding, dilation, bias):
    """Convolution by einsum over a strided sliding-window view.

    Independent of the library's im2col: windows come from
    ``sliding_window_view`` and dilation is a slice of each window.
    """
    kh, kw = kernel.shape[:2]
    (sh, sw), (ph, pw), (dh, dw) = stride, padding, dilation
    xp = np.pad(x, ((0, 0), (ph, ph), (pw, pw), (0, 0)))
    windows = sliding_window_view(xp, ((kh - 1) * dh + 1, (kw - 1) * dw + 1), axis=(1, 2))
    windows = windows[:, ::sh, ::sw, :, ::dh, ::dw]  # (N, Ho, Wo, C, kh, kw)
    out = np.einsum("nhwcij,ijcd->nhwd", windows, kernel, optimize=True)
    return out if bias is None else out + bias


def _layer_oracle(layer, x):
    if layer.kind == "conv":
        return sliding_window_conv(x, layer.weights, layer.stride, layer.padding, (1, 1), layer.bias)
    cfg = layer.config
    if layer.kind == "dilated":
        d = (cfg.dilation, cfg.dilation)
        return sliding_window_conv(x, layer.kernel.weights, cfg.stride, cfg.padding, d, layer.kernel.bias)
    side = np.arange(cfg.kernel_size) // cfg.pool_size
    full = layer.regions[side[:, None], side[None, :]]
    return sliding_window_conv(x, full, cfg.stride, cfg.padding, (1, 1), layer.bias)


def conv_layer_checks(network, batch: Dataset):
    """Every conv-like layer's output against the sliding-window oracle."""
    results = []
    x = batch.images
    for layer in network.layers:
        out, _ = layer.forward(x)
        if layer.kind in CONV_KINDS:
            results.append((f"{layer.name}.{layer.kind}", _rel_error(out, _layer_oracle(layer, x))))
        x = out
    return results


def run_checks(workload: Workload, network, batch: Dataset):
    """[(name, relative error, tolerance, passed)] for the workload's gate."""
    return [
        (name, err, EQUIVALENCE_TOL, bool(err <= EQUIVALENCE_TOL))
        for name, err in workload.checks(network, batch)
    ]


# ----------------------------------------------------------------------
# the workloads


def _edges_inputs(seed):
    pool = make_oriented_edges(128, size=16, seed=seed)
    return _split(pool, 16), pool


def _wide_inputs(seed):
    rng = np.random.default_rng(seed)
    pool = _random_dataset(rng, 32, (32, 32, 8), 4)
    return _split(pool, 8), pool


def _baselines_inputs(seed):
    rng = np.random.default_rng(seed)
    pool = _random_dataset(rng, 128, (32, 32, 16), 10)
    return _split(pool, 32), pool


def _head(pool):
    return [
        LayerSpec("relu"),
        LayerSpec(pool, {"size": 2}),
        LayerSpec("flatten"),
    ]


EDGES_TRAIN = Workload(
    name="edges-train",
    spec=NetSpec(
        layers=[
            LayerSpec(
                "lpsc",
                {"out_channels": 8, "size": 5, "levels_r": 2, "levels_theta": 6,
                 "growth": 2, "padding": 2},
            ),
            *_head("maxpool"),
            LayerSpec("dense", {"units": 2}),
        ],
        input_shape=(16, 16, 1),
        num_classes=2,
    ),
    batch_size=16,
    train_config=TrainConfig(
        learning_rate=0.05, momentum=0.9, weight_decay=0.0005, batch_size=16, epochs=1
    ),
    loss_steps=16,
    make_inputs=_edges_inputs,
    checks=lpsc_checks,
)

WIDE_KERNEL_TRAIN = Workload(
    name="wide-kernel-train",
    spec=NetSpec(
        layers=[
            LayerSpec(
                "lpsc",
                {"out_channels": 8, "size": 21, "levels_r": 4, "levels_theta": 8,
                 "growth": 2, "padding": 10},
            ),
            *_head("meanpool"),
            LayerSpec("dense", {"units": 4}),
        ],
        input_shape=(32, 32, 8),
        num_classes=4,
    ),
    batch_size=8,
    train_config=TrainConfig(
        learning_rate=0.01, momentum=0.9, weight_decay=0.0005, batch_size=8, epochs=1
    ),
    loss_steps=8,
    make_inputs=_wide_inputs,
    checks=lpsc_checks,
)

BASELINES_INFER = Workload(
    name="baselines-infer",
    spec=NetSpec(
        layers=[
            LayerSpec("conv", {"out_channels": 16, "kernel_size": 3, "padding": 1}),
            LayerSpec("relu"),
            LayerSpec("dilated", {"out_channels": 16, "kernel_size": 3, "dilation": 2, "padding": 2}),
            LayerSpec("relu"),
            LayerSpec("square_share", {"out_channels": 16, "kernel_size": 4, "pool_size": 2, "padding": 2}),
            *_head("maxpool"),
            LayerSpec("dense", {"units": 10}),
        ],
        input_shape=(32, 32, 16),
        num_classes=10,
    ),
    batch_size=32,
    train_config=None,
    loss_steps=0,
    make_inputs=_baselines_inputs,
    checks=conv_layer_checks,
)

WORKLOADS = {w.name: w for w in (EDGES_TRAIN, WIDE_KERNEL_TRAIN, BASELINES_INFER)}
