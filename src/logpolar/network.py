"""Desk-scale networks: declarative specs, manual backprop, SGD training.

Layer kinds: conv, lpsc, dilated, square_share, relu, maxpool, meanpool,
flatten, dense. Parameters initialize uniformly in
+-sqrt(6 / (fan_in + fan_out)); the log-polar layer counts its fan as
(levels_r * levels_theta + 1) * channels since every weight serves a whole
region. Biases start at zero. Initialization draws happen in layer order
with a single generator, so a seed pins the whole parameter trajectory.

The optimizer is SGD with momentum and weight decay:

    v <- momentum * v + (grad + weight_decay * param)
    param <- param - learning_rate * v

Training iterates minibatches in fixed sample order (no shuffling), which
makes runs bit-reproducible given (spec, seed, data).

Network spec files are INI-style text::

    [net]
    input = 16x16x1
    classes = 2

    [layer.1]
    kind = lpsc
    out_channels = 8
    size = 5
    levels_r = 2
    levels_theta = 6
    growth = 2
    padding = 2

    [layer.2]
    kind = relu
    ...

    [train]
    learning_rate = 0.05
    momentum = 0.9
    weight_decay = 0.0005
    batch_size = 16
    epochs = 200
    seed = 1

A key that its section does not know is an error, naming the section
and the key; so is a flag (``bias``, ``center_conv``) whose value is not
true/false (yes/no, on/off).

Checkpoints are a directory with a ``manifest.txt`` (one ``<layer-index>
<kind> <param> <filename>`` line per stored array) plus TNSR tensor files
and LPSCW weight files.
"""

from __future__ import annotations

import configparser
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import ops
from .baselines import (
    DilatedConfig,
    SquareShareConfig,
    dilated_conv2d,
    dilated_conv2d_backward,
    square_share_conv2d,
    square_share_conv2d_backward,
)
from .conv import ConvKernel, as_pair, conv2d_raw, conv2d_raw_backward, out_extent
from .geometry import LpscConfig
from .lpsc import (
    LpscWeights,
    load_lpsc_weights,
    lpsc_backward,
    lpsc_forward_fast,
    save_lpsc_weights,
)
from .tensor import load_tensor, save_tensor

__all__ = [
    "LayerSpec",
    "NetSpec",
    "TrainConfig",
    "Network",
    "build_network",
    "train",
    "evaluate",
    "sgd_update",
    "parse_net_file",
    "save_checkpoint",
    "load_checkpoint",
]

LAYER_KINDS = (
    "conv",
    "lpsc",
    "dilated",
    "square_share",
    "relu",
    "maxpool",
    "meanpool",
    "flatten",
    "dense",
)


@dataclass
class LayerSpec:
    kind: str
    options: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.kind not in LAYER_KINDS:
            raise ValueError(f"unknown layer kind {self.kind!r}")


@dataclass
class NetSpec:
    layers: list
    input_shape: tuple[int, int, int]
    num_classes: int

    def __post_init__(self):
        self.input_shape = tuple(int(d) for d in self.input_shape)
        if len(self.input_shape) != 3:
            raise ValueError(f"input_shape must be (H, W, C), got {self.input_shape}")
        if self.num_classes < 2:
            raise ValueError(f"num_classes must be >= 2, got {self.num_classes}")


@dataclass
class TrainConfig:
    learning_rate: float = 0.05
    momentum: float = 0.9
    weight_decay: float = 0.0
    batch_size: int = 16
    epochs: int = 100
    seed: int = 0

    def __post_init__(self):
        if self.learning_rate < 0:
            raise ValueError("learning_rate must be >= 0")
        if not 0 <= self.momentum < 1:
            raise ValueError("momentum must lie in [0, 1)")
        if self.weight_decay < 0:
            raise ValueError("weight_decay must be >= 0")
        if self.batch_size < 1 or self.epochs < 1:
            raise ValueError("batch_size and epochs must be >= 1")


def _glorot(rng, shape, fan_in, fan_out):
    limit = math.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-limit, limit, size=shape)


def _opt(layer, options, key, default=None, cast=None):
    """Pop option *key*; ``cast=bool`` accepts only a real bool."""
    value = options.pop(key, default)
    if value is None:
        raise ValueError(f"{layer.describe()}: missing required option {key!r}")
    if cast is bool and not isinstance(value, bool):
        raise ValueError(f"{layer.describe()}: option {key!r} must be true or false, got {value!r}")
    return cast(value) if cast is not None else value


class _Layer:
    """Shared plumbing: parameter registry and shape bookkeeping.

    Constructors pop the options they read; build_network rejects any
    option left over.
    """

    kind = "?"

    def __init__(self, index, options=None):
        self.index = index
        self.name = f"layer.{index}"

    def describe(self):
        return f"{self.name} ({self.kind})"

    def out_shape(self, in_shape):
        raise NotImplementedError

    def init_params(self, in_shape, rng):  # pragma: no cover - param-free layers
        pass

    def params(self) -> dict:
        return {}

    def forward(self, x):
        raise NotImplementedError

    def backward(self, grad, cache):
        raise NotImplementedError


def _need_spatial(layer, in_shape):
    if len(in_shape) != 3:
        raise ValueError(f"{layer.describe()}: expects (H, W, C) input, got {in_shape}")
    return in_shape


def _conv_out_shape(layer, in_shape, extent, stride, padding, channels):
    """(Ho, Wo, channels) of a windowed layer whose window spans *extent* cells."""
    h, w, _ = _need_spatial(layer, in_shape)
    try:
        ho = out_extent(h, extent, stride[0], padding[0])
        wo = out_extent(w, extent, stride[1], padding[1])
    except ValueError as exc:
        raise ValueError(f"{layer.describe()}: {exc}") from None
    return (ho, wo, channels)


class ConvLayer(_Layer):
    kind = "conv"

    def __init__(self, index, options):
        super().__init__(index)
        self.out_channels = _opt(self, options, "out_channels", cast=int)
        self.kernel_size = _opt(self, options, "kernel_size", cast=int)
        self.stride = as_pair(options.pop("stride", 1), "stride")
        self.padding = as_pair(options.pop("padding", 0), "padding")
        self.use_bias = _opt(self, options, "bias", True, cast=bool)
        self.weights = None
        self.bias = None

    def out_shape(self, in_shape):
        return _conv_out_shape(
            self, in_shape, self.kernel_size, self.stride, self.padding, self.out_channels
        )

    def init_params(self, in_shape, rng):
        c = in_shape[2]
        k = self.kernel_size
        self.weights = _glorot(
            rng, (k, k, c, self.out_channels), k * k * c, k * k * self.out_channels
        )
        self.bias = np.zeros(self.out_channels) if self.use_bias else None

    def params(self):
        p = {"kernel": self.weights}
        if self.bias is not None:
            p["bias"] = self.bias
        return p

    def forward(self, x):
        out = conv2d_raw(x, self.weights, self.stride, self.padding, bias=self.bias)
        return out, x

    def backward(self, grad, cache):
        gx, gw, gb = conv2d_raw_backward(
            cache, self.weights, grad, self.stride, self.padding, has_bias=self.use_bias
        )
        grads = {"kernel": gw}
        if self.use_bias:
            grads["bias"] = gb
        return gx, grads


class LpscLayer(_Layer):
    kind = "lpsc"

    def __init__(self, index, options):
        super().__init__(index)
        self.out_channels = _opt(self, options, "out_channels", cast=int)
        self.use_bias = _opt(self, options, "bias", True, cast=bool)
        self.config = LpscConfig(
            kernel_size=_opt(self, options, "size", cast=int),
            levels_r=_opt(self, options, "levels_r", cast=int),
            levels_theta=_opt(self, options, "levels_theta", cast=int),
            growth=_opt(self, options, "growth", cast=float),
            alpha=float(options.pop("alpha", 0.0)),
            eccentricity=float(options.pop("eccentricity", 0.0)),
            stride=as_pair(options.pop("stride", 1), "stride"),
            padding=as_pair(options.pop("padding", 0), "padding"),
            pooling_mode=str(options.pop("pooling", "mean")),
            center_conv=_opt(self, options, "center_conv", True, cast=bool),
        )
        self.weights: LpscWeights | None = None

    def out_shape(self, in_shape):
        cfg = self.config
        return _conv_out_shape(
            self, in_shape, cfg.kernel_size, cfg.stride, cfg.padding, self.out_channels
        )

    def init_params(self, in_shape, rng):
        c = in_shape[2]
        cfg = self.config
        fan_per = cfg.weights_per_pair
        fan_in, fan_out = fan_per * c, fan_per * self.out_channels
        center = _glorot(rng, (c, self.out_channels), fan_in, fan_out)
        regions = _glorot(
            rng,
            (cfg.levels_r, cfg.levels_theta, c, self.out_channels),
            fan_in,
            fan_out,
        )
        bias = np.zeros(self.out_channels) if self.use_bias else None
        self.weights = LpscWeights(center=center, regions=regions, bias=bias)

    def params(self):
        p = {"center": self.weights.center, "regions": self.weights.regions}
        if self.weights.bias is not None:
            p["bias"] = self.weights.bias
        return p

    def forward(self, x):
        return lpsc_forward_fast(x, self.config, self.weights), x

    def backward(self, grad, cache):
        gx, gw = lpsc_backward(cache, self.config, self.weights, grad)
        grads = {"center": gw.center, "regions": gw.regions}
        if self.use_bias:
            grads["bias"] = gw.bias
        return gx, grads


class DilatedLayer(_Layer):
    kind = "dilated"

    def __init__(self, index, options):
        super().__init__(index)
        self.out_channels = _opt(self, options, "out_channels", cast=int)
        self.use_bias = _opt(self, options, "bias", True, cast=bool)
        self.config = DilatedConfig(
            kernel_size=_opt(self, options, "kernel_size", cast=int),
            dilation=int(options.pop("dilation", 1)),
            stride=as_pair(options.pop("stride", 1), "stride"),
            padding=as_pair(options.pop("padding", 0), "padding"),
        )
        self.kernel: ConvKernel | None = None

    def out_shape(self, in_shape):
        cfg = self.config
        return _conv_out_shape(
            self, in_shape, cfg.effective_extent, cfg.stride, cfg.padding, self.out_channels
        )

    def init_params(self, in_shape, rng):
        c = in_shape[2]
        k = self.config.kernel_size
        w = _glorot(rng, (k, k, c, self.out_channels), k * k * c, k * k * self.out_channels)
        self.kernel = ConvKernel(
            weights=w, bias=np.zeros(self.out_channels) if self.use_bias else None
        )

    def params(self):
        p = {"kernel": self.kernel.weights}
        if self.kernel.bias is not None:
            p["bias"] = self.kernel.bias
        return p

    def forward(self, x):
        return dilated_conv2d(x, self.kernel, self.config), x

    def backward(self, grad, cache):
        gx, gk = dilated_conv2d_backward(cache, self.kernel, self.config, grad)
        grads = {"kernel": gk.weights}
        if self.use_bias:
            grads["bias"] = gk.bias
        return gx, grads


class SquareShareLayer(_Layer):
    kind = "square_share"

    def __init__(self, index, options):
        super().__init__(index)
        self.out_channels = _opt(self, options, "out_channels", cast=int)
        self.use_bias = _opt(self, options, "bias", True, cast=bool)
        self.config = SquareShareConfig(
            kernel_size=_opt(self, options, "kernel_size", cast=int),
            pool_size=int(options.pop("pool_size", 1)),
            stride=as_pair(options.pop("stride", 1), "stride"),
            padding=as_pair(options.pop("padding", 0), "padding"),
        )
        self.regions = None
        self.bias = None

    def out_shape(self, in_shape):
        cfg = self.config
        return _conv_out_shape(
            self, in_shape, cfg.kernel_size, cfg.stride, cfg.padding, self.out_channels
        )

    def init_params(self, in_shape, rng):
        c = in_shape[2]
        side = self.config.regions_per_side
        fan_in = side * side * c
        fan_out = side * side * self.out_channels
        self.regions = _glorot(rng, (side, side, c, self.out_channels), fan_in, fan_out)
        self.bias = np.zeros(self.out_channels) if self.use_bias else None

    def params(self):
        p = {"regions": self.regions}
        if self.bias is not None:
            p["bias"] = self.bias
        return p

    def forward(self, x):
        return square_share_conv2d(x, self.regions, self.config, bias=self.bias), x

    def backward(self, grad, cache):
        gx, gw, gb = square_share_conv2d_backward(
            cache, self.regions, self.config, grad, has_bias=self.use_bias
        )
        grads = {"regions": gw}
        if self.use_bias:
            grads["bias"] = gb
        return gx, grads


class ReluLayer(_Layer):
    kind = "relu"

    def out_shape(self, in_shape):
        return in_shape

    def forward(self, x):
        return ops.relu(x), x

    def backward(self, grad, cache):
        return ops.relu_backward(cache, grad), {}


class _PoolLayer(_Layer):
    def __init__(self, index, options):
        super().__init__(index)
        self.size = int(options.pop("size", 2))
        self.stride = int(options.pop("stride", self.size))
        if self.size < 1 or self.stride < 1:
            raise ValueError(f"{self.describe()}: size and stride must be positive")

    def out_shape(self, in_shape):
        stride = (self.stride, self.stride)
        return _conv_out_shape(self, in_shape, self.size, stride, (0, 0), in_shape[-1])


class MaxPoolLayer(_PoolLayer):
    kind = "maxpool"

    def forward(self, x):
        return ops.max_pool(x, self.size, self.stride), x

    def backward(self, grad, cache):
        return ops.max_pool_backward(cache, grad, self.size, self.stride), {}


class MeanPoolLayer(_PoolLayer):
    kind = "meanpool"

    def forward(self, x):
        return ops.mean_pool(x, self.size, self.stride), x

    def backward(self, grad, cache):
        return ops.mean_pool_backward(cache, grad, self.size, self.stride), {}


class FlattenLayer(_Layer):
    kind = "flatten"

    def out_shape(self, in_shape):
        return (int(np.prod(in_shape)),)

    def forward(self, x):
        return x.reshape(x.shape[0], -1), x.shape

    def backward(self, grad, cache):
        return grad.reshape(cache), {}


class DenseLayer(_Layer):
    kind = "dense"

    def __init__(self, index, options):
        super().__init__(index)
        self.units = _opt(self, options, "units", cast=int)
        self.use_bias = _opt(self, options, "bias", True, cast=bool)
        self.weights = None
        self.bias = None

    def out_shape(self, in_shape):
        if len(in_shape) != 1:
            raise ValueError(
                f"{self.describe()}: expects flattened (F,) input, got {in_shape}; add a flatten layer"
            )
        return (self.units,)

    def init_params(self, in_shape, rng):
        f = in_shape[0]
        self.weights = _glorot(rng, (f, self.units), f, self.units)
        self.bias = np.zeros(self.units) if self.use_bias else None

    def params(self):
        p = {"weights": self.weights}
        if self.bias is not None:
            p["bias"] = self.bias
        return p

    def forward(self, x):
        return ops.dense(x, self.weights, self.bias), x

    def backward(self, grad, cache):
        gx, gw, gb = ops.dense_backward(cache, self.weights, grad, has_bias=self.use_bias)
        grads = {"weights": gw}
        if self.use_bias:
            grads["bias"] = gb
        return gx, grads


_LAYER_CLASSES = {
    "conv": ConvLayer,
    "lpsc": LpscLayer,
    "dilated": DilatedLayer,
    "square_share": SquareShareLayer,
    "relu": ReluLayer,
    "maxpool": MaxPoolLayer,
    "meanpool": MeanPoolLayer,
    "flatten": FlattenLayer,
    "dense": DenseLayer,
}


class Network:
    """Built network: layers with parameters, caches, and optimizer state."""

    def __init__(self, spec: NetSpec, layers, shapes):
        self.spec = spec
        self.layers = layers
        self.shapes = shapes  # per-layer output shapes, input first
        self._caches = None
        self._velocity = None

    def param_count(self) -> int:
        return sum(int(np.prod(a.shape)) for layer in self.layers for a in layer.params().values())

    def forward(self, batch):
        x = np.asarray(batch, dtype=np.float64)
        caches = []
        for layer in self.layers:
            x, cache = layer.forward(x)
            caches.append(cache)
        self._caches = caches
        return x

    def backward(self, grad_logits):
        """Backprop through the cached forward pass.

        Returns (grad_input, per-layer gradient dicts).
        """
        if self._caches is None:
            raise RuntimeError("backward called before forward")
        grad = np.asarray(grad_logits, dtype=np.float64)
        grads = [None] * len(self.layers)
        for i in range(len(self.layers) - 1, -1, -1):
            grad, layer_grads = self.layers[i].backward(grad, self._caches[i])
            grads[i] = layer_grads
        return grad, grads

    def sgd_step(self, grads, cfg: TrainConfig):
        if self._velocity is None:
            self._velocity = [
                {name: np.zeros_like(p) for name, p in layer.params().items()}
                for layer in self.layers
            ]
        for layer, layer_grads, velocity in zip(self.layers, grads, self._velocity):
            params = layer.params()
            for name, g in layer_grads.items():
                sgd_update(params[name], g, velocity[name], cfg)


def sgd_update(param, grad, velocity, cfg: TrainConfig):
    """One momentum-SGD update, in place:

    v <- momentum*v + (grad + weight_decay*param); param <- param - lr*v
    """
    velocity *= cfg.momentum
    velocity += grad + cfg.weight_decay * param
    param -= cfg.learning_rate * velocity


def build_network(spec: NetSpec, seed: int = 0, require_logits: bool = True) -> Network:
    """Instantiate layers, check shape compatibility, initialize parameters.

    ``require_logits=False`` skips the final-shape check, for feature
    stacks used by receptive-field analysis rather than classification.
    """
    rng = np.random.default_rng(seed)
    layers = []
    shapes = [tuple(spec.input_shape)]
    shape = tuple(spec.input_shape)
    for i, layer_spec in enumerate(spec.layers, start=1):
        options = dict(layer_spec.options)
        layer = _LAYER_CLASSES[layer_spec.kind](i, options)
        if options:
            raise ValueError(f"{layer.describe()}: unknown options {sorted(options)}")
        out = layer.out_shape(shape)
        layer.init_params(shape, rng)
        layers.append(layer)
        shapes.append(out)
        shape = out
    if require_logits and shape != (spec.num_classes,):
        raise ValueError(
            f"network output shape {shape} does not produce {spec.num_classes} class logits"
        )
    return Network(spec, layers, shapes)


def train(network: Network, dataset, cfg: TrainConfig, val=None):
    """Fixed-order minibatch SGD.

    Returns [(epoch, mean_loss, accuracy)], with a fourth val-accuracy
    entry per row when a validation dataset is supplied. Raises
    FloatingPointError at the first batch whose loss is not finite,
    before that batch updates any parameter.
    """
    images = np.asarray(dataset.images, dtype=np.float64)
    labels = np.asarray(dataset.labels, dtype=np.int64)
    n = len(images)
    if n == 0:
        raise ValueError("cannot train on an empty dataset")
    history = []
    for epoch in range(1, cfg.epochs + 1):
        total_loss = 0.0
        correct = 0
        for batch, start in enumerate(range(0, n, cfg.batch_size), start=1):
            xb = images[start : start + cfg.batch_size]
            yb = labels[start : start + cfg.batch_size]
            logits = network.forward(xb)
            loss = ops.softmax_cross_entropy(logits, yb)
            if not math.isfinite(loss):
                raise FloatingPointError(f"loss is {loss} at epoch {epoch}, batch {batch}")
            _, grads = network.backward(ops.softmax_cross_entropy_backward(logits, yb))
            network.sgd_step(grads, cfg)
            total_loss += loss * len(xb)
            correct += int((logits.argmax(axis=1) == yb).sum())
        row = (epoch, total_loss / n, correct / n)
        if val is not None:
            _, val_acc = evaluate(network, val)
            row = row + (val_acc,)
        history.append(row)
    return history


def evaluate(network: Network, dataset, batch_size: int = 64):
    """Mean loss and accuracy over a dataset, no parameter updates."""
    images = np.asarray(dataset.images, dtype=np.float64)
    labels = np.asarray(dataset.labels, dtype=np.int64)
    n = len(images)
    if n == 0:
        raise ValueError("cannot evaluate an empty dataset")
    total_loss = 0.0
    correct = 0
    for start in range(0, n, batch_size):
        xb = images[start : start + batch_size]
        yb = labels[start : start + batch_size]
        logits = network.forward(xb)
        total_loss += ops.softmax_cross_entropy(logits, yb) * len(xb)
        correct += int((logits.argmax(axis=1) == yb).sum())
    return total_loss / n, correct / n


# ----------------------------------------------------------------------
# spec files


def _parse_value(raw: str):
    text = raw.strip()
    lowered = text.lower()
    if lowered in ("true", "yes", "on"):
        return True
    if lowered in ("false", "no", "off"):
        return False
    if "," in text:
        return tuple(int(p) for p in text.split(","))
    try:
        return int(text)
    except ValueError:
        pass
    try:
        return float(text)
    except ValueError:
        return text


def parse_net_file(path):
    """Read (NetSpec, TrainConfig | None) from an INI-style spec file."""
    parser = configparser.ConfigParser()
    read = parser.read(path)
    if not read:
        raise ValueError(f"{path}: cannot read network spec")
    if "net" not in parser:
        raise ValueError(f"{path}: missing [net] section")
    net = parser["net"]
    try:
        dims = tuple(int(d) for d in net.get("input", "").split("x"))
    except ValueError:
        raise ValueError(f"{path}: [net] input must look like 16x16x1") from None
    if len(dims) != 3:
        raise ValueError(f"{path}: [net] input must have three dims, got {net.get('input')!r}")
    classes = net.getint("classes", fallback=None)
    if classes is None:
        raise ValueError(f"{path}: [net] classes is required")
    extra = set(net) - {"input", "classes"}
    if extra:
        raise ValueError(f"{path}: unknown [net] keys {sorted(extra)}")

    layer_sections = []
    for section in parser.sections():
        if section.startswith("layer."):
            try:
                idx = int(section.split(".", 1)[1])
            except ValueError:
                raise ValueError(f"{path}: bad layer section name [{section}]") from None
            layer_sections.append((idx, section))
        elif section not in ("net", "train"):
            raise ValueError(f"{path}: unknown section [{section}]")
    layer_sections.sort()
    if not layer_sections:
        raise ValueError(f"{path}: no [layer.N] sections")

    layers = []
    for _, section in layer_sections:
        body = dict(parser[section])
        kind = body.pop("kind", None)
        if kind is None:
            raise ValueError(f"{path}: [{section}] needs a kind")
        options = {key: _parse_value(value) for key, value in body.items()}
        layers.append(LayerSpec(kind=kind, options=options))

    spec = NetSpec(layers=layers, input_shape=dims, num_classes=classes)

    train_cfg = None
    if "train" in parser:
        body = {key: _parse_value(value) for key, value in parser["train"].items()}
        allowed = {"learning_rate", "momentum", "weight_decay", "batch_size", "epochs", "seed"}
        extra = set(body) - allowed
        if extra:
            raise ValueError(f"{path}: unknown [train] keys {sorted(extra)}")
        train_cfg = TrainConfig(**body)
    return spec, train_cfg


# ----------------------------------------------------------------------
# checkpoints


def save_checkpoint(network: Network, directory):
    """Store all parameters under *directory* with a manifest."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    lines = ["NETCKPT v1"]
    for layer in network.layers:
        if layer.kind == "lpsc":
            fname = f"{layer.name}.lpscw"
            save_lpsc_weights(directory / fname, layer.weights)
            lines.append(f"{layer.index} lpsc weights {fname}")
            continue
        for pname, arr in layer.params().items():
            fname = f"{layer.name}.{pname}.tnsr"
            save_tensor(directory / fname, arr)
            lines.append(f"{layer.index} {layer.kind} {pname} {fname}")
    (directory / "manifest.txt").write_text("\n".join(lines) + "\n", encoding="ascii")


def load_checkpoint(network: Network, directory):
    """Restore parameters saved by save_checkpoint into *network*."""
    directory = Path(directory)
    manifest = directory / "manifest.txt"
    if not manifest.exists():
        raise ValueError(f"{manifest}: checkpoint manifest not found")
    lines = manifest.read_text(encoding="ascii").splitlines()
    if not lines or lines[0] != "NETCKPT v1":
        raise ValueError(f"{manifest}: not a NETCKPT v1 manifest")
    by_index = {layer.index: layer for layer in network.layers}
    for line in lines[1:]:
        if not line.strip():
            continue
        try:
            idx_s, kind, pname, fname = line.split()
        except ValueError:
            raise ValueError(f"{manifest}: malformed line {line!r}") from None
        layer = by_index.get(int(idx_s))
        if layer is None or layer.kind != kind:
            raise ValueError(f"{manifest}: no {kind} layer at index {idx_s}")
        if kind == "lpsc":
            loaded = load_lpsc_weights(directory / fname)
            have = layer.weights
            if loaded.regions.shape != have.regions.shape or (loaded.bias is None) != (
                have.bias is None
            ):
                raise ValueError(f"{manifest}: stored shapes do not match layer {idx_s}")
            layer.weights = loaded
        else:
            arr = load_tensor(directory / fname)
            params = layer.params()
            if pname not in params or params[pname].shape != arr.shape:
                raise ValueError(
                    f"{manifest}: stored {pname} does not match layer {idx_s} shape"
                )
            params[pname][...] = arr
