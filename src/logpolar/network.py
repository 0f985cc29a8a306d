"""Desk-scale networks: declarative specs, manual backprop, SGD training.

Layer kinds: conv, lpsc, dilated, square_share, relu, maxpool, meanpool,
flatten, dense. A weight array that maps c input channels to out output
channels over a window of `cells` weights per channel pair initializes
uniformly in +-sqrt(6 / (cells * (c + out))), which is
+-sqrt(6 / (fan_in + fan_out)); the log-polar layer counts its cells as
levels_r * levels_theta + 1 since every weight serves a whole region. No
parameter array may hold more than 2**26 numbers, and neither may any
array one sample makes the forward pass allocate: the input, each layer's
output and, for the window layers, the zero-padded input and the gathered
window cells (``Ho*Wo*cells*C_in``, with k*k cells for conv, dilated and
square_share and the levels_r * levels_theta + 1 pooled slots for lpsc).
build_network checks them all from the shapes before it draws any
weight. Biases start at zero. Initialization draws happen in layer order
with a single generator, so a seed pins the whole parameter trajectory.

The optimizer is SGD with momentum and weight decay:

    v <- momentum * v + (grad + weight_decay * param)
    param <- param - learning_rate * v

Training and evaluation run one loop over minibatches in fixed sample
order (no shuffling), which makes runs bit-reproducible given (spec,
seed, data); a non-finite loss raises FloatingPointError naming the batch.

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

The window layers (conv, lpsc, dilated, square_share) take
``out_channels`` and ``bias``; conv also ``kernel_size``, ``stride`` and
``padding``. Every other key of lpsc, dilated and square_share, and every
key of ``[train]``, is a field of the layer's configuration
(``LpscConfig``, ``DilatedConfig``, ``SquareShareConfig``,
``TrainConfig``), with that field's default; lpsc names ``kernel_size``
``size`` and ``pooling_mode`` ``pooling``. A dilated kernel's size is odd.
The pools take ``size`` and ``stride``, dense ``units`` and ``bias``.

A key that its section does not know is an error, naming the section
and the key; so is a value of the wrong type: integer options take
integers only, ``growth``/``alpha``/``eccentricity`` numbers, ``pooling``
a word, ``stride``/``padding`` an integer or a pair, and a flag (``bias``,
``center_conv``) true/false (yes/no, on/off). A layer's integers count
something and must be >= 1 (``padding`` >= 0), and its numbers must be
finite. In ``[net]`` and ``[train]``, ``classes`` (>= 2), ``batch_size``
and ``epochs`` (>= 1) and ``seed`` (>= 0) take integers, and the rates
finite numbers >= 0. A file that is not INI (a key or a section given
twice, a line that is not ``key = value``) is an error naming the file.

A layer's ``params()`` names each of its arrays once (an absent bias is
left out); its ``backward`` returns the gradients under the same names.
Checkpoints are a directory with a ``manifest.txt`` (one ``<layer-index>
<kind> <param> <filename>`` line per file): an lpsc layer is one LPSCW
file (param ``weights``), every other array a TNSR file. The manifest is
ASCII text and names only files in its directory. Loading restores every
parameter exactly once, in place, or raises naming the manifest.
"""

from __future__ import annotations

import configparser
import math
import typing
from dataclasses import MISSING, dataclass, field, fields
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

@dataclass
class LayerSpec:
    kind: str
    options: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.kind not in _LAYER_CLASSES:
            raise ValueError(f"unknown layer kind {self.kind!r}")


@dataclass
class NetSpec:
    layers: list
    input_shape: tuple[int, int, int]
    num_classes: int

    def __post_init__(self):
        self.input_shape = tuple(int(d) for d in self.input_shape)
        if len(self.input_shape) != 3 or min(self.input_shape) < 1:
            raise ValueError(f"input_shape must be (H, W, C), each >= 1, got {self.input_shape}")
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
        for key in ("learning_rate", "weight_decay"):
            if not 0 <= getattr(self, key) < math.inf:
                raise ValueError(f"{key} must be finite and >= 0, got {getattr(self, key)}")
        if not 0 <= self.momentum < 1:
            raise ValueError(f"momentum must lie in [0, 1), got {self.momentum}")
        for key, least in (("batch_size", 1), ("epochs", 1), ("seed", 0)):
            if getattr(self, key) < least:
                raise ValueError(f"{key} must be >= {least}, got {getattr(self, key)}")


_MAX_NUMBERS = 2**26  # per parameter array, and per array of one sample in a forward pass


def _per_sample(what, shape):
    """Refuse a per-sample array of *shape* past the bound; *what* starts the message."""
    size = math.prod(shape)
    if size > _MAX_NUMBERS:
        raise ValueError(f"{what} {'x'.join(map(str, shape))} holds {size} numbers per sample, "
                         f"more than {_MAX_NUMBERS}")


def parse_dims(text, what):
    """(H, W, C) from *text* in the form HxWxC, each >= 1 and within the
    per-sample bound; *what* (the file's key or the flag) starts a message."""
    try:
        dims = tuple(int(d) for d in text.split("x"))
    except ValueError:
        raise ValueError(f"{what} must look like 16x16x1, got {text!r}") from None
    if len(dims) != 3 or min(dims) < 1:
        raise ValueError(f"{what} must be three dims >= 1, got {text!r}")
    _per_sample(what, dims)
    return dims


def _init(rng, shape, out, use_bias, cells=None):
    """(weights, bias) of a layer mapping ``shape[-1]`` input channels to *out*.

    The weights, of shape ``(*shape, out)``, are Glorot-uniform in
    +-sqrt(6 / (cells * (c + out))); *cells*, the weights per channel pair,
    defaults to the product of the leading dims. The bias is zero, or None
    without one.
    """
    size = math.prod(shape) * out
    if size > _MAX_NUMBERS:
        raise ValueError(f"weights of shape {(*shape, out)} hold {size} numbers, "
                         f"more than {_MAX_NUMBERS}")
    cells = math.prod(shape[:-1]) if cells is None else cells
    limit = math.sqrt(6.0 / (cells * (shape[-1] + out)))
    return rng.uniform(-limit, limit, size=(*shape, out)), (np.zeros(out) if use_bias else None)


def _where(layer):
    """A layer's own description, or a spec section named as text."""
    return layer if isinstance(layer, str) else layer.describe()


_INTS = (int, np.integer)
_OPTION_TYPES = {  # cast -> (what the value must be, the types it may have)
    int: ("an integer", _INTS),
    float: ("a number", (*_INTS, float, np.floating)),
    str: ("a string", str),
    bool: ("true or false", bool),
    as_pair: ("an integer or a pair of integers", _INTS),
}
_CASTS = {int: int, float: float, str: str, bool: bool, tuple[int, int]: as_pair}


def _opt(layer, options, key, default=None, cast=int):
    """Pop option *key* of *layer* (or of a spec section, named as text) and
    convert it with *cast*; a value of another type is an error. A layer's
    integers count something, so must be >= 1 (padding >= 0), and its
    numbers must be finite; NetSpec and TrainConfig bound the sections'."""
    where = _where(layer)
    value = options.pop(key, default)
    if value is None:
        raise ValueError(f"{where}: missing required option {key!r}")
    what, types = _OPTION_TYPES[cast]
    pair = cast is as_pair and isinstance(value, (tuple, list)) and len(value) == 2
    parts = value if pair else (value,)
    # bool is an int subclass: only a flag may be one
    if not all(isinstance(v, types) and isinstance(v, bool) == (cast is bool) for v in parts):
        raise ValueError(f"{where}: option {key!r} must be {what}, got {value!r}")
    if not isinstance(layer, str):
        least = 0 if key == "padding" else 1
        if cast in (int, as_pair) and min(parts) < least:
            raise ValueError(f"{where}: option {key!r} must be >= {least}, got {value!r}")
        if cast is float and not math.isfinite(value):
            raise ValueError(f"{where}: option {key!r} must be finite, got {value!r}")
    return cast(value)


def _config(layer, cls, options, **spec_keys):
    """The dataclass *cls* read from *options*: every field is popped through
    ``_opt`` under its spec key (``spec_keys[field]``, else the field's name),
    with the field's default, cast by the field's annotation. A ValueError
    names *layer*."""
    hints = typing.get_type_hints(cls)
    values = {
        f.name: _opt(layer, options, spec_keys.get(f.name, f.name),
                     None if f.default is MISSING else f.default, _CASTS[hints[f.name]])
        for f in fields(cls)
    }
    try:
        return cls(**values)
    except ValueError as exc:
        raise ValueError(f"{_where(layer)}: {exc}") from None


def _named(**arrays):
    """A layer's arrays (or their gradients) by name, leaving out an absent bias."""
    return {name: a for name, a in arrays.items() if a is not None}


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

    def sample_arrays(self, in_shape, out_shape):
        """Shapes of the arrays one sample makes the forward pass allocate, by name."""
        return {"output": out_shape}

    def init_params(self, in_shape, rng):  # pragma: no cover - param-free layers
        pass

    def params(self) -> dict:
        return {}

    def forward(self, x):
        raise NotImplementedError

    def backward(self, grad, cache):
        raise NotImplementedError


def _out_shape(layer, in_shape, extent, stride, padding, channels):
    """(Ho, Wo, channels) of a layer whose window spans *extent* cells of (H, W, C) input."""
    if len(in_shape) != 3:
        raise ValueError(f"{layer.describe()}: expects (H, W, C) input, got {in_shape}")
    try:
        ho, wo = (out_extent(n, extent, s, p) for n, s, p in zip(in_shape, stride, padding))
    except ValueError as exc:
        raise ValueError(f"{layer.describe()}: {exc}") from None
    return (ho, wo, channels)


class _WindowLayer(_Layer):
    """A window slid over (H, W, C) input, giving ``out_channels`` channels
    and an optional bias. A subclass with a ``config_class`` reads it from
    the rest of its options and slides the config's window."""

    config_class = None
    spec_keys = {}  # config field -> spec key, where the two differ

    def __init__(self, index, options):
        super().__init__(index)
        self.out_channels = _opt(self, options, "out_channels")
        self.use_bias = _opt(self, options, "bias", True, cast=bool)
        if self.config_class is not None:
            self.config = _config(self, self.config_class, options, **self.spec_keys)

    def window(self):
        """(extent, stride, padding) of the window."""
        return self.config.kernel_size, self.config.stride, self.config.padding

    def cells(self):
        """Window cells gathered per output position and input channel."""
        return self.window()[0] ** 2

    def out_shape(self, in_shape):
        return _out_shape(self, in_shape, *self.window(), self.out_channels)

    def sample_arrays(self, in_shape, out_shape):
        (h, w, c), (ph, pw) = in_shape, self.window()[2]
        return {"output": out_shape, "padded input": (h + 2 * ph, w + 2 * pw, c),
                "window cells": (*out_shape[:2], self.cells(), c)}


class ConvLayer(_WindowLayer):
    kind = "conv"

    def __init__(self, index, options):
        super().__init__(index, options)
        self.kernel_size = _opt(self, options, "kernel_size")
        self.stride = _opt(self, options, "stride", 1, cast=as_pair)
        self.padding = _opt(self, options, "padding", 0, cast=as_pair)

    def window(self):
        return self.kernel_size, self.stride, self.padding

    def init_params(self, in_shape, rng):
        k = self.kernel_size
        self.weights, self.bias = _init(rng, (k, k, in_shape[2]), self.out_channels, self.use_bias)

    def params(self):
        return _named(kernel=self.weights, bias=self.bias)

    def forward(self, x):
        out = conv2d_raw(x, self.weights, self.stride, self.padding, bias=self.bias)
        return out, x

    def backward(self, grad, cache):
        gx, gw, gb = conv2d_raw_backward(
            cache, self.weights, grad, self.stride, self.padding, has_bias=self.use_bias
        )
        return gx, _named(kernel=gw, bias=gb)


class LpscLayer(_WindowLayer):
    kind = "lpsc"
    config_class = LpscConfig
    spec_keys = {"kernel_size": "size", "pooling_mode": "pooling"}

    def cells(self):
        return self.config.weights_per_pair  # the pooled slots

    def init_params(self, in_shape, rng):
        cfg, c, out = self.config, in_shape[2], self.out_channels
        cells = cfg.weights_per_pair  # every weight serves a whole region
        center, _ = _init(rng, (c,), out, False, cells)
        regions, bias = _init(rng, (cfg.levels_r, cfg.levels_theta, c), out, self.use_bias, cells)
        self.weights = LpscWeights(center=center, regions=regions, bias=bias)

    def params(self):
        return _named(**vars(self.weights))

    def forward(self, x):
        out, pooled = lpsc_forward_fast(x, self.config, self.weights, return_pooled=True)
        return out, (x, pooled)

    def backward(self, grad, cache):
        x, pooled = cache
        gx, gw = lpsc_backward(x, self.config, self.weights, grad, pooled=pooled)
        return gx, _named(**vars(gw))


class DilatedLayer(_WindowLayer):
    kind = "dilated"
    config_class = DilatedConfig

    def window(self):
        return self.config.effective_extent, self.config.stride, self.config.padding

    def cells(self):
        return self.config.kernel_size ** 2

    def init_params(self, in_shape, rng):
        k = self.config.kernel_size
        self.kernel = ConvKernel(*_init(rng, (k, k, in_shape[2]), self.out_channels, self.use_bias))

    def params(self):
        return _named(kernel=self.kernel.weights, bias=self.kernel.bias)

    def forward(self, x):
        return dilated_conv2d(x, self.kernel, self.config), x

    def backward(self, grad, cache):
        gx, gk = dilated_conv2d_backward(cache, self.kernel, self.config, grad)
        return gx, _named(kernel=gk.weights, bias=gk.bias)


class SquareShareLayer(_WindowLayer):
    kind = "square_share"
    config_class = SquareShareConfig

    def init_params(self, in_shape, rng):
        side = self.config.regions_per_side
        self.regions, self.bias = _init(
            rng, (side, side, in_shape[2]), self.out_channels, self.use_bias
        )

    def params(self):
        return _named(regions=self.regions, bias=self.bias)

    def forward(self, x):
        return square_share_conv2d(x, self.regions, self.config, bias=self.bias), x

    def backward(self, grad, cache):
        gx, gw, gb = square_share_conv2d_backward(
            cache, self.regions, self.config, grad, has_bias=self.use_bias
        )
        return gx, _named(regions=gw, bias=gb)


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
        self.size = _opt(self, options, "size", 2)
        self.stride = _opt(self, options, "stride", self.size)

    def out_shape(self, in_shape):
        return _out_shape(self, in_shape, self.size, (self.stride,) * 2, (0, 0), in_shape[-1])


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
        return (math.prod(in_shape),)

    def forward(self, x):
        return x.reshape(x.shape[0], -1), x.shape

    def backward(self, grad, cache):
        return grad.reshape(cache), {}


class DenseLayer(_Layer):
    kind = "dense"

    def __init__(self, index, options):
        super().__init__(index)
        self.units = _opt(self, options, "units")
        self.use_bias = _opt(self, options, "bias", True, cast=bool)

    def out_shape(self, in_shape):
        if len(in_shape) != 1:
            raise ValueError(
                f"{self.describe()}: expects flattened (F,) input, got {in_shape}; add a flatten layer"
            )
        return (self.units,)

    def init_params(self, in_shape, rng):
        self.weights, self.bias = _init(rng, in_shape, self.units, self.use_bias)

    def params(self):
        return _named(weights=self.weights, bias=self.bias)

    def forward(self, x):
        return ops.dense(x, self.weights, self.bias), x

    def backward(self, grad, cache):
        gx, gw, gb = ops.dense_backward(cache, self.weights, grad, has_bias=self.use_bias)
        return gx, _named(weights=gw, bias=gb)


_LAYER_CLASSES = {cls.kind: cls for cls in (
    ConvLayer, LpscLayer, DilatedLayer, SquareShareLayer, ReluLayer,
    MaxPoolLayer, MeanPoolLayer, FlattenLayer, DenseLayer,
)}


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
    """Instantiate layers, check shape compatibility and the size bounds,
    then initialize parameters.

    ``require_logits=False`` skips the final-shape check, for feature
    stacks used by receptive-field analysis rather than classification.
    """
    layers = []
    shapes = [tuple(spec.input_shape)]
    _per_sample("input", shapes[0])
    for i, layer_spec in enumerate(spec.layers, start=1):
        options = dict(layer_spec.options)
        layer = _LAYER_CLASSES[layer_spec.kind](i, options)
        if options:
            raise ValueError(f"{layer.describe()}: unknown options {sorted(options)}")
        shapes.append(layer.out_shape(shapes[-1]))
        for what, shape in layer.sample_arrays(*shapes[-2:]).items():
            _per_sample(f"{layer.describe()}: {what}", shape)
        layers.append(layer)
    if require_logits and shapes[-1] != (spec.num_classes,):
        raise ValueError(
            f"network output shape {shapes[-1]} does not produce {spec.num_classes} class logits"
        )
    rng = np.random.default_rng(seed)
    for layer, shape in zip(layers, shapes):
        try:
            layer.init_params(shape, rng)
        except ValueError as exc:
            raise ValueError(f"{layer.describe()}: {exc}") from None
    return Network(spec, layers, shapes)


_EVAL_BATCH = 64


def _pass(network: Network, dataset, batch_size, cfg=None, where=""):
    """Mean loss and accuracy over fixed-order minibatches of *dataset*, with
    an SGD step per batch given *cfg*. A non-finite loss raises
    FloatingPointError, naming the batch after *where*, before its update."""
    images = np.asarray(dataset.images, dtype=np.float64)
    labels = np.asarray(dataset.labels, dtype=np.int64)
    n = len(images)
    if n == 0:
        raise ValueError("cannot use an empty dataset")
    total_loss = 0.0
    correct = 0
    for batch, start in enumerate(range(0, n, batch_size), start=1):
        xb = images[start : start + batch_size]
        yb = labels[start : start + batch_size]
        logits = network.forward(xb)
        loss = ops.softmax_cross_entropy(logits, yb)
        if not math.isfinite(loss):
            raise FloatingPointError(f"loss is {loss} at {where}batch {batch}")
        if cfg is not None:
            _, grads = network.backward(ops.softmax_cross_entropy_backward(logits, yb))
            network.sgd_step(grads, cfg)
        total_loss += loss * len(xb)
        correct += int((logits.argmax(axis=1) == yb).sum())
    return total_loss / n, correct / n


def train(network: Network, dataset, cfg: TrainConfig, val=None):
    """Fixed-order minibatch SGD, one ``_pass`` per epoch: [(epoch, mean_loss,
    accuracy)], with a fourth val-accuracy entry per row given *val*."""
    history = []
    for epoch in range(1, cfg.epochs + 1):
        row = (epoch, *_pass(network, dataset, cfg.batch_size, cfg, f"epoch {epoch}, "))
        if val is not None:
            row += (_pass(network, val, _EVAL_BATCH, where=f"epoch {epoch}, validation ")[1],)
        history.append(row)
    return history


def evaluate(network: Network, dataset, batch_size: int = _EVAL_BATCH):
    """Mean loss and accuracy over a dataset, no parameter updates."""
    return _pass(network, dataset, batch_size)


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
        try:
            return tuple(int(p) for p in text.split(","))
        except ValueError:
            return text  # the layer that reads it names the key
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
    parser = configparser.ConfigParser(interpolation=None)
    try:
        read = parser.read(path)
    except configparser.Error as exc:
        raise ValueError(f"{path}: malformed spec: {' '.join(str(exc).split())}") from None
    if not read:
        raise ValueError(f"{path}: cannot read network spec")
    if "net" not in parser:
        raise ValueError(f"{path}: missing [net] section")
    net = parser["net"]
    dims = parse_dims(net.get("input", ""), f"{path}: [net] input")
    extra = set(net) - {"input", "classes"}
    if extra:
        raise ValueError(f"{path}: unknown [net] keys {sorted(extra)}")
    options = {key: _parse_value(value) for key, value in net.items() if key != "input"}
    classes = _opt(f"{path}: [net]", options, "classes")
    if classes < 2:
        raise ValueError(f"{path}: [net]: classes must be >= 2, got {classes}")

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
        if kind not in _LAYER_CLASSES:
            raise ValueError(f"{path}: [{section}] unknown layer kind {kind!r}")
        options = {key: _parse_value(value) for key, value in body.items()}
        layers.append(LayerSpec(kind=kind, options=options))

    spec = NetSpec(layers=layers, input_shape=dims, num_classes=classes)

    train_cfg = None
    if "train" in parser:
        body = {key: _parse_value(value) for key, value in parser["train"].items()}
        train_cfg = _config(f"{path}: [train]", TrainConfig, body)
        if body:
            raise ValueError(f"{path}: unknown [train] keys {sorted(body)}")
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
    """Restore parameters saved by save_checkpoint into *network*, in place.

    Every parameter must be stored exactly once; otherwise ValueError names
    the manifest and *network* is left unchanged.
    """
    directory = Path(directory)
    manifest = directory / "manifest.txt"
    if not manifest.exists():
        raise ValueError(f"{manifest}: checkpoint manifest not found")
    try:
        lines = manifest.read_bytes().decode("ascii").splitlines()
    except UnicodeDecodeError:
        raise ValueError(f"{manifest}: not ASCII text") from None
    if not lines or lines[0] != "NETCKPT v1":
        raise ValueError(f"{manifest}: not a NETCKPT v1 manifest")
    files = {path.name for path in directory.iterdir() if path.is_file()}
    by_index = {str(layer.index): layer for layer in network.layers}
    wanted = {f"{layer.name}.{name}": param for layer in network.layers
              for name, param in layer.params().items()}
    stored = {}
    for line in lines[1:]:
        if not line.strip():
            continue
        try:
            idx_s, kind, pname, fname = line.split()
        except ValueError:
            raise ValueError(f"{manifest}: malformed line {line!r}") from None
        layer = by_index.get(idx_s)
        if layer is None or layer.kind != kind:
            raise ValueError(f"{manifest}: no {kind} layer at index {idx_s}")
        if fname not in files:
            raise ValueError(f"{manifest}: no file {fname!r} in the checkpoint")
        if kind == "lpsc":
            if pname != "weights":
                raise ValueError(f"{manifest}: lpsc line names {pname!r}, expected 'weights'")
            arrays = _named(**vars(load_lpsc_weights(directory / fname)))
        else:
            arrays = {pname: load_tensor(directory / fname)}
        for name, arr in arrays.items():
            key = f"{layer.name}.{name}"
            if key in stored:
                raise ValueError(f"{manifest}: {key} is restored twice")
            if key not in wanted or wanted[key].shape != arr.shape:
                raise ValueError(f"{manifest}: stored {name} does not match {layer.describe()}")
            stored[key] = arr
    missing = [key for key in wanted if key not in stored]
    if missing:
        raise ValueError(f"{manifest}: no stored value for {', '.join(missing)}")
    for key, arr in stored.items():
        wanted[key][...] = arr
