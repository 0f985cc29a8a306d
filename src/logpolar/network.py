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
square_share and, for lpsc, the levels_r * levels_theta pooled slots plus
one for the center when center_conv is set).
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

The layer sections run ``[layer.1]`` ... ``[layer.n]`` with no gap, so that
N names the layer in its errors, cost row and checkpoint files. Any other
section, or a key its section does not know, is an error naming it, as is a
bad value: ``LayerSpec`` alone checks a ``kind``, each config owns its field
types (``conv.as_field``) and ranges, for library callers too, and a range
error or a warning names the spec key as a type error does: every reader
words them through the one context manager ``conv.renamed``. A flag takes
true/false (yes/no, on/off). ``_opt`` reads the integer options no
config owns (conv ``kernel_size``, pool ``size``, ``units``,
``out_channels``), each >= 1; every layer's ``stride`` and ``padding`` goes
through ``conv.as_geometry`` (a pool's ``stride`` is one integer). Only
``build_network`` names the layer (``layer.N (kind): ``). ``[net] classes``
must be >= 2. A file that is not INI (a key or a section given twice, a line
not ``key = value``) is an error naming it.

A layer's ``params()`` alone says which parameters it has, each named once
(an absent bias is left out, as is lpsc's center without ``center_conv``);
its ``backward``, SGD, the cost table and checkpoints follow it. Checkpoints
are a directory with a ``manifest.txt`` (one ``<layer-index> <kind> <param>
<filename>`` line per file): an lpsc layer is one LPSCW file (param
``weights``; a center-free layer's center block is written, not restored),
every other array a TNSR file. The manifest is ASCII text and names only
files in its directory. Loading restores every parameter exactly once, in
place, or raises naming the manifest.
"""

from __future__ import annotations

import configparser
import math
from dataclasses import MISSING, dataclass, field, fields
from itertools import count, takewhile
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
from .conv import (
    _MAX_NUMBERS,
    ConvKernel,
    _hints,
    as_field,
    as_geometry,
    check_fields,
    conv2d_raw,
    conv2d_raw_backward,
    out_extent,
    renamed,
)
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
        if self.kind not in tuple(_LAYER_CLASSES):  # a tuple: an unhashable kind is refused too
            raise ValueError(f"kind must be one of {tuple(_LAYER_CLASSES)}, got {self.kind!r}")
        if not isinstance(self.options, dict):
            raise ValueError(f"options must be a dict, got {self.options!r}")


@dataclass
class NetSpec:
    layers: list
    input_shape: tuple[int, int, int]
    num_classes: int

    def __post_init__(self):
        if not (isinstance(self.layers, (list, tuple))
                and all(isinstance(layer, LayerSpec) for layer in self.layers)):
            raise ValueError(f"layers must be a list of LayerSpec, got {self.layers!r}")
        if not isinstance(self.input_shape, (tuple, list)):  # before it is iterated
            raise ValueError(f"input_shape must be (H, W, C), each >= 1, got {self.input_shape!r}")
        self.input_shape = tuple(as_field(d, int, "input_shape") for d in self.input_shape)
        self.num_classes = as_field(self.num_classes, int, "num_classes")
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
        check_fields(self)
        if not 0 <= self.momentum < 1:
            raise ValueError(f"momentum must lie in [0, 1), got {self.momentum}")
        for key, least in (("learning_rate", 0), ("weight_decay", 0), ("batch_size", 1),
                           ("epochs", 1), ("seed", 0)):
            if getattr(self, key) < least:
                raise ValueError(f"{key} must be >= {least}, got {getattr(self, key)}")


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


def _read(options, key, default, annotation):
    """Pop option *key*, or *default* if it is absent, typed by ``conv.as_field``."""
    value = options.pop(key, default)
    if value is None:
        raise ValueError(f"missing required option {key!r}")
    return as_field(value, annotation, f"option {key!r}")


def _opt(options, key, default=None, annotation=int):
    """``_read`` an option that no config owns: an integer one counts something, so is >= 1."""
    value = _read(options, key, default, annotation)
    if annotation is int and value < 1:
        raise ValueError(f"option {key!r} must be >= 1, got {value!r}")
    return value


def _config(cls, options, **spec_keys):
    """The dataclass *cls* from *options*, each field ``_read`` under its spec key (``spec_keys``,
    else its name) with its default; the config checks ranges."""
    hints = _hints(cls)
    return cls(**{f.name: _read(options, spec_keys.get(f.name, f.name),
                                None if f.default is MISSING else f.default, hints[f.name])
                  for f in fields(cls)})


def _named(**arrays):
    """A layer's arrays by name, leaving out an absent one (a bias, lpsc's center)."""
    return {name: a for name, a in arrays.items() if a is not None}


class _Layer:
    """Shared plumbing: parameter registry and shape bookkeeping.

    Constructors pop the options they read; build_network rejects any
    option left over.
    """

    kind = "?"
    spec_keys = {}  # config field -> spec key, where the two differ

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

    def _grads(self, **grads):
        """The gradients of ``params()``, by name; any other is dropped."""
        return {name: grads[name] for name in self.params()}

    def forward(self, x):
        raise NotImplementedError

    def backward(self, grad, cache):
        raise NotImplementedError


def _out_shape(in_shape, k, stride, padding, channels, dilation=1):
    """(Ho, Wo, channels) of a layer whose k x k taps, *dilation* apart, slide over (H, W, C) input."""
    if len(in_shape) != 3:
        raise ValueError(f"expects (H, W, C) input, got {in_shape}")
    ho, wo = (out_extent(n, k, s, p, dilation) for n, s, p in zip(in_shape, stride, padding))
    return (ho, wo, channels)


class _WindowLayer(_Layer):
    """A window slid over (H, W, C) input, giving ``out_channels`` channels
    and an optional bias. A subclass with a ``config_class`` reads it from
    the rest of its options and slides the config's window."""

    config_class = None

    def __init__(self, index, options):
        super().__init__(index)
        self.out_channels = _opt(options, "out_channels")
        self.use_bias = _opt(options, "bias", True, bool)
        if self.config_class is not None:
            self.config = _config(self.config_class, options, **self.spec_keys)

    def window(self):
        """(kernel size, stride, padding) of the window."""
        return self.config.kernel_size, self.config.stride, self.config.padding

    def cells(self):
        """Window cells gathered per output position and input channel."""
        return self.window()[0] ** 2

    def out_shape(self, in_shape):
        return _out_shape(in_shape, *self.window(), self.out_channels)

    def sample_arrays(self, in_shape, out_shape):
        (h, w, c), (ph, pw) = in_shape, self.window()[2]
        return {"output": out_shape, "padded input": (h + 2 * ph, w + 2 * pw, c),
                "window cells": (*out_shape[:2], self.cells(), c)}


class ConvLayer(_WindowLayer):
    kind = "conv"

    def __init__(self, index, options):
        super().__init__(index, options)
        self.kernel_size = _opt(options, "kernel_size")
        self.stride, self.padding, _ = as_geometry(_read(options, "stride", 1, tuple[int, int]),
                                                   _read(options, "padding", 0, tuple[int, int]))

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
        gx, gw, gb = conv2d_raw_backward(cache, self.weights, grad, self.stride, self.padding)
        return gx, self._grads(kernel=gw, bias=gb)


class LpscLayer(_WindowLayer):
    kind = "lpsc"
    config_class = LpscConfig
    spec_keys = {"kernel_size": "size", "pooling_mode": "pooling"}

    def cells(self):
        """The pooled slots: one per region, plus the center when ``center_conv`` is set."""
        return self.config.levels_r * self.config.levels_theta + self.config.center_conv

    def init_params(self, in_shape, rng):
        cfg, c, out = self.config, in_shape[2], self.out_channels
        cells = cfg.levels_r * cfg.levels_theta + 1  # Glorot cells: the regions and the center
        center, _ = _init(rng, (c,), out, False, cells)
        regions, bias = _init(rng, (cfg.levels_r, cfg.levels_theta, c), out, self.use_bias, cells)
        self.weights = LpscWeights(center=center, regions=regions, bias=bias)

    def params(self):
        center = self.weights.center if self.config.center_conv else None
        return _named(center=center, regions=self.weights.regions, bias=self.weights.bias)

    def forward(self, x):
        out, pooled = lpsc_forward_fast(x, self.config, self.weights, return_pooled=True)
        return out, (x, pooled)

    def backward(self, grad, cache):
        x, pooled = cache
        gx, gw = lpsc_backward(x, self.config, self.weights, grad, pooled=pooled)
        return gx, self._grads(**vars(gw))


class DilatedLayer(_WindowLayer):
    kind = "dilated"
    config_class = DilatedConfig

    def out_shape(self, in_shape):
        return _out_shape(in_shape, *self.window(), self.out_channels, self.config.dilation)

    def init_params(self, in_shape, rng):
        k = self.config.kernel_size
        self.kernel = ConvKernel(*_init(rng, (k, k, in_shape[2]), self.out_channels, self.use_bias))

    def params(self):
        return _named(kernel=self.kernel.weights, bias=self.kernel.bias)

    def forward(self, x):
        return dilated_conv2d(x, self.kernel.weights, self.config, bias=self.kernel.bias), x

    def backward(self, grad, cache):
        gx, gw, gb = dilated_conv2d_backward(cache, self.kernel.weights, self.config, grad)
        return gx, self._grads(kernel=gw, bias=gb)


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
        gx, gw, gb = square_share_conv2d_backward(cache, self.regions, self.config, grad)
        return gx, self._grads(regions=gw, bias=gb)


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
        self.size = _opt(options, "size", 2)
        self.stride = as_geometry(_read(options, "stride", self.size, int), 0)[0]  # an int key

    def out_shape(self, in_shape):
        return _out_shape(in_shape, self.size, self.stride, (0, 0), in_shape[-1])


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
        self.units = _opt(options, "units")
        self.use_bias = _opt(options, "bias", True, bool)

    def out_shape(self, in_shape):
        if len(in_shape) != 1:
            raise ValueError(f"expects flattened (F,) input, got {in_shape}; add a flatten layer")
        return (self.units,)

    def init_params(self, in_shape, rng):
        self.weights, self.bias = _init(rng, in_shape, self.units, self.use_bias)

    def params(self):
        return _named(weights=self.weights, bias=self.bias)

    def forward(self, x):
        return ops.dense(x, self.weights, self.bias), x

    def backward(self, grad, cache):
        gx, gw, gb = ops.dense_backward(cache, self.weights, grad)
        return gx, self._grads(weights=gw, bias=gb)


_LAYER_CLASSES = {cls.kind: cls for cls in (
    ConvLayer, LpscLayer, DilatedLayer, SquareShareLayer, ReluLayer,
    MaxPoolLayer, MeanPoolLayer, FlattenLayer, DenseLayer,
)}


class Network:
    """Built network: layers with parameters, caches, and optimizer state."""

    def __init__(self, layers, shapes):
        self.layers = layers
        self.shapes = shapes  # per-layer output shapes, input first
        self._caches = None
        self._velocity = None

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
            for name, param in layer.params().items():
                sgd_update(param, layer_grads[name], velocity[name], cfg)


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
        options, cls = dict(layer_spec.options), _LAYER_CLASSES[layer_spec.kind]
        # the one place that names the layer, and its spec keys
        with renamed(cls.spec_keys, f"layer.{i} ({layer_spec.kind}): "):
            layer = cls(i, options)
            if options:
                raise ValueError(f"unknown options {sorted(options)}")
            shapes.append(layer.out_shape(shapes[-1]))
            for what, shape in layer.sample_arrays(*shapes[-2:]).items():
                _per_sample(what, shape)
        layers.append(layer)
    if require_logits and shapes[-1] != (spec.num_classes,):
        raise ValueError(
            f"network output shape {shapes[-1]} does not produce {spec.num_classes} class logits"
        )
    rng = np.random.default_rng(seed)
    for layer, shape in zip(layers, shapes):
        with renamed({}, f"{layer.describe()}: "):
            layer.init_params(shape, rng)
    return Network(layers, shapes)


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
    net_options = {key: _parse_value(value) for key, value in net.items() if key != "input"}

    layer_sections = list(takewhile(parser.has_section, map("layer.{}".format, count(1))))
    expected = f"[layer.{len(layer_sections) + 1}]"
    for section in parser.sections():  # in file order
        if section not in ("net", "train", *layer_sections):
            raise ValueError(f"{path}: unknown section [{section}]; "
                             f"the next layer section is {expected}")
    if not layer_sections:
        raise ValueError(f"{path}: no {expected} section")

    layers = []
    for section in layer_sections:
        options = {key: _parse_value(value) for key, value in parser[section].items()}
        with renamed({}, f"{path}: [{section}]: "):
            layers.append(LayerSpec(options.pop("kind", None), options))

    with renamed({"num_classes": "classes"}, f"{path}: [net]: "):
        spec = NetSpec(layers=layers, input_shape=dims,
                       num_classes=_read(net_options, "classes", None, int))

    train_cfg = None
    if "train" in parser:
        body = {key: _parse_value(value) for key, value in parser["train"].items()}
        with renamed({}, f"{path}: [train]: "):
            train_cfg = _config(TrainConfig, body)
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
            if not layer.config.center_conv:  # the file's center block is written, not restored
                del arrays["center"]
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
