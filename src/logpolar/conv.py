"""Conventional 2-D convolution and its exact adjoints.

Every operator of the package takes channels-last ``(N, H, W, C)``
batches, and only those: ``as_batch`` refuses any other rank. Kernels
are rank-4 ``(kh, kw, C_in, C_out)``. ``windows`` is the one window
primitive of the package: a single strided view
``(N, Ho, Wo, kh, kw, C)`` of every window of a padded batch. The
convolution reads that view one tap at a time, as the ``ops`` pools and
the ``lpsc`` cells do: tap ``[:, :, :, a, b]`` times the kernel slice
``w[a, b]`` is one GEMM (the kn2row formulation), so the view is never
copied into an im2col matrix. A 1x1 kernel at unit stride
(``_pointwise``) has one window per padded pixel, so in both directions
it is three GEMMs on the (C, N*H*W) matrix ``P = rows(xp).T``, where
``rows(x)`` is ``x.reshape(N*H*W, C)``: ``(K.T @ P).T`` forward,
``P @ g`` for the weight gradient and ``K @ g.T`` for the input
gradient; the output and the input gradient come back as (C, N*H*W)
memory. Any other kernel takes each tap's weight gradient and input
gradient as one GEMM each, the latter gathered by ``windows_backward``,
which takes ``windows``' geometry plus the input's shape and padding.
The output gradient g is read as C-order rows for every kernel, so the
gradients do not depend on its memory order.
``dilation`` spaces the kernel taps (used by the dilated-convolution
baseline); padding is always zero-padding. ``as_field`` is the one type
check of a config field or a spec option; ``as_geometry`` the one range
check of stride, padding and dilation: every operator, config and layer
with a window reads them through it. A config's error or warning starts
with its field's name; ``renamed``, the one context manager every reader
words them through, swaps it for the user's. ``out_extent`` alone holds
the extent rule.

All operations are pure functions of their arguments and never mutate
inputs; each output element sums the taps in row-major (a, b) order, one
GEMM per tap; a GEMM's rounding may change with the BLAS thread count.
"""

from __future__ import annotations

import contextlib
import typing
import warnings
from dataclasses import dataclass, fields
from functools import lru_cache

import numpy as np

__all__ = [
    "ConvKernel",
    "conv2d_raw",
    "conv2d_raw_backward",
    "as_batch",
    "as_field",
    "as_geometry",
    "as_pair",
    "check_fields",
    "out_extent",
    "pad",
    "renamed",
    "unpad",
    "windows",
    "windows_backward",
]


_FIELD_TYPES = {  # annotation -> (what a value must be, the types it may have)
    int: ("an integer", (int, np.integer)),
    float: ("a number", (int, float, np.integer, np.floating)),
    bool: ("true or false", bool),
    str: ("a string", str),
}
_PAIR = tuple[int, int]
_MAX_NUMBERS = 2**26  # per parameter array, per array of one sample in a forward pass, per mask
_hints = lru_cache(maxsize=None)(typing.get_type_hints)  # of a class: resolved once, read only


def as_field(value, annotation, name="value"):
    """*value* as a field of type *annotation*, or a ValueError naming *name*: an
    int, a finite real (stored as float), a bool, a str, or an int pair (``as_pair``)."""
    if annotation == _PAIR:
        return as_pair(value, name)
    what, types = _FIELD_TYPES[annotation]
    # bool is an int subclass: only a bool field takes one
    if not isinstance(value, types) or isinstance(value, bool) != (annotation is bool):
        raise ValueError(f"{name} must be {what}, got {value!r}")
    if annotation is float and not abs(value) <= np.finfo(float).max.item():
        raise ValueError(f"{name} must be finite, got {value!r}")  # inf, nan, or past any float
    return annotation(value)


@contextlib.contextmanager
def renamed(names, prefix=""):
    """Word the block's ValueError and warnings in the user's terms: *prefix*
    plus the message, its leading field name replaced by ``names[field]``.
    The error is re-raised from None; each warning is re-issued from where it
    was issued, unless the block raises."""

    def reword(message):
        field, _, rest = str(message).partition(" ")
        return prefix + (f"{names[field]} {rest}" if field in names else str(message))

    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            yield
        except ValueError as exc:
            raise ValueError(reword(exc)) from None
    for w in caught:
        warnings.warn_explicit(reword(w.message), w.category, w.filename, w.lineno)


def check_fields(config) -> None:
    """Set each field of the dataclass *config* to its ``as_field`` value; a wrong type raises."""
    types = _hints(type(config))
    for f in fields(config):
        object.__setattr__(config, f.name, as_field(getattr(config, f.name), types[f.name], f.name))


def as_pair(value, name="value") -> tuple[int, int]:
    """An int, or a tuple or list of two, as an (int, int) pair; ints as ``as_field`` takes them."""
    pair = value if isinstance(value, (tuple, list)) and len(value) == 2 else (value, value)
    if not all(isinstance(v, _FIELD_TYPES[int][1]) and not isinstance(v, bool) for v in pair):
        raise ValueError(f"{name} must be an integer or a pair of integers, got {value!r}")
    return (int(pair[0]), int(pair[1]))


def as_geometry(stride, padding, dilation=1):
    """(stride, padding, dilation) as int pairs; a stride or dilation below 1,
    or a negative padding, raises."""
    stride = as_pair(stride, "stride")
    padding = as_pair(padding, "padding")
    dilation = as_pair(dilation, "dilation")
    if min(stride) < 1:
        raise ValueError(f"stride must be positive, got {stride}")
    if min(padding) < 0:
        raise ValueError(f"padding must be non-negative, got {padding}")
    if min(dilation) < 1:
        raise ValueError(f"dilation must be >= 1, got {dilation}")
    return stride, padding, dilation


def as_batch(x) -> np.ndarray:
    """*x* as a float64 (N, H, W, C) batch; any other rank raises."""
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 4:
        raise ValueError(f"expected a rank-4 (N, H, W, C) batch, got rank {x.ndim}")
    return x


@dataclass
class ConvKernel:
    """Dilated-layer weights (kh, kw, C_in, C_out) plus optional bias."""

    weights: np.ndarray
    bias: np.ndarray | None = None


def out_extent(size, k, stride, pad, dilation=1) -> int:
    """Output positions along one axis for a window of *k* taps *dilation* apart."""
    extent, padded = (k - 1) * dilation + 1, size + 2 * pad
    if padded < extent:
        raise ValueError(f"kernel extent {extent} larger than padded input extent {padded}")
    return (padded - extent) // stride + 1


def pad(x, padding):
    """(N, H, W, C) *x* zero-padded by (ph, pw) on both sides; *x* itself if both are 0."""
    ph, pw = padding
    if ph == 0 and pw == 0:
        return x
    return np.pad(x, ((0, 0), (ph, ph), (pw, pw), (0, 0)))


def unpad(xp, padding):
    """The view of *xp* that ``pad(x, padding)`` filled from *x*."""
    ph, pw = padding
    return xp[:, ph : xp.shape[1] - ph, pw : xp.shape[2] - pw]


def windows(xp, size, stride, dilation=(1, 1)):
    """Every window of the padded batch *xp* as one read-only (N, Ho, Wo, kh, kw, C) view.

    Element [n, i, j, a, b, c] is xp[n, i*sh + a*dh, j*sw + b*dw, c]; no
    data is copied. ``windows_backward`` is its adjoint."""
    (kh, kw), (sh, sw), (dh, dw) = size, stride, dilation
    n, h, w, c = xp.shape
    ho, wo = out_extent(h, kh, sh, 0, dh), out_extent(w, kw, sw, 0, dw)
    s_n, s_h, s_w, s_c = xp.strides
    strides = (s_n, s_h * sh, s_w * sw, s_h * dh, s_w * dw, s_c)
    return np.lib.stride_tricks.as_strided(xp, (n, ho, wo, kh, kw, c), strides, writeable=False)


def _gather_axis(length, grid, stride, pad):
    """Along one axis of ``windows_backward``: a plane's rows, ceil(*length*/*stride*);
    the zero border before the buffer's *grid* window rows; and the buffer's
    length, which covers every row that a tap's shifted view reads."""
    rows = -(-length // stride)
    reach = length + 2 * pad - (grid - 1) * stride - 1  # the largest tap offset a window has room for
    border = max(0, (reach - pad) // stride)
    return rows, border, border + max(grid, rows - (-pad // stride))


def windows_backward(shares, like, shape, size, stride, padding, dilation=(1, 1)):
    """The adjoint of ``windows``: the gradient of the (N, H, W, C) input of
    *shape* whose windows of *size*, *stride* and *dilation*, after zero
    *padding*, were read.

    It gathers. The generator ``shares(buf)`` writes a gradient of every
    window into *buf*, the (N, Ho, Wo, C) interior of a zero-bordered
    buffer, then yields the taps that add it, as (a, b) offsets into the
    padded window. Each tap adds a shifted view of the buffer over one
    contiguous (N, ceil(H/sh), ceil(W/sw), C) plane, its stride phase's:
    the gradient itself at unit stride, else one copy interleaves the
    planes; windows apart (no tap offset reaching the stride) add into the
    gradient's strided phases instead. All is laid out as *like*. Each
    element adds its taps in yielded order, and +0.0 where a tap misses
    it, which changes no bit of a sum that starts at +0.0."""
    (n, h, w, c), (kh, kw), (sh, sw), (ph, pw), (dh, dw) = shape, size, stride, padding, dilation
    ho, wo = out_extent(h, kh, sh, ph, dh), out_extent(w, kw, sw, pw, dw)
    hc, top, hb = _gather_axis(h, ho, sh, ph)
    wc, left, wb = _gather_axis(w, wo, sw, pw)
    grad_x = np.zeros_like(like, shape=(n, hc * sh, wc * sw, c))
    direct = (sh, sw) == (1, 1) or ((kh - 1) * dh < sh and (kw - 1) * dw < sw)
    planes = {(ra, rb): grad_x[:, ra::sh, rb::sw] if direct else np.zeros_like(like, shape=(n, hc, wc, c))
              for ra, rb in np.ndindex(sh, sw)}
    buf = np.zeros_like(like, shape=(n, hb, wb, c))
    for a, b in shares(buf[:, top : top + ho, left : left + wo]):
        (qa, ra), (qb, rb) = divmod(a - ph, sh), divmod(b - pw, sw)
        planes[ra, rb] += buf[:, top - qa : top - qa + hc, left - qb : left - qb + wc]
    if not direct:
        for (ra, rb), plane in planes.items():
            grad_x[:, ra::sh, rb::sw] = plane
    return grad_x[:, :h, :w]


def _prepare(x, weights, stride, padding, dilation):
    """(weights, padded batch, padding, windows' geometry)."""
    xb = as_batch(x)
    w = np.asarray(weights, dtype=np.float64)
    if w.ndim != 4:
        raise ValueError(f"weights must be rank-4, got rank {w.ndim}")
    if w.shape[0] < 1 or w.shape[1] < 1:
        raise ValueError(f"kernel spatial dims must be >= 1, got {w.shape[0]}x{w.shape[1]}")
    if xb.shape[3] != w.shape[2]:
        raise ValueError(f"input has {xb.shape[3]} channels but kernel expects {w.shape[2]}")
    stride, padding, dilation = as_geometry(stride, padding, dilation)
    return w, pad(xb, padding), padding, (w.shape[:2], stride, dilation)


def _tap_matmul(tap, m):
    """(N, Ho, Wo, K) *tap* times (K, M) *m*, one forward tap's product: ``matmul``
    runs one GEMM per (Wo, K) row block without copying the tap. A one-channel tap
    (K = 1) goes as a column instead, as numpy's ``matmul`` has no BLAS path for an
    inner dimension of 1; the column, 1/M of the product's size, is the only copy."""
    n, ho, wo, k = tap.shape
    if k == 1:
        return np.dot(tap.reshape(n * ho * wo, 1), m).reshape(n, ho, wo, m.shape[1])
    return tap @ m


def _pointwise(w, geometry) -> bool:
    """Whether kernel *w* at *geometry* has one window per padded pixel: 1x1 at unit stride."""
    return w.shape[:2] == (1, 1) and geometry[1] == (1, 1)


def _rows(x):
    """The (N, H, W, C) *x* as (N*H*W, C) rows: a view if its pixels merge, else a copy."""
    return x.reshape(x.shape[0] * x.shape[1] * x.shape[2], x.shape[3])


def _as_bias(bias, units) -> np.ndarray:
    """*bias* as a float64 (units,) array; any other shape raises, named."""
    b = np.asarray(bias, dtype=np.float64)
    if b.shape != (units,):
        raise ValueError(f"bias shape {b.shape} does not match ({units},)")
    return b


def conv2d_raw(x, weights, stride=(1, 1), padding=(0, 0), dilation=(1, 1), bias=None):
    """Convolve an (N, H, W, C_in) batch with a rank-4 (kh, kw, C_in, C_out) weight array.

    The one conventional convolution of the package: the LPSC block
    convolution (1x1) and every baseline run through it. Any kernel size
    of at least 1x1 is accepted; *bias*, if given, must be (C_out,).
    """
    w, xp, _, geometry = _prepare(x, weights, stride, padding, dilation)
    if _pointwise(w, geometry):
        out = (w[0, 0].T @ _rows(xp).T).T.reshape(*xp.shape[:3], w.shape[3])
    else:
        cols = windows(xp, *geometry)
        out = _tap_matmul(cols[:, :, :, 0, 0], w[0, 0])
        for a, b in list(np.ndindex(*w.shape[:2]))[1:]:
            out += _tap_matmul(cols[:, :, :, a, b], w[a, b])
    if bias is not None:
        out = out + _as_bias(bias, w.shape[3])
    return out


def conv2d_raw_backward(x, weights, grad_output, stride=(1, 1), padding=(0, 0), dilation=(1, 1)):
    """Adjoints of conv2d_raw: (grad_input, grad_weights, grad_bias), the bias
    gradient (*grad_output* summed over positions) always returned."""
    w, xp, padding, geometry = _prepare(x, weights, stride, padding, dilation)
    cols = windows(xp, *geometry)
    g = np.asarray(grad_output, dtype=np.float64)
    expected = (*cols.shape[:3], w.shape[3])
    if g.shape != expected:
        raise ValueError(f"grad_output shape {g.shape} does not match output {expected}")
    # C-order rows whatever grad_output's memory order: every product and the
    # bias sum below then read one order, so the gradients do not depend on it
    g_rows = np.ascontiguousarray(_rows(g))
    if _pointwise(w, geometry):
        grad_w = (_rows(xp).T @ g_rows).reshape(w.shape)
        return unpad((w[0, 0] @ g_rows.T).T.reshape(xp.shape), padding), grad_w, g_rows.sum(axis=0)
    (size, stride, (dh, dw)), c = geometry, w.shape[2]
    taps, grad_w = list(np.ndindex(*size)), np.empty_like(w)
    for a, b in taps:  # every weight gradient first: one loop with the gather was slower
        grad_w[a, b] = _rows(cols[:, :, :, a, b]).T @ g_rows  # a strided tap is copied here, one at a time
    # numpy's stacked matmul runs a GEMV per row block where a block is a vector
    # (Wo or C_in of 1), which rounds unlike the 2-D product: that one is copied in
    vector, g_c = g.shape[2] == 1 or c == 1, g_rows.reshape(g.shape)

    def shares(buf):
        for a, b in taps:
            if vector:
                buf[...] = (g_rows @ w[a, b].T).reshape(buf.shape)
            else:
                np.matmul(g_c, w[a, b].T, out=buf)
            yield a * dh, b * dw

    grad_x = windows_backward(shares, g_c, unpad(xp, padding).shape, size, stride, padding, (dh, dw))
    return grad_x, grad_w, g_rows.sum(axis=0)
