"""Pointwise, pooling, dense, and loss primitives with exact adjoints.

``pool_cells`` is the one pooling loop of the package: it combines the
window taps of each slot of a ``conv.windows`` view one at a time, in
the order given; ``pool_cells_backward``, its adjoint, hands
the slots' shares to ``conv.windows_backward``, laid out as the pooled
gradient. Log-polar pooling runs the pair with one slot per region,
``max_pool`` and ``mean_pool`` with one slot of every window tap,
row-major. Window pooling takes (N, H, W, C) batches, non-overlapping by
default (stride = window) with floor semantics and no padding;
relu'(0) = 0.
"""

from __future__ import annotations

import numpy as np

from .conv import _as_bias, as_batch, as_geometry, as_pair, windows, windows_backward

__all__ = [
    "relu",
    "relu_backward",
    "pool_cells",
    "pool_cells_backward",
    "max_pool",
    "max_pool_backward",
    "mean_pool",
    "mean_pool_backward",
    "dense",
    "dense_backward",
    "softmax",
    "softmax_cross_entropy",
    "softmax_cross_entropy_backward",
]


def relu(x):
    return np.maximum(np.asarray(x, dtype=np.float64), 0.0)


def relu_backward(x, grad_output):
    x = np.asarray(x, dtype=np.float64)
    g = np.asarray(grad_output, dtype=np.float64)
    if g.shape != x.shape:
        raise ValueError(f"grad shape {g.shape} does not match input {x.shape}")
    return g * (x > 0.0)


def pool_cells(win, slots, mode, out=None):
    """Pool each slot, a sequence of (a, b) taps, of the windows view *win*
    into (N, Ho, Wo, len(slots), C): the taps' sum, their mean (the sum over
    the slot's population) or their running maximum; an empty slot is 0.

    Each slot accumulates in place in its slice of *out*: a new C-contiguous
    array, or the caller's array of that shape. ``lpsc`` passes one stored
    as (len(slots), C, N, Ho, Wo), where every slot's slice is contiguous;
    with one slot, as the window pools use, the new array's slice is
    contiguous too."""
    n, ho, wo, _, _, c = win.shape
    if out is None:
        out = np.empty((n, ho, wo, len(slots), c))
    combine = np.maximum if mode == "max" else np.add
    for k, taps in enumerate(slots):
        acc = out[:, :, :, k]
        if len(taps) == 0:
            acc[...] = 0.0
            continue
        (a, b), *rest = taps
        acc[...] = win[:, :, :, a, b]
        for a, b in rest:
            combine(acc, win[:, :, :, a, b], out=acc)
        if mode == "mean":
            acc /= len(taps)
    return out


def pool_cells_backward(win, slots, mode, pooled, grad, shape, size, stride, padding):
    """The adjoint of ``pool_cells`` for the pooled gradient *grad*: the
    gradient of the (N, H, W, C) input of *shape* whose windows of *size*,
    at *stride* after zero *padding*, were pooled.

    Max mode sends a slot's gradient to its first tap whose *win* value
    equals the slot's *pooled* maximum (no other mode reads those two); a
    one-tap slot takes it directly, mean mode divides it by the
    population, and empty slots are skipped. ``conv.windows_backward``
    adds the shares in (slot, tap) order, laid out as *grad*."""

    def shares(buf):
        for k, taps in enumerate(slots):
            gk = grad[:, :, :, k]
            if mode == "max" and len(taps) > 1:
                best = pooled[:, :, :, k]
                open_ = np.ones_like(best, dtype=bool)  # no earlier tap has taken the gradient
                hit = np.empty_like(open_)
                for a, b in taps:
                    np.equal(win[:, :, :, a, b], best, out=hit)
                    hit &= open_
                    open_ ^= hit
                    np.multiply(gk, hit, out=buf)
                    yield a, b
            elif len(taps):
                np.divide(gk, len(taps) if mode == "mean" else 1, out=buf)  # gk / 1 is gk, bit for bit
                yield from taps

    return windows_backward(shares, grad[:, :, :, 0], shape, size, stride, padding)


def _pool_setup(x, size, stride):
    """(batch x, size, stride, windows of x, a window's one slot)."""
    xb = as_batch(x)
    size = as_pair(size, "pool size")
    if min(size) < 1:
        raise ValueError(f"pool size must be positive, got {size}")
    stride = as_geometry(size if stride is None else stride, 0)[0]
    return xb, size, stride, windows(xb, size, stride), [list(np.ndindex(*size))]


def _pool(x, size, stride, mode):
    *_, cols, slots = _pool_setup(x, size, stride)
    out = pool_cells(cols, slots, mode)[:, :, :, 0]
    if mode == "mean":
        out += 0.0  # a window of -0.0s pools to +0.0, as numpy's mean gives it
    return out


def _pool_backward(x, grad_output, size, stride, mode):
    xb, size, stride, cols, slots = _pool_setup(x, size, stride)
    g = np.asarray(grad_output, dtype=np.float64)
    if g.shape != (*cols.shape[:3], cols.shape[5]):
        raise ValueError(f"grad_output shape {g.shape} does not match pooled output")
    # the gradient and the pooled maxima laid out as x is, as the adjoint's
    # planes are, so that every step of the adjoint reads one memory order
    grad = np.empty_like(xb, shape=g.shape)
    grad[...] = g
    pooled = pool_cells(cols, slots, mode, out=np.empty_like(grad)[:, :, :, None]) if mode == "max" else None
    return pool_cells_backward(cols, slots, mode, pooled, grad[:, :, :, None], xb.shape, size, stride, (0, 0))


def max_pool(x, size, stride=None):
    return _pool(x, size, stride, "max")


def max_pool_backward(x, grad_output, size, stride=None):
    return _pool_backward(x, grad_output, size, stride, "max")


def mean_pool(x, size, stride=None):
    return _pool(x, size, stride, "mean")


def mean_pool_backward(x, grad_output, size, stride=None):
    return _pool_backward(x, grad_output, size, stride, "mean")


def _dense_setup(x, weights):
    """*x* and *weights* as float64 (N, F) and (F, U) arrays; other shapes raise."""
    x = np.asarray(x, dtype=np.float64)
    w = np.asarray(weights, dtype=np.float64)
    if x.ndim != 2 or w.ndim != 2 or x.shape[1] != w.shape[0]:
        raise ValueError(f"dense shapes incompatible: x {x.shape}, weights {w.shape}")
    return x, w


def dense(x, weights, bias=None):
    """Affine map on feature rows: (N, F) @ (F, U) + bias, a (U,) array."""
    x, w = _dense_setup(x, weights)
    out = x @ w
    if bias is not None:
        out = out + _as_bias(bias, w.shape[1])
    return out


def dense_backward(x, weights, grad_output):
    """Adjoints of dense: (grad_x, grad_weights, grad_bias), the bias
    gradient (*grad_output* summed over rows) always returned."""
    x, w = _dense_setup(x, weights)
    g = np.asarray(grad_output, dtype=np.float64)
    if g.shape != (x.shape[0], w.shape[1]):
        raise ValueError(f"grad_output shape {g.shape} does not match dense output")
    return g @ w.T, x.T @ g, g.sum(axis=0)


def softmax(logits):
    z = np.asarray(logits, dtype=np.float64)
    z = z - z.max(axis=-1, keepdims=True)
    e = np.exp(z)
    return e / e.sum(axis=-1, keepdims=True)


def _check_labels(logits, labels):
    logits = np.asarray(logits, dtype=np.float64)
    labels = np.asarray(labels)
    if logits.ndim != 2:
        raise ValueError(f"logits must be (N, K), got shape {logits.shape}")
    if labels.shape != (logits.shape[0],):
        raise ValueError(f"labels shape {labels.shape} does not match {logits.shape[0]} rows")
    if labels.min() < 0 or labels.max() >= logits.shape[1]:
        raise ValueError("label index out of range")
    return logits, labels.astype(np.int64)


def softmax_cross_entropy(logits, labels) -> float:
    """Mean negative log-likelihood of integer labels under softmax(logits)."""
    logits, labels = _check_labels(logits, labels)
    z = logits - logits.max(axis=1, keepdims=True)
    log_norm = np.log(np.exp(z).sum(axis=1))
    picked = z[np.arange(len(labels)), labels]
    return float(np.mean(log_norm - picked))


def softmax_cross_entropy_backward(logits, labels):
    logits, labels = _check_labels(logits, labels)
    p = softmax(logits)
    p[np.arange(len(labels)), labels] -= 1.0
    return p / len(labels)
