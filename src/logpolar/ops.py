"""Pointwise, pooling, dense, and loss primitives with exact adjoints.

Window pooling is non-overlapping by default (stride = window) with floor
semantics and no padding. The pools reduce ``conv.windows``, the one
window primitive, and their adjoints add into a writeable windows view of
the input gradient, one window cell at a time. Max-pool ties route the
gradient to the first window cell in row-major order; relu'(0) = 0.
"""

from __future__ import annotations

import numpy as np

from .conv import as_pair, ensure_batched, windows

__all__ = [
    "relu",
    "relu_backward",
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


def _pool_setup(x, size, stride):
    """(batched x, had batch dim, size, stride, windows view of x)."""
    xb, batched = ensure_batched(x)
    size = as_pair(size, "pool size")
    stride = as_pair(size if stride is None else stride, "pool stride")
    if min(*size, *stride) < 1:
        raise ValueError("pool size and stride must be positive")
    return xb, batched, size, stride, windows(xb, size, stride)


def max_pool(x, size, stride=None):
    _, batched, _, _, cols = _pool_setup(x, size, stride)
    out = cols.max(axis=(3, 4))
    return out if batched else out[0]


def max_pool_backward(x, grad_output, size, stride=None):
    xb, batched, size, stride, cols = _pool_setup(x, size, stride)
    g, _ = ensure_batched(grad_output)
    if g.shape != (*cols.shape[:3], cols.shape[5]):
        raise ValueError(f"grad_output shape {g.shape} does not match pooled output")
    n, ho, wo, kh, kw, c = cols.shape
    winner = cols.reshape(n, ho, wo, kh * kw, c).argmax(axis=3)  # first max, row-major
    grad_x = np.zeros_like(xb)
    grad_windows = windows(grad_x, size, stride, writeable=True)
    for t, (a, b) in enumerate(np.ndindex(kh, kw)):
        grad_windows[:, :, :, a, b] += g * (winner == t)
    return grad_x if batched else grad_x[0]


def mean_pool(x, size, stride=None):
    _, batched, _, _, cols = _pool_setup(x, size, stride)
    out = cols.mean(axis=(3, 4))
    return out if batched else out[0]


def mean_pool_backward(x, grad_output, size, stride=None):
    xb, batched, size, stride, cols = _pool_setup(x, size, stride)
    g, _ = ensure_batched(grad_output)
    if g.shape != (*cols.shape[:3], cols.shape[5]):
        raise ValueError(f"grad_output shape {g.shape} does not match pooled output")
    share = g / (size[0] * size[1])
    grad_x = np.zeros_like(xb)
    grad_windows = windows(grad_x, size, stride, writeable=True)
    for a, b in np.ndindex(*size):
        grad_windows[:, :, :, a, b] += share
    return grad_x if batched else grad_x[0]


def dense(x, weights, bias=None):
    """Affine map on feature rows: (N, F) @ (F, U) + bias."""
    x = np.asarray(x, dtype=np.float64)
    w = np.asarray(weights, dtype=np.float64)
    if x.ndim != 2 or w.ndim != 2 or x.shape[1] != w.shape[0]:
        raise ValueError(f"dense shapes incompatible: x {x.shape}, weights {w.shape}")
    out = x @ w
    if bias is not None:
        out = out + np.asarray(bias, dtype=np.float64)
    return out


def dense_backward(x, weights, grad_output, has_bias=False):
    x = np.asarray(x, dtype=np.float64)
    w = np.asarray(weights, dtype=np.float64)
    g = np.asarray(grad_output, dtype=np.float64)
    if g.shape != (x.shape[0], w.shape[1]):
        raise ValueError(f"grad_output shape {g.shape} does not match dense output")
    grad_x = g @ w.T
    grad_w = x.T @ g
    grad_b = g.sum(axis=0) if has_bias else None
    return grad_x, grad_w, grad_b


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
