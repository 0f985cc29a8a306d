"""Conventional 2-D convolution and its exact adjoints.

Kernels are rank-4 ``(kh, kw, C_in, C_out)`` over channels-last data.
``windows`` is the one window primitive of the package: a single strided
view ``(N, Ho, Wo, kh, kw, C)`` of every window of a padded batch. The
convolution contracts that view with the kernel in one tensor
contraction, and its adjoint adds each tap of the gradient back through
a writeable view; the ``ops`` pools and the ``lpsc`` cells read the same
view. ``dilation`` spaces the kernel taps (used by the dilated-convolution
baseline); padding is always zero-padding. Output extents follow

    out = floor((size + 2*pad - eff) / stride) + 1,   eff = (k-1)*dilation + 1.

The centered-index convention (kernel tap (m, n) reads input offset
(i+m, j+n)) maps onto the corner-aligned arithmetic below with
m = a - M, n = b - N; the two views produce identical numbers.

All operations are pure functions of their arguments and never mutate
inputs; the per-output-element accumulation order is fixed by the single
tensor contraction, so results do not depend on threading.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "ConvKernel",
    "conv2d",
    "conv2d_backward",
    "conv2d_raw",
    "conv2d_raw_backward",
    "as_pair",
    "ensure_batched",
    "out_extent",
    "pad",
    "unpad",
    "windows",
]


def as_pair(value, name="value") -> tuple[int, int]:
    """Normalize an int or 2-sequence to an (int, int) pair."""
    if isinstance(value, (int, np.integer)):
        return (int(value), int(value))
    pair = tuple(int(v) for v in value)
    if len(pair) != 2:
        raise ValueError(f"{name} must be an int or a pair of ints, got {value!r}")
    return pair


def ensure_batched(x) -> tuple[np.ndarray, bool]:
    """Return (rank-4 view of x, had_batch_dim)."""
    x = np.asarray(x, dtype=np.float64)
    if x.ndim == 3:
        return x[None], False
    if x.ndim == 4:
        return x, True
    raise ValueError(
        f"expected rank-3 (H, W, C) or rank-4 (N, H, W, C) input, got rank {x.ndim}"
    )


@dataclass
class ConvKernel:
    """Odd-sized convolution weights (2M+1, 2N+1, C_in, C_out) plus optional bias."""

    weights: np.ndarray
    bias: np.ndarray | None = None

    def __post_init__(self):
        self.weights = np.asarray(self.weights, dtype=np.float64)
        if self.weights.ndim != 4:
            raise ValueError(
                f"kernel weights must be rank-4 (kh, kw, C_in, C_out), got rank {self.weights.ndim}"
            )
        kh, kw = self.weights.shape[:2]
        if kh < 1 or kw < 1 or kh % 2 == 0 or kw % 2 == 0:
            raise ValueError(f"kernel spatial dims must be odd and >= 1, got {kh}x{kw}")
        if self.bias is not None:
            self.bias = np.asarray(self.bias, dtype=np.float64)
            if self.bias.shape != (self.weights.shape[3],):
                raise ValueError(
                    f"bias shape {self.bias.shape} does not match {self.weights.shape[3]} output channels"
                )

    @property
    def in_channels(self) -> int:
        return self.weights.shape[2]

    @property
    def out_channels(self) -> int:
        return self.weights.shape[3]


def out_extent(size, extent, stride, pad) -> int:
    """Output positions along one axis for a window spanning *extent* cells."""
    padded = size + 2 * pad
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


def windows(xp, size, stride, dilation=(1, 1), writeable=False):
    """Every window of the padded batch *xp* as one (N, Ho, Wo, kh, kw, C) view.

    Element [n, i, j, a, b, c] is xp[n, i*sh + a*dh, j*sw + b*dw, c]; no
    data is copied. Overlapping windows share memory, so write through a
    ``writeable`` view one tap [:, :, :, a, b] at a time.
    """
    (kh, kw), (sh, sw), (dh, dw) = size, stride, dilation
    n, h, w, c = xp.shape
    ho = out_extent(h, (kh - 1) * dh + 1, sh, 0)
    wo = out_extent(w, (kw - 1) * dw + 1, sw, 0)
    s_n, s_h, s_w, s_c = xp.strides
    strides = (s_n, s_h * sh, s_w * sw, s_h * dh, s_w * dw, s_c)
    return np.lib.stride_tricks.as_strided(xp, (n, ho, wo, kh, kw, c), strides, writeable=writeable)


def _check_geometry(stride, padding, dilation):
    sh, sw = stride
    ph, pw = padding
    dh, dw = dilation
    if sh < 1 or sw < 1:
        raise ValueError(f"stride must be positive, got {stride}")
    if ph < 0 or pw < 0:
        raise ValueError(f"padding must be non-negative, got {padding}")
    if dh < 1 or dw < 1:
        raise ValueError(f"dilation must be >= 1, got {dilation}")


def _prepare(x, weights, stride, padding, dilation):
    """(batched x, had batch dim, weights, padded x, padding, windows' geometry)."""
    xb, batched = ensure_batched(x)
    w = np.asarray(weights, dtype=np.float64)
    if w.ndim != 4:
        raise ValueError(f"weights must be rank-4, got rank {w.ndim}")
    if xb.shape[3] != w.shape[2]:
        raise ValueError(
            f"input has {xb.shape[3]} channels but kernel expects {w.shape[2]}"
        )
    stride = as_pair(stride, "stride")
    padding = as_pair(padding, "padding")
    dilation = as_pair(dilation, "dilation")
    _check_geometry(stride, padding, dilation)
    return xb, batched, w, pad(xb, padding), padding, (w.shape[:2], stride, dilation)


def conv2d_raw(x, weights, stride=(1, 1), padding=(0, 0), dilation=(1, 1), bias=None):
    """Convolve channels-last data with a plain rank-4 weight array.

    No restriction on the kernel's spatial size; used directly by the
    log-polar region convolution (1x1) and the baselines.
    """
    _, batched, w, xp, _, geometry = _prepare(x, weights, stride, padding, dilation)
    out = np.tensordot(windows(xp, *geometry), w, axes=([3, 4, 5], [0, 1, 2]))
    if bias is not None:
        out = out + np.asarray(bias, dtype=np.float64)
    return out if batched else out[0]


def conv2d(input, kernel: ConvKernel, stride=(1, 1), padding=(0, 0)):
    """Conventional convolution of *input* with an odd-sized ConvKernel."""
    return conv2d_raw(
        input, kernel.weights, stride=stride, padding=padding, bias=kernel.bias
    )


def conv2d_raw_backward(
    x, weights, grad_output, stride=(1, 1), padding=(0, 0), dilation=(1, 1), has_bias=False
):
    """Adjoints of conv2d_raw: (grad_input, grad_weights, grad_bias)."""
    xb, batched, w, xp, padding, geometry = _prepare(x, weights, stride, padding, dilation)
    cols = windows(xp, *geometry)
    g, _ = ensure_batched(grad_output)
    expected = (*cols.shape[:3], w.shape[3])
    if g.shape != expected:
        raise ValueError(f"grad_output shape {g.shape} does not match output {expected}")
    grad_w = np.tensordot(cols, g, axes=([0, 1, 2], [0, 1, 2]))
    grad_cols = np.tensordot(g, w, axes=([3], [3]))  # (N, Ho, Wo, kh, kw, C_in)
    grad_xp = np.zeros_like(xp)
    grad_windows = windows(grad_xp, *geometry, writeable=True)
    for a, b in np.ndindex(*w.shape[:2]):
        grad_windows[:, :, :, a, b] += grad_cols[:, :, :, a, b]
    grad_x = unpad(grad_xp, padding)
    grad_b = g.sum(axis=(0, 1, 2)) if has_bias else None
    if not batched:
        grad_x = grad_x[0]
    return grad_x, grad_w, grad_b


def conv2d_backward(input, kernel: ConvKernel, grad_output, stride=(1, 1), padding=(0, 0)):
    """Exact adjoint of conv2d: (grad_input, ConvKernel-shaped gradients)."""
    grad_x, grad_w, grad_b = conv2d_raw_backward(
        input,
        kernel.weights,
        grad_output,
        stride=stride,
        padding=padding,
        has_bias=kernel.bias is not None,
    )
    return grad_x, ConvKernel(weights=grad_w, bias=grad_b)
