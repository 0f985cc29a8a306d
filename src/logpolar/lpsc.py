"""The log-polar space convolution operator.

Two evaluation paths compute the same linear map:

* ``lpsc_forward_reference`` is the normative definition. For each window
  position it mixes the center pixel through the center weight and every
  region's pooled cells through that region's weight, scaled by 1/N in
  mean mode (N = region population in the mask, padding cells included).
* ``lpsc_forward_fast`` is log-polar pooling, then one conventional 1x1
  convolution. The center pixel is a region of one cell: it is pooled
  into one more slot, and its weight is one more block of the kernel.

``lpsc_backward`` differentiates the fast path: the 1x1 convolution's
adjoint, then the pooling adjoint. The forward pass hands over its pooled
tensor (``return_pooled``/``pooled``), so a training step pools each
input once.

Log-polar pooling is ``ops.pool_cells`` over the ``conv.windows`` view
of the padded input, and its adjoint is ``ops.pool_cells_backward``. A
slot is a region's mask cells (dr, dc) in row-major order, as window taps
(r + dr, r + dc). Region k = (level-1)*levels_theta + (sector-1) fills
channels k*C_in ... (k+1)*C_in - 1, the C order of ``LpscWeights.regions``;
with ``center_conv`` the window-center cell fills the last C_in channels.
The 1x1 kernel is the region weights reshaped to
(levels_r*levels_theta*C_in, C_out), stacked over the center block.
``mean`` divides each region sum by its mask population, ``sum`` does
not, ``max`` takes the maximum over the zero-padded window and sends its
gradient to the region's first maximal cell; empty regions pool to 0.

LPSCW v1 weight file, in the float64 container of ``tensor.py``:

    LPSCW v1 <levels_r> <levels_theta> <C_in> <C_out> <has_bias>

then the center block (C_in, C_out), the region block in (level, sector,
C_in, C_out) order, then the bias (C_out,) if present.

Forward and backward are pure; cell accumulation follows the fixed
row-major mask order, so repeated evaluations are bit-identical.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .conv import (
    conv2d_raw,
    conv2d_raw_backward,
    ensure_batched,
    out_extent,
    pad,
    unpad,
    windows,
)
from .geometry import LogPolarMask, LpscConfig, build_mask
from .ops import pool_cells, pool_cells_backward
from .tensor import _read_float64, _write_float64

__all__ = [
    "LpscWeights",
    "region_offsets",
    "log_polar_pool",
    "lpsc_forward_fast",
    "lpsc_forward_reference",
    "lpsc_backward",
    "lpsc_output_shape",
    "save_lpsc_weights",
    "load_lpsc_weights",
]


@dataclass
class LpscWeights:
    """Per-channel-pair weights: center w(0,0) and one weight per region."""

    center: np.ndarray  # (C_in, C_out)
    regions: np.ndarray  # (levels_r, levels_theta, C_in, C_out)
    bias: np.ndarray | None = None  # (C_out,)

    def __post_init__(self):
        self.center = np.asarray(self.center, dtype=np.float64)
        self.regions = np.asarray(self.regions, dtype=np.float64)
        if self.center.ndim != 2:
            raise ValueError(f"center weights must be (C_in, C_out), got {self.center.shape}")
        if self.regions.ndim != 4:
            raise ValueError(
                f"region weights must be (levels_r, levels_theta, C_in, C_out), got {self.regions.shape}"
            )
        if self.regions.shape[2:] != self.center.shape:
            raise ValueError(
                f"center block {self.center.shape} does not match region channels {self.regions.shape[2:]}"
            )
        if self.bias is not None:
            self.bias = np.asarray(self.bias, dtype=np.float64)
            if self.bias.shape != (self.center.shape[1],):
                raise ValueError(
                    f"bias shape {self.bias.shape} does not match {self.center.shape[1]} output channels"
                )

    @property
    def in_channels(self) -> int:
        return self.center.shape[0]

    @property
    def out_channels(self) -> int:
        return self.center.shape[1]


def region_offsets(mask: LogPolarMask) -> list[np.ndarray]:
    """Per region k (1-based), the (n_k, 2) cell offsets in row-major order."""
    n_regions = mask.levels_r * mask.levels_theta
    return [np.argwhere(mask.index_grid == k) - mask.radius for k in range(1, n_regions + 1)]


@lru_cache(maxsize=None)
def _plan(config: LpscConfig):
    """Mask, per-region cell offsets, and the (a, b) window taps of each
    pooled slot: the regions, then the center cell when ``center_conv`` is set."""
    mask = build_mask(config)
    offsets = region_offsets(mask)
    r = config.radius
    slots = [(cells + r).tolist() for cells in offsets]
    return mask, offsets, slots + ([[(r, r)]] if config.center_conv else [])


def lpsc_output_shape(input_hw, config: LpscConfig) -> tuple[int, int]:
    """(grid_h, grid_w) of window positions for the given input extent."""
    k = config.kernel_size
    (sh, sw), (ph, pw) = config.stride, config.padding
    return out_extent(input_hw[0], k, sh, ph), out_extent(input_hw[1], k, sw, pw)


def log_polar_pool(input, config: LpscConfig):
    """Pool every window's regions, then its center cell, into channels.

    Returns (N, grid_h, grid_w, slots*C_in), without the N axis for an
    unbatched input, in the slot layout of the module docstring; empty
    regions hold 0.
    """
    xb, batched = ensure_batched(input)
    _, _, slots = _plan(config)
    size = config.kernel_size
    win = windows(pad(xb, config.padding), (size, size), config.stride)
    pooled = pool_cells(win, slots, config.pooling_mode)
    pooled = pooled.reshape(*pooled.shape[:3], -1)
    return pooled if batched else pooled[0]


def _check_weights(config: LpscConfig, weights: LpscWeights, channels: int):
    if weights.regions.shape[:2] != (config.levels_r, config.levels_theta):
        raise ValueError(
            f"weights cover {weights.regions.shape[:2]} regions, config wants "
            f"({config.levels_r}, {config.levels_theta})"
        )
    if weights.in_channels != channels:
        raise ValueError(
            f"input has {channels} channels but weights expect {weights.in_channels}"
        )


def _region_kernel(config: LpscConfig, weights: LpscWeights) -> np.ndarray:
    """The 1x1 kernel over the pooled slots: the region weights, then the center's."""
    rows = weights.regions.reshape(-1, weights.out_channels)
    if config.center_conv:
        rows = np.concatenate([rows, weights.center])
    return rows.reshape(1, 1, -1, weights.out_channels)


def lpsc_forward_fast(input, config: LpscConfig, weights: LpscWeights, *, return_pooled=False):
    """Log-polar pooling, then one 1x1 convolution over the pooled slots.

    With ``return_pooled`` returns (output, pooled), pooled as
    ``log_polar_pool`` gives it, for ``lpsc_backward`` to reuse.
    """
    xb, batched = ensure_batched(input)
    _check_weights(config, weights, xb.shape[3])
    pooled = log_polar_pool(xb, config)
    out = conv2d_raw(pooled, _region_kernel(config, weights), bias=weights.bias)
    if not batched:
        out, pooled = out[0], pooled[0]
    return (out, pooled) if return_pooled else out


def lpsc_forward_reference(input, config: LpscConfig, weights: LpscWeights):
    """Direct evaluation of the region-weighted definition, cell by cell."""
    xb, batched = ensure_batched(input)
    _check_weights(config, weights, xb.shape[3])
    mask, offsets, _ = _plan(config)
    r, size = config.radius, config.kernel_size
    win = windows(pad(xb, config.padding), (size, size), config.stride)
    grid_hw = win.shape[1:3]
    lt = config.levels_theta
    counts = mask.counts.ravel()
    out = np.zeros(
        (xb.shape[0], grid_hw[0], grid_hw[1], weights.out_channels), dtype=np.float64
    )
    for k, cells in enumerate(offsets):
        if len(cells) == 0:
            continue
        level, sector = k // lt, k % lt
        w = weights.regions[level, sector]
        if config.pooling_mode == "max":
            best = win[:, :, :, r + cells[0][0], r + cells[0][1]]
            for dr, dc in cells[1:]:
                best = np.maximum(best, win[:, :, :, r + dr, r + dc])
            out += np.einsum("nijc,cd->nijd", best, w)
        else:
            if config.pooling_mode == "mean":
                w = w / max(int(counts[k]), 1)
            for dr, dc in cells:
                out += np.einsum("nijc,cd->nijd", win[:, :, :, r + dr, r + dc], w)
    if config.center_conv:
        out += np.einsum("nijc,cd->nijd", win[:, :, :, r, r], weights.center)
    if weights.bias is not None:
        out += weights.bias
    return out if batched else out[0]


def lpsc_backward(input, config: LpscConfig, weights: LpscWeights, grad_output, *, pooled=None):
    """Exact adjoints of the forward map: (grad_input, LpscWeights grads).

    Computed against the fast path: the 1x1 convolution's adjoint, then
    the pooling adjoint adds each slot back through its cells. *pooled*
    is the forward pass's pooled tensor (``lpsc_forward_fast(...,
    return_pooled=True)``), which max mode compares cells against; without
    it the input is pooled again.
    """
    xb, batched = ensure_batched(input)
    _check_weights(config, weights, xb.shape[3])
    _, offsets, slots = _plan(config)
    n, h, w, c = xb.shape
    g, _ = ensure_batched(grad_output)
    expected = (n, *lpsc_output_shape((h, w), config), weights.out_channels)
    if g.shape != expected:
        raise ValueError(f"grad_output shape {g.shape} does not match output {expected}")

    if pooled is None:
        pooled = log_polar_pool(xb, config)
    else:
        pooled, _ = ensure_batched(pooled)
        if pooled.shape != (*expected[:3], len(slots) * c):
            raise ValueError(f"pooled shape {pooled.shape} does not match input {xb.shape}")
    grad_pooled, grad_kernel, grad_bias = conv2d_raw_backward(
        pooled, _region_kernel(config, weights), g, has_bias=weights.bias is not None
    )
    grad_kernel = grad_kernel.reshape(len(slots), c, -1)
    grad_regions = grad_kernel[: len(offsets)].reshape(weights.regions.shape)
    grad_center = grad_kernel[len(offsets) :].sum(axis=0)  # the center slot's rows, or zeros
    grad_pooled = grad_pooled.reshape(*expected[:3], len(slots), c)

    size, (ph, pw), mode = config.kernel_size, config.padding, config.pooling_mode
    grad_xp = np.zeros((n, h + 2 * ph, w + 2 * pw, c), dtype=np.float64)
    grad_win = windows(grad_xp, (size, size), config.stride, writeable=True)
    win = windows(pad(xb, config.padding), (size, size), config.stride) if mode == "max" else None
    pool_cells_backward(win, grad_win, slots, mode, pooled.reshape(grad_pooled.shape), grad_pooled)

    grad_input = unpad(grad_xp, config.padding)
    if not batched:
        grad_input = grad_input[0]
    return grad_input, LpscWeights(center=grad_center, regions=grad_regions, bias=grad_bias)


def _weights_layout(fields):
    """LPSCW header ``<levels_r> <levels_theta> <C_in> <C_out> <has_bias>``:
    the center, region and (when present) bias block shapes."""
    if len(fields) != 5:
        raise ValueError(f"expected 5 integers, got {len(fields)}")
    lr, lt, cin, cout, has_bias = fields
    if min(lr, lt, cin, cout) < 1 or has_bias not in (0, 1):
        raise ValueError("dims must be >= 1 and has_bias 0 or 1")
    return [(cin, cout), (lr, lt, cin, cout)] + [(cout,)] * has_bias


def save_lpsc_weights(path, weights: LpscWeights) -> None:
    """Write weights to *path* in LPSCW v1 format; NaN or Inf raises before the file opens."""
    has_bias = weights.bias is not None
    blocks = [weights.center, weights.regions] + [weights.bias] * has_bias
    _write_float64(path, "LPSCW", [*weights.regions.shape, int(has_bias)], blocks)


def load_lpsc_weights(path) -> LpscWeights:
    """Read and validate an LPSCW v1 file."""
    return LpscWeights(*_read_float64(path, "LPSCW", _weights_layout))
