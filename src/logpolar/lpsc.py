"""The log-polar space convolution operator.

Two evaluation paths compute the same linear map:

* ``lpsc_forward_reference`` is the normative definition. It walks the
  mask's ``index_grid`` cell by cell: the center cell adds the center
  weight, every in-field cell its region's weight, scaled by 1/N in mean
  mode (N = ``counts[level, sector]``, padding cells included), and in
  max mode each region's largest cell adds its weight once. It reads the
  mask alone, not the fast path's slot plan, so it checks that plan.
* ``lpsc_forward_fast`` is log-polar pooling, then one conventional 1x1
  convolution. The center pixel is a region of one cell: it is pooled
  into one more slot, and its weight is one more block of the kernel.

``lpsc_backward`` differentiates the fast path: the 1x1 convolution's
adjoint, then the pooling adjoint. The forward pass hands over its pooled
tensor (``return_pooled``/``pooled``), so a training step pools each
input once. With ``input_grad=False`` it returns None as the input
gradient and skips all the work that only that gradient needs: the
pooled gradient ``K @ g.T`` and the pooling adjoint. Training asks this
of a network's lowest layer with parameters.

Every path takes an (N, H, W, C_in) batch, and all three check the input
and the weights against the config in one step, ``_prepare``, which only
checks. The 1x1 convolution's adjoint checks the output gradient.

Log-polar pooling is ``ops.pool_cells`` over the ``conv.windows`` view
of the padded input, and its adjoint is ``ops.pool_cells_backward``.
Shapes stay channels-last, but memory is channel-major: the padded input
is stored as (C_in, N, Hp, Wp) and the pooled tensor as (slots, C_in, N,
Ho, Wo), viewed as (N, Ho, Wo, slots*C_in). Each slot then pools into,
and its adjoint reads, one contiguous block; the input gradient is
channel-major too. With P the pooled tensor as a (slots*C_in, N*Ho*Wo)
matrix, K the 1x1 kernel and g the output gradient as (N*Ho*Wo, C_out)
rows, the block convolution is ``conv2d_raw``'s 1x1 rule, three plain
GEMMs on a view of P: ``(K.T @ P).T`` forward, ``P @ g`` for the
weight gradient and ``K @ g.T`` for the pooled gradient, which lands
channel-major as P is.
Only ``log_polar_pool`` and ``lpsc_backward`` read the slot plan,
``_plan``. A slot is a region's mask cells (dr, dc) in row-major order,
as window taps (r + dr, r + dc). Region k = (level-1)*levels_theta +
(sector-1) fills channels k*C_in ... (k+1)*C_in - 1, the C order of
``LpscWeights.regions``; with ``center_conv`` the window-center cell
fills the last C_in channels.
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
from itertools import pairwise

import numpy as np

from .conv import _shaped, as_batch, conv2d_raw, conv2d_raw_backward, out_extent, pad, unpad, windows
from .geometry import LpscConfig, build_mask
from .ops import pool_cells, pool_cells_backward
from .tensor import _read_float64, _write_float64

__all__ = [
    "LpscWeights",
    "check_region_grid",
    "log_polar_pool",
    "lpsc_forward_fast",
    "lpsc_forward_reference",
    "lpsc_backward",
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
            self.bias = _shaped(self.bias, (self.center.shape[1],), "bias")

    @property
    def in_channels(self) -> int:
        return self.center.shape[0]

    @property
    def out_channels(self) -> int:
        return self.center.shape[1]


def check_region_grid(weights: LpscWeights, config: LpscConfig):
    """Refuse *weights* whose (levels_r, levels_theta) grid is not *config*'s."""
    if weights.regions.shape[:2] != (config.levels_r, config.levels_theta):
        raise ValueError(f"weights cover {weights.regions.shape[:2]} regions, config wants "
                         f"({config.levels_r}, {config.levels_theta})")


@lru_cache(maxsize=None)
def _plan(config: LpscConfig):
    """The (a, b) window taps of each pooled slot: every region's mask cells
    in row-major order, then the center cell when ``center_conv`` is set."""
    grid = build_mask(config).index_grid.ravel()
    n_regions = config.levels_r * config.levels_theta
    order = np.argsort(grid, kind="stable")  # row-major within each region's run
    bounds = np.searchsorted(grid[order], np.arange(1, n_regions + 2))
    rows, cols = (v.tolist() for v in np.divmod(order[bounds[0] :], config.kernel_size))
    slots = [list(zip(rows[i:j], cols[i:j])) for i, j in pairwise((bounds - bounds[0]).tolist())]
    r = config.radius
    return slots + ([[(r, r)]] if config.center_conv else [])


def _prepare(input, config: LpscConfig, weights: LpscWeights):
    """*input* as a batch, once the weights are checked against the
    config's regions and the input's channels."""
    xb = as_batch(input)
    check_region_grid(weights, config)
    if weights.in_channels != xb.shape[3]:
        raise ValueError(
            f"input has {xb.shape[3]} channels but weights expect {weights.in_channels}"
        )
    return xb


def _padded(xb, padding):
    """The batch *xb* zero-padded, as channel-major (C, N, Hp, Wp) memory."""
    n, h, w, c = xb.shape
    ph, pw = padding
    xp = np.zeros((c, n, h + 2 * ph, w + 2 * pw)).transpose(1, 2, 3, 0)
    unpad(xp, padding)[...] = xb
    return xp


def log_polar_pool(input, config: LpscConfig):
    """Pool every window's regions, then its center cell, into channels.

    Returns (N, grid_h, grid_w, slots*C_in) in the slot layout of the
    module docstring, stored channel-major; empty regions hold 0.
    """
    xb, slots, size = as_batch(input), _plan(config), config.kernel_size
    win = windows(_padded(xb, config.padding), (size, size), config.stride)
    n, ho, wo, _, _, c = win.shape
    out = np.empty((len(slots), c, n, ho, wo)).transpose(2, 3, 4, 0, 1)
    return pool_cells(win, slots, config.pooling_mode, out=out).reshape(n, ho, wo, len(slots) * c)


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
    xb = _prepare(input, config, weights)
    pooled = log_polar_pool(xb, config)
    out = conv2d_raw(pooled, _region_kernel(config, weights), bias=weights.bias)
    return (out, pooled) if return_pooled else out


def lpsc_forward_reference(input, config: LpscConfig, weights: LpscWeights):
    """Direct evaluation of the region-weighted definition, cell by cell over the mask."""
    xb = _prepare(input, config, weights)
    mask = build_mask(config)
    size, mode = config.kernel_size, config.pooling_mode
    win = windows(pad(xb, config.padding), (size, size), config.stride)
    out = np.zeros((*win.shape[:3], weights.out_channels), dtype=np.float64)
    best = {}  # max mode: (level, sector) -> running maximum of its cells so far
    for (a, b), k in np.ndenumerate(mask.index_grid):
        cell = win[:, :, :, a, b]
        if k == -1 and config.center_conv:
            out += np.einsum("nijc,cd->nijd", cell, weights.center)
        elif k > 0:
            region = divmod(int(k) - 1, config.levels_theta)
            if mode == "max":
                best[region] = np.maximum(best[region], cell) if region in best else cell
                continue
            w = weights.regions[region]
            if mode == "mean":
                w = w / mask.counts[region]
            out += np.einsum("nijc,cd->nijd", cell, w)
    for region, cell in best.items():
        out += np.einsum("nijc,cd->nijd", cell, weights.regions[region])
    if weights.bias is not None:
        out += weights.bias
    return out


def lpsc_backward(input, config: LpscConfig, weights: LpscWeights, grad_output, *, pooled=None,
                  input_grad=True):
    """Exact adjoints of the forward map: (grad_input, LpscWeights grads).

    Computed against the fast path: the 1x1 convolution's adjoint, then
    the pooling adjoint. *pooled* is the forward pass's pooled tensor
    (``lpsc_forward_fast(..., return_pooled=True)``), which max mode
    compares cells against; without it the input is pooled again. With
    ``input_grad=False`` grad_input is None, and neither the pooled
    gradient nor the pooling adjoint is computed; the weight gradients
    are the same bytes.
    """
    xb, slots = _prepare(input, config, weights), _plan(config)
    c, size, mode = xb.shape[3], config.kernel_size, config.pooling_mode
    extents = map(out_extent, xb.shape[1:3], (size, size), config.stride, config.padding)
    grid = (xb.shape[0], *extents)

    if pooled is None:
        pooled = log_polar_pool(xb, config)
    else:
        pooled = _shaped(pooled, (*grid, len(slots) * c), "pooled")
    grad_pooled, grad_kernel, grad_bias = conv2d_raw_backward(
        pooled, _region_kernel(config, weights), grad_output, input_grad=input_grad
    )
    n_regions = config.levels_r * config.levels_theta
    grad_kernel = grad_kernel.reshape(len(slots), c, -1)
    grad_regions = grad_kernel[:n_regions].reshape(weights.regions.shape)
    grad_center = grad_kernel[n_regions:].sum(axis=0)  # the center slot's rows, or zeros
    bias = None if weights.bias is None else grad_bias  # bias-less weights get no bias gradient
    grads = LpscWeights(center=grad_center, regions=grad_regions, bias=bias)
    if not input_grad:
        return None, grads

    grad_pooled = grad_pooled.reshape(*grid, len(slots), c)
    win = windows(_padded(xb, config.padding), (size, size), config.stride) if mode == "max" else None
    grad_input = pool_cells_backward(win, slots, mode, pooled.reshape(grad_pooled.shape), grad_pooled,
                                     xb.shape, (size, size), config.stride, config.padding)
    return grad_input, grads


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
