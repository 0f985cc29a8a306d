"""The log-polar space convolution operator.

Two evaluation paths compute the same linear map:

* ``lpsc_forward_reference`` is the normative definition. For each window
  position it mixes the center pixel through the center weight and every
  region's pooled cells through that region's weight, scaled by 1/N in
  mean mode (N = region population in the mask, padding cells included).
* ``lpsc_forward_fast`` realizes the operator with ordinary machinery:
  log-polar pooling stacks every window's pooled regions into channels,
  a single conventional 1x1 convolution over those region channels
  produces the context response, and a separate 1x1 convolution over the
  window centers adds the center-pixel response.

Every cell read goes through ``conv.windows``, the one window primitive:
``windows(xp, (k, k), stride)[:, :, :, r + dr, r + dc]`` is mask cell
(dr, dc) of every window position of the padded input ``xp``, and the
same index on a writeable view of the gradient adds into it.

Region channels: region k = (level-1)*levels_theta + (sector-1) fills
pooled channels k*C_in ... (k+1)*C_in - 1, the C order of
``LpscWeights.regions``, so the 1x1 kernel is the region weights reshaped
to (1, 1, levels_r*levels_theta*C_in, C_out).

Pooling modes: ``mean`` divides each region sum by its mask population
(empty regions stay 0 and never contribute), ``sum`` skips the division,
``max`` takes the region maximum over the zero-padded window; max-mode
gradients route to the first maximal cell in row-major mask order.

LPSCW v1 weight file: ASCII header line

    LPSCW v1 <levels_r> <levels_theta> <C_in> <C_out> <has_bias>

followed by little-endian float64: center block (C_in, C_out), region
block in (level, sector, C_in, C_out) order, then the bias if present.

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

    @property
    def weights_per_pair(self) -> int:
        return self.regions.shape[0] * self.regions.shape[1] + 1


def region_offsets(mask: LogPolarMask) -> list[np.ndarray]:
    """Per region k (1-based), the (n_k, 2) cell offsets in row-major order."""
    n_regions = mask.levels_r * mask.levels_theta
    return [np.argwhere(mask.index_grid == k) - mask.radius for k in range(1, n_regions + 1)]


@lru_cache(maxsize=None)
def _plan(config: LpscConfig):
    """Mask and per-region cell offsets for a config."""
    mask = build_mask(config)
    return mask, region_offsets(mask)


def lpsc_output_shape(input_hw, config: LpscConfig) -> tuple[int, int]:
    """(grid_h, grid_w) of window positions for the given input extent."""
    k = config.kernel_size
    (sh, sw), (ph, pw) = config.stride, config.padding
    return out_extent(input_hw[0], k, sh, ph), out_extent(input_hw[1], k, sw, pw)


def log_polar_pool(input, config: LpscConfig):
    """Pool every window's regions into channels.

    Returns (N, grid_h, grid_w, levels_r*levels_theta*C_in), without the
    N axis for an unbatched input. Region k = (level-1)*levels_theta +
    (sector-1) fills channels k*C_in ... (k+1)*C_in - 1; empty regions
    stay 0.
    """
    xb, batched = ensure_batched(input)
    mask, offsets = _plan(config)
    r, size = config.radius, config.kernel_size
    win = windows(pad(xb, config.padding), (size, size), config.stride)
    n, c = xb.shape[0], xb.shape[3]
    grid_hw = win.shape[1:3]
    pooled = np.zeros((n, *grid_hw, len(offsets), c), dtype=np.float64)
    acc = np.empty((n, *grid_hw, c), dtype=np.float64)  # contiguous, so the adds stay fast
    combine = np.maximum if config.pooling_mode == "max" else np.add
    counts = mask.counts.ravel()
    for k, cells in enumerate(offsets):
        if len(cells) == 0:
            continue
        slices = (win[:, :, :, r + dr, r + dc] for dr, dc in cells)
        acc[...] = next(slices)
        for sl in slices:
            combine(acc, sl, out=acc)
        if config.pooling_mode == "mean":
            acc /= counts[k]
        pooled[:, :, :, k] = acc
    pooled = pooled.reshape(n, *grid_hw, -1)
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


def _region_kernel(weights: LpscWeights) -> np.ndarray:
    """The region weights as a 1x1 kernel over the pooled region channels."""
    return weights.regions.reshape(1, 1, -1, weights.out_channels)


def lpsc_forward_fast(input, config: LpscConfig, weights: LpscWeights):
    """Pooling + 1x1 region convolution + separate center convolution."""
    xb, batched = ensure_batched(input)
    _check_weights(config, weights, xb.shape[3])
    pooled = log_polar_pool(xb, config)
    out = conv2d_raw(pooled, _region_kernel(weights), bias=weights.bias)
    if config.center_conv:
        r, size = config.radius, config.kernel_size
        centers = windows(pad(xb, config.padding), (size, size), config.stride)[:, :, :, r, r]
        out += np.einsum("nijc,cd->nijd", centers, weights.center)
    return out if batched else out[0]


def lpsc_forward_reference(input, config: LpscConfig, weights: LpscWeights):
    """Direct evaluation of the region-weighted definition, cell by cell."""
    xb, batched = ensure_batched(input)
    _check_weights(config, weights, xb.shape[3])
    mask, offsets = _plan(config)
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


def lpsc_backward(input, config: LpscConfig, weights: LpscWeights, grad_output):
    """Exact adjoints of the forward map: (grad_input, LpscWeights grads).

    Computed against the fast path: the 1x1 region-convolution adjoint,
    then the pooling adjoint scatters each region channel back through
    that region's cells.
    """
    xb, batched = ensure_batched(input)
    _check_weights(config, weights, xb.shape[3])
    mask, offsets = _plan(config)
    grid_hw = lpsc_output_shape(xb.shape[1:3], config)
    g, _ = ensure_batched(grad_output)
    expected = (xb.shape[0], grid_hw[0], grid_hw[1], weights.out_channels)
    if g.shape != expected:
        raise ValueError(f"grad_output shape {g.shape} does not match output {expected}")

    pooled = log_polar_pool(xb, config)
    grad_pooled, grad_kernel, grad_bias = conv2d_raw_backward(
        pooled, _region_kernel(weights), g, has_bias=weights.bias is not None
    )
    grad_regions = grad_kernel.reshape(weights.regions.shape)
    grad_pooled = grad_pooled.reshape(*g.shape[:3], len(offsets), xb.shape[3])

    r, size = config.radius, config.kernel_size
    xp = pad(xb, config.padding)
    win = windows(xp, (size, size), config.stride)
    grad_xp = np.zeros_like(xp)
    grad_win = windows(grad_xp, (size, size), config.stride, writeable=True)
    counts = mask.counts.ravel()
    for k, cells in enumerate(offsets):
        if len(cells) == 0:
            continue
        gk = grad_pooled[:, :, :, k]
        if config.pooling_mode == "max":
            stack = np.stack([win[:, :, :, r + dr, r + dc] for dr, dc in cells])
            winner = stack.argmax(axis=0)  # first maximal cell wins ties
            for t, (dr, dc) in enumerate(cells):
                grad_win[:, :, :, r + dr, r + dc] += gk * (winner == t)
        else:
            share = gk / max(int(counts[k]), 1) if config.pooling_mode == "mean" else gk
            for dr, dc in cells:
                grad_win[:, :, :, r + dr, r + dc] += share

    grad_center = np.zeros_like(weights.center)
    if config.center_conv:
        grad_center += np.einsum("nijc,nijd->cd", win[:, :, :, r, r], g)
        grad_win[:, :, :, r, r] += np.einsum("nijd,cd->nijc", g, weights.center)

    grad_input = unpad(grad_xp, config.padding)
    if not batched:
        grad_input = grad_input[0]
    return grad_input, LpscWeights(center=grad_center, regions=grad_regions, bias=grad_bias)


def save_lpsc_weights(path, weights: LpscWeights) -> None:
    """Write weights to *path* in LPSCW v1 format; NaN or Inf raises before the file opens."""
    lr, lt, cin, cout = weights.regions.shape
    blocks = [weights.center, weights.regions]
    if weights.bias is not None:
        blocks.append(weights.bias)
    if not all(np.all(np.isfinite(b)) for b in blocks):
        raise ValueError(f"{path}: refusing to write NaN or Inf")
    header = f"LPSCW v1 {lr} {lt} {cin} {cout} {int(weights.bias is not None)}\n"
    with open(path, "wb") as fh:
        fh.write(header.encode("ascii"))
        for block in blocks:
            fh.write(block.astype("<f8").tobytes(order="C"))


def load_lpsc_weights(path) -> LpscWeights:
    """Read and validate an LPSCW v1 file."""
    with open(path, "rb") as fh:
        header = fh.readline()
        blob = fh.read()
    parts = header.decode("ascii", errors="replace").split()
    if len(parts) != 7 or parts[0] != "LPSCW" or parts[1] != "v1":
        raise ValueError(f"{path}: not a LPSCW v1 file")
    try:
        lr, lt, cin, cout, has_bias = (int(p) for p in parts[2:])
    except ValueError:
        raise ValueError(f"{path}: malformed LPSCW header") from None
    if min(lr, lt, cin, cout) < 1 or has_bias not in (0, 1):
        raise ValueError(f"{path}: invalid LPSCW dimensions")
    n_center = cin * cout
    n_regions = lr * lt * cin * cout
    expected = 8 * (n_center + n_regions + (cout if has_bias else 0))
    if len(blob) != expected:
        raise ValueError(f"{path}: payload holds {len(blob)} bytes, expected {expected}")
    flat = np.frombuffer(blob, dtype="<f8").astype(np.float64)
    if not np.all(np.isfinite(flat)):
        raise ValueError(f"{path}: non-finite values in payload")
    center = flat[:n_center].reshape(cin, cout)
    regions = flat[n_center : n_center + n_regions].reshape(lr, lt, cin, cout)
    bias = flat[n_center + n_regions :].copy() if has_bias else None
    return LpscWeights(center=center.copy(), regions=regions.copy(), bias=bias)
