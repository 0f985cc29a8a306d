"""Comparison operators: dilated convolution and square-shared convolution.

Dilated convolution spaces the k x k kernel taps (k odd) by a dilation
rate, reading (k-1)*rate + 1 input cells per axis while keeping k^2
parameters.
Square-shared convolution tiles a k x k kernel into (k/p)^2 equal square
blocks of side p; all positions inside a block share one parameter. The
sharing is uniform (no population normalization and no separate center
weight), which is the deliberate contrast with the log-polar operator.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .conv import as_geometry, check_fields, conv2d_raw, conv2d_raw_backward

__all__ = [
    "DilatedConfig",
    "SquareShareConfig",
    "dilated_conv2d",
    "dilated_conv2d_backward",
    "expand_square_weights",
    "square_share_conv2d",
    "square_share_conv2d_backward",
]


@dataclass(frozen=True)
class DilatedConfig:
    kernel_size: int
    dilation: int = 1
    stride: tuple[int, int] = (1, 1)
    padding: tuple[int, int] = (0, 0)

    def __post_init__(self):
        check_fields(self)
        as_geometry(self.stride, self.padding, self.dilation)
        if self.kernel_size < 1 or self.kernel_size % 2 == 0:  # a dilated kernel has a center tap
            raise ValueError(f"kernel_size must be odd and >= 1, got {self.kernel_size}")


@dataclass(frozen=True)
class SquareShareConfig:
    kernel_size: int
    pool_size: int = 1
    stride: tuple[int, int] = (1, 1)
    padding: tuple[int, int] = (0, 0)

    def __post_init__(self):
        check_fields(self)
        as_geometry(self.stride, self.padding)
        if self.pool_size < 1:
            raise ValueError(f"pool_size must be >= 1, got {self.pool_size}")
        if self.kernel_size < 1 or self.kernel_size % self.pool_size != 0:
            raise ValueError(
                f"kernel_size {self.kernel_size} must be divisible by pool_size {self.pool_size}"
            )

    @property
    def regions_per_side(self) -> int:
        return self.kernel_size // self.pool_size


def _dilated_kernel(weights, config: DilatedConfig) -> np.ndarray:
    """*weights* as float64, their k x k taps checked against the config."""
    w = np.asarray(weights, dtype=np.float64)
    k = config.kernel_size
    if w.shape[:2] != (k, k):
        raise ValueError(f"kernel is {w.shape[:2]}, config wants {k}")
    return w


def dilated_conv2d(input, weights, config: DilatedConfig, bias=None):
    """Convolution with taps spaced by the dilation rate (zeros skipped)."""
    w, d = _dilated_kernel(weights, config), (config.dilation, config.dilation)
    return conv2d_raw(input, w, config.stride, config.padding, d, bias=bias)


def dilated_conv2d_backward(input, weights, config: DilatedConfig, grad_output, *, input_grad=True):
    """Adjoints of dilated_conv2d: (grad_input, grad_weights, grad_bias), the
    bias gradient always returned; grad_input is None, and not computed,
    with ``input_grad=False``."""
    w, d = _dilated_kernel(weights, config), (config.dilation, config.dilation)
    return conv2d_raw_backward(input, w, grad_output, config.stride, config.padding, d,
                               input_grad=input_grad)


def expand_square_weights(region_weights, pool_size: int) -> np.ndarray:
    """Tile each region weight into a pool_size x pool_size block."""
    w = np.asarray(region_weights, dtype=np.float64)
    if w.ndim != 4:
        raise ValueError(f"region weights must be rank-4, got rank {w.ndim}")
    return np.repeat(np.repeat(w, pool_size, axis=0), pool_size, axis=1)


def _square_kernel(region_weights, config: SquareShareConfig) -> np.ndarray:
    """The full kernel of *region_weights*, their region grid checked against the config."""
    w = np.asarray(region_weights, dtype=np.float64)
    side = config.regions_per_side
    if w.shape[:2] != (side, side):
        raise ValueError(f"region grid is {w.shape[:2]}, config wants ({side}, {side})")
    return expand_square_weights(w, config.pool_size)


def square_share_conv2d(input, region_weights, config: SquareShareConfig, bias=None):
    """Convolution whose effective kernel repeats each region weight."""
    full = _square_kernel(region_weights, config)
    return conv2d_raw(input, full, config.stride, config.padding, bias=bias)


def square_share_conv2d_backward(input, region_weights, config: SquareShareConfig, grad_output, *,
                                 input_grad=True):
    """Adjoints: (grad_input, grad_regions, grad_bias), the bias gradient always
    returned; the region-weight gradient sums its block of the full-kernel gradient.
    grad_input is None, and not computed, with ``input_grad=False``."""
    full = _square_kernel(region_weights, config)
    grad_x, grad_full, grad_b = conv2d_raw_backward(input, full, grad_output, config.stride,
                                                    config.padding, input_grad=input_grad)
    p = config.pool_size
    side = config.regions_per_side
    grad_regions = grad_full.reshape(side, p, side, p, *grad_full.shape[2:]).sum(axis=(1, 3))
    return grad_x, grad_regions, grad_b
