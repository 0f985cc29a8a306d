"""Quantitative instruments: cost accounting, receptive fields, kernel images
(drawn from an lpsc layer's config, which alone fixes the mask and the center).

Counting rules, applied exactly (not asymptotically):

* one multiply and one add per kernel-tap/channel contribution, so a
  k x k convolution over C_in -> C_out costs H'*W'*k*k*C_in*C_out of each;
* the bias adds one addition per output element;
* log-polar layers split into the region terms of the 1x1 convolution
  over the pooled slots (H'*W'*levels_r*levels_theta*C_in*C_out), its
  center term (H'*W'*C_in*C_out, when enabled), and pooling: one add per
  in-field mask cell (H'*W'*n_cells*C_in) plus, in mean mode, one
  multiply per region and channel for the 1/N scaling
  (H'*W'*levels_r*levels_theta*C_in); copying the center cell into its
  slot is free;
* the pooled tensor occupies H'*W'*(levels_r*levels_theta + 1)*C_in
  cells with the center slot, H'*W'*levels_r*levels_theta*C_in without;
* dilated convolution touches only its k*k real taps (holes are free);
  square-shared convolution executes its expanded k x k kernel;
* mean pooling over a p x p window costs p*p adds plus one multiply per
  output element; max pooling and relu count zero (comparisons are free).

Receptive fields are estimated by backpropagating a unit gradient from a
single output location (channel 0) on a fixed random input and reading
the support of |grad| > 1e-12, which identifies structural support under
float64.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from .geometry import LogPolarMask, LpscConfig, build_mask, squared_cell_distance
from .lpsc import LpscWeights, check_region_grid
from .network import Network, NetSpec, build_network
from .raster import pgm_bytes, to_gray

__all__ = [
    "LayerCost",
    "CostReport",
    "count_costs",
    "RfReport",
    "estimate_rf",
    "visualize_kernel",
    "nearest_region_grid",
    "kernel_to_pgm",
    "rf_to_pgm",
]

SUPPORT_THRESHOLD = 1e-12


@dataclass
class LayerCost:
    name: str
    kind: str
    output_shape: tuple
    params: int
    mults: int
    adds: int
    pooled_cells: int = 0
    detail: dict = field(default_factory=dict)


@dataclass
class CostReport:
    input_shape: tuple
    layers: list

    @property
    def total_params(self) -> int:
        return sum(l.params for l in self.layers)

    @property
    def total_mults(self) -> int:
        return sum(l.mults for l in self.layers)

    @property
    def total_adds(self) -> int:
        return sum(l.adds for l in self.layers)

    @property
    def total_pooled_cells(self) -> int:
        return sum(l.pooled_cells for l in self.layers)

    def _rows(self, pooled) -> list:
        """The header (its last column named *pooled*), one row per layer,
        then the totals, every cell a string."""
        rows = [("layer", "kind", "output", "params", "mults", "adds", pooled)]
        for l in self.layers:
            shape = "x".join(str(d) for d in l.output_shape)
            rows.append((l.name, l.kind, shape, l.params, l.mults, l.adds, l.pooled_cells))
        rows.append(("total", "", "", self.total_params, self.total_mults, self.total_adds,
                     self.total_pooled_cells))
        return [[str(cell) for cell in row] for row in rows]

    def to_text(self) -> str:
        rows = self._rows("pooled")
        widths = [max(len(r[i]) for r in rows) for i in range(len(rows[0]))]
        return "\n".join(
            "  ".join(cell.ljust(w) for cell, w in zip(row, widths)).rstrip() for row in rows
        )

    def to_csv(self) -> str:
        return "".join(",".join(row) + "\n" for row in self._rows("pooled_cells"))


def _layer_cost(layer, in_shape, out_shape) -> LayerCost:
    params = sum(a.size for a in layer.params().values())
    kind = layer.kind
    mults = adds = pooled = 0
    detail = {}
    if kind in ("conv", "dilated", "square_share"):
        mults = adds = out_shape[0] * out_shape[1] * layer.window()[0] ** 2 * in_shape[2] * out_shape[2]
    elif kind == "lpsc":
        cfg = layer.config
        locations = out_shape[0] * out_shape[1]
        cin, cout = in_shape[2], out_shape[2]
        regions = cfg.levels_r * cfg.levels_theta
        n_cells = int(build_mask(cfg).counts.sum())
        conv_mults = locations * regions * cin * cout
        center_mults = locations * cin * cout if cfg.center_conv else 0
        pool_mults = locations * regions * cin if cfg.pooling_mode == "mean" else 0
        pool_adds = locations * n_cells * cin if cfg.pooling_mode != "max" else 0
        mults = conv_mults + center_mults + pool_mults
        adds = conv_mults + center_mults + pool_adds
        pooled = locations * layer.cells() * cin
        detail = {
            "conv_mults": conv_mults,
            "center_mults": center_mults,
            "pool_mults": pool_mults,
            "pool_adds": pool_adds,
            "in_field_cells": n_cells,
        }
    elif kind == "dense":
        mults = adds = in_shape[0] * layer.units
    elif kind == "meanpool":
        locations = out_shape[0] * out_shape[1] * out_shape[2]
        adds = locations * layer.size**2
        mults = locations
    # relu, maxpool, flatten cost nothing under these rules
    if "bias" in layer.params():  # one add per output element
        adds += math.prod(out_shape)
    return LayerCost(layer.name, kind, tuple(out_shape), params, mults, adds, pooled, detail)


def count_costs(spec: NetSpec, input_shape=None) -> CostReport:
    """Exact per-layer parameter and operation counts for a network spec."""
    if input_shape is not None:
        spec = replace(spec, input_shape=input_shape)
    net = build_network(spec, seed=0, require_logits=False)
    layers = [
        _layer_cost(layer, in_shape, out_shape)
        for layer, in_shape, out_shape in zip(net.layers, net.shapes[:-1], net.shapes[1:])
    ]
    return CostReport(input_shape=tuple(spec.input_shape), layers=layers)


@dataclass
class RfReport:
    """Gradient map of one output location over the input plane."""

    location: tuple[int, int]
    grad_map: np.ndarray  # (H, W), |grad| summed over channels
    support: np.ndarray  # boolean (H, W)
    bbox: tuple[int, int]  # nonzero-support bounding box (rows, cols)


def estimate_rf(network: Network, output_location=None, seed=0) -> RfReport:
    """Backpropagate a unit gradient from one spatial output location of one
    random input of the network's own input shape."""
    rng = np.random.default_rng(seed)
    x = rng.uniform(0.25, 1.0, size=(1, *network.shapes[0]))
    out = network.forward(x)
    if out.ndim != 4:
        raise ValueError("receptive-field estimation needs a spatial network output")
    _, ho, wo, _ = out.shape
    if output_location is None:
        output_location = (ho // 2, wo // 2)
    i, j = (int(v) for v in output_location)
    if not (0 <= i < ho and 0 <= j < wo):
        raise ValueError(f"output_location {output_location} is outside the {ho}x{wo} output grid")
    seed_grad = np.zeros_like(out)
    seed_grad[0, i, j, 0] = 1.0
    grad_input, _ = network.backward(seed_grad)
    grad_map = np.abs(grad_input[0]).sum(axis=-1)
    support = grad_map > SUPPORT_THRESHOLD
    if support.any():
        rows = np.flatnonzero(support.any(axis=1))
        cols = np.flatnonzero(support.any(axis=0))
        bbox = (int(rows[-1] - rows[0] + 1), int(cols[-1] - cols[0] + 1))
    else:
        bbox = (0, 0)
    return RfReport(location=(i, j), grad_map=grad_map, support=support, bbox=bbox)


def nearest_region_grid(mask: LogPolarMask) -> np.ndarray:
    """Region index of the nearest in-field cell, for every outside cell.

    Distance between cells uses the mask's own metric (elliptical when its
    eccentricity is nonzero); ties resolve to the first cell in row-major
    order. In-field cells keep their own region; the center keeps -1.
    """
    grid = mask.index_grid
    filled = grid.copy()
    inside = np.argwhere(grid > 0)  # row-major, so argmin keeps the first of a tie
    outside = np.argwhere(grid == 0)
    if not len(inside):
        return filled
    regions = grid[grid > 0]
    step = max(1, 2**17 // len(inside))  # cell pairs per chunk: 1 MB temporaries
    for start in range(0, len(outside), step):
        rows, cols = outside[start : start + step].T
        d = squared_cell_distance(rows[:, None] - inside[:, 0], cols[:, None] - inside[:, 1],
                                  mask.alpha, mask.eccentricity)
        filled[rows, cols] = regions[d.argmin(axis=1)]
    return filled


def visualize_kernel(weights: LpscWeights, config: LpscConfig, fill_corners=True) -> np.ndarray:
    """Paint region weights onto the kernel grid of the lpsc layer *config*.

    Returns (C_in, C_out, size, size) float64. In-field cells carry their
    region's weight, the center its center weight and, when fill_corners
    is on, outside cells the nearest region's. A cell with no weight (an
    unfilled corner, or the center without ``center_conv``) is NaN: black.
    """
    check_region_grid(weights, config)
    mask = build_mask(config)
    grid = nearest_region_grid(mask) if fill_corners else mask.index_grid
    cin, cout = weights.center.shape
    nan = np.full((1, cin, cout), np.nan)
    # row k of the table is what grid value k paints: NaN outside (0), region
    # k (1..levels_r*levels_theta), and the center (-1) as the last row
    center = weights.center[None] if config.center_conv else nan
    table = np.concatenate([nan, weights.regions.reshape(-1, cin, cout), center])
    return table[grid].transpose(2, 3, 0, 1)


def kernel_to_pgm(kernel_image) -> bytes:
    """Render one (size, size) kernel image; NaN cells show as black."""
    return pgm_bytes(to_gray(kernel_image))


def rf_to_pgm(report: RfReport) -> bytes:
    """Render a gradient map normalized by its maximum absolute value."""
    gm = report.grad_map
    peak = float(gm.max())
    scaled = gm / peak if peak > 0 else gm
    return pgm_bytes(np.rint(scaled * 255).astype(np.uint8))
