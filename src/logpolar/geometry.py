"""Log-polar kernel geometry.

A log-polar kernel of size 2R+1 partitions the disk of squared radius R^2
around the window center into ``levels_r`` radial shells times
``levels_theta`` angular sectors, plus the center cell itself. All radial
thresholds live in squared-distance units. Shell thresholds grow
geometrically with ratio ``growth``:

    R_l = R_1 * growth^(l-1),   R_1 = max(2, R^2 / growth^(levels_r - 1))

so the receptive field grows exponentially in the number of shells while
the parameter count stays at levels_r * levels_theta + 1. The floor of 2
on R_1 keeps the whole 8-neighborhood inside shell 1 whenever R >= 2.

Conventions, fixed here once for the whole package:

* distance-level membership is inclusive-upper: shell l holds cells with
  R_{l-1} < d <= R_l (R_0 = 0); cells with d > R^2 are outside the
  receptive field even when the clamped shell chain extends past R^2;
* the direction angle is theta = atan2(-drow, dcol), measured
  counterclockwise from the reference vector (0, 1) (towards increasing
  column) in display orientation, normalized to [0, 2*pi), then shifted
  by ``alpha``; sector m covers [2*pi*(m-1)/L, 2*pi*m/L) and boundary
  ties go to the higher sector;
* with eccentricity e > 0 the squared distance becomes the elliptical
  form u^2 + v^2 / (1 - e^2), where (u, v) is the cell offset in (col,
  -row) coordinates rotated by -alpha.

The mask's ``index_grid`` encodes: -1 center, 0 outside, and
k = (l-1) * levels_theta + m for a cell in shell l, sector m.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .conv import _MAX_NUMBERS, as_geometry, check_fields
from .raster import pgm_bytes

__all__ = [
    "DegenerateGeometryWarning",
    "LpscConfig",
    "LogPolarMask",
    "region_radii",
    "build_mask",
    "mask_to_text",
    "mask_to_pgm",
]

_TWO_PI = 2.0 * math.pi

# snap tolerance for sector-boundary ties; cell angles for integer offsets
# are never this close to a boundary unless they sit exactly on it
_BIN_EPS = 1e-9

POOLING_MODES = ("mean", "sum", "max")


class DegenerateGeometryWarning(UserWarning):
    """Raised when the floor on R_1 leaves at least one shell empty."""


def _power(base: float, exponent: int) -> float:
    """``base ** exponent``, or inf past the largest float."""
    try:
        return base**exponent
    except OverflowError:
        return math.inf


@dataclass(frozen=True)
class LpscConfig:
    """Full hyper-parameter set of one log-polar convolution kernel (a mask of <= 2**26 cells)."""

    kernel_size: int
    levels_r: int
    levels_theta: int
    growth: float
    alpha: float = 0.0
    eccentricity: float = 0.0
    stride: tuple[int, int] = (1, 1)
    padding: tuple[int, int] = (0, 0)
    pooling_mode: str = "mean"
    center_conv: bool = True

    def __post_init__(self):
        check_fields(self)
        as_geometry(self.stride, self.padding)
        if self.kernel_size < 3 or self.kernel_size % 2 == 0:
            raise ValueError(f"kernel_size must be odd and >= 3, got {self.kernel_size}")
        if self.kernel_size**2 > _MAX_NUMBERS:
            raise ValueError(f"kernel_size must be at most {math.isqrt(_MAX_NUMBERS)}, a mask of "
                             f"{_MAX_NUMBERS} cells, got {self.kernel_size}")
        if self.levels_r < 1:
            raise ValueError(f"levels_r must be >= 1, got {self.levels_r}")
        if self.levels_theta < 2 or self.levels_theta % 2 != 0:
            raise ValueError(f"levels_theta must be even and >= 2, got {self.levels_theta}")
        if self.growth <= 1.0:
            raise ValueError(f"growth must be > 1, got {self.growth}")
        if not 0.0 <= self.eccentricity < 1.0:
            raise ValueError(f"eccentricity must lie in [0, 1), got {self.eccentricity}")
        if self.pooling_mode not in POOLING_MODES:
            raise ValueError(
                f"pooling_mode must be one of {POOLING_MODES}, got {self.pooling_mode!r}"
            )
        if self.levels_r >= 2 and self.radius**2 / _power(self.growth, self.levels_r - 2) <= 2.0:
            # the floor R_1 = 2 swallows at least one further shell: the
            # second-to-last threshold already reaches past R^2
            warnings.warn(  # worded as an error is, from the field, for ``conv.renamed``
                f"kernel_size {self.kernel_size} is degenerate with levels_r={self.levels_r}, "
                f"growth={self.growth}: the R_1 floor of 2 leaves empty outer shells",
                DegenerateGeometryWarning,
                stacklevel=3,  # the caller of LpscConfig(...), past the generated __init__
            )

    @property
    def radius(self) -> int:
        return (self.kernel_size - 1) // 2


@dataclass(frozen=True, eq=False)
class LogPolarMask:
    """Precomputed region-index grid for one kernel configuration.

    ``index_grid`` is (size, size) int: -1 center, 0 outside,
    k = (l-1)*levels_theta + m for region (l, m). ``counts[l-1, m-1]``
    is the cell population of region (l, m); empty regions keep count 0
    and are clamped to 1 only at division time. ``radii`` holds the
    squared-distance shell thresholds R_1..R_{levels_r}.
    """

    size: int
    index_grid: np.ndarray
    counts: np.ndarray
    radii: np.ndarray
    alpha: float = 0.0
    eccentricity: float = 0.0

    @property
    def levels_r(self) -> int:
        return self.counts.shape[0]

    @property
    def levels_theta(self) -> int:
        return self.counts.shape[1]

    @property
    def radius(self) -> int:
        return (self.size - 1) // 2


def region_radii(config: LpscConfig) -> np.ndarray:
    """Squared-distance shell thresholds R_1..R_{levels_r}.

    The last entry is max(R^2, R_1 * growth^(levels_r-1)) so membership
    always finds a shell for any in-field cell.
    """
    rr = float(config.radius * config.radius)
    r1 = max(2.0, rr / _power(config.growth, config.levels_r - 1))
    radii = np.array([r1 * _power(config.growth, l) for l in range(config.levels_r)])
    radii[-1] = max(radii[-1], rr)
    return radii


def squared_cell_distance(drow, dcol, alpha=0.0, eccentricity=0.0):
    """Squared distance of an integer cell offset from the window center.

    Circular (exact integer arithmetic) when eccentricity is 0; otherwise
    the elliptical form with the major axis along ``alpha``. Elementwise on arrays.
    """
    x = dcol * 1.0
    y = drow * -1.0
    if eccentricity > 0.0:
        ca, sa = math.cos(alpha), math.sin(alpha)
        u = x * ca + y * sa
        v = -x * sa + y * ca
        return u * u + v * v / (1.0 - eccentricity * eccentricity)
    return x * x + y * y


def direction_sector(drow, dcol, alpha, levels_theta):
    """1-based angular sector of a non-center cell offset. Elementwise on arrays."""
    t = (np.arctan2(-drow, dcol) + alpha) % _TWO_PI  # theta, shifted by alpha
    u = t / (_TWO_PI / levels_theta)
    return np.floor(u + _BIN_EPS).astype(np.int64) % levels_theta + 1


@lru_cache(maxsize=None)
def build_mask(config: LpscConfig) -> LogPolarMask:
    """Construct (or fetch the cached) region mask for *config*.

    Cells are classified by array code over whole rows, about 2**17 cells
    a chunk, so temporaries stay bounded however large the kernel.
    """
    size, radius, lt = config.kernel_size, config.radius, config.levels_theta
    rr = float(radius * radius)
    radii = region_radii(config)
    grid = np.zeros((size, size), dtype=np.int64)
    tally = np.zeros(config.levels_r * lt + 1, dtype=np.int64)
    dc = np.arange(size) - radius
    step = max(1, 2**17 // size)
    for top in range(0, size, step):
        dr = np.arange(top, min(top + step, size))[:, None] - radius
        d = squared_cell_distance(dr, dc, config.alpha, config.eccentricity)
        # searchsorted's left side is the inclusive-upper rule R_{l-1} < d <= R_l
        region = np.searchsorted(radii, d) * lt + direction_sector(dr, dc, config.alpha, lt)
        block = np.where((0.0 < d) & (d <= rr), region, 0)  # d is 0 at the center alone
        grid[top : top + step] = block
        tally += np.bincount(block.ravel(), minlength=tally.size)
    grid[radius, radius] = -1
    counts = tally[1:].reshape(config.levels_r, lt)
    for arr in (grid, counts, radii):
        arr.flags.writeable = False
    return LogPolarMask(size=size, index_grid=grid, counts=counts, radii=radii,
                        alpha=config.alpha, eccentricity=config.eccentricity)


def mask_to_text(mask: LogPolarMask) -> str:
    """Render the index grid: C center, . outside, region index elsewhere."""
    width = len(str(mask.levels_r * mask.levels_theta))
    names = {-1: "C", 0: "."}
    return "\n".join(" ".join(names.get(v, str(v)).rjust(width) for v in row)
                     for row in mask.index_grid.tolist())


def mask_to_pgm(mask: LogPolarMask) -> bytes:
    """Binary PGM (P5) raster: one byte per cell, region index scaled to 0-255.

    Outside cells map to 0, the center to 255, region k to
    round(255 * k / (n_regions + 1)).
    """
    n_regions = mask.levels_r * mask.levels_theta
    img = np.zeros((mask.size, mask.size), dtype=np.uint8)
    region = mask.index_grid > 0
    img[region] = np.rint(255.0 * mask.index_grid[region] / (n_regions + 1)).astype(np.uint8)
    img[mask.index_grid == -1] = 255
    return pgm_bytes(img)
