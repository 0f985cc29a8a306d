"""Binary PGM (P5) writer for debug rasters."""

from __future__ import annotations

import numpy as np

__all__ = ["pgm_bytes", "to_gray"]


def pgm_bytes(img) -> bytes:
    """Encode a (H, W) uint8 array as binary PGM."""
    img = np.asarray(img, dtype=np.uint8)
    if img.ndim != 2:
        raise ValueError(f"PGM needs a 2-D array, got shape {img.shape}")
    header = f"P5\n{img.shape[1]} {img.shape[0]}\n255\n".encode("ascii")
    return header + img.tobytes(order="C")


def to_gray(values) -> np.ndarray:
    """Min-max scale finite values into [32, 255]; NaN cells map to 0, darker than any."""
    values = np.asarray(values, dtype=np.float64)
    finite = np.isfinite(values)
    out = np.zeros(values.shape, dtype=np.uint8)
    if not finite.any():
        return out
    lo = float(np.min(values[finite]))
    span = float(np.max(values[finite])) - lo
    if span <= 0:
        out[finite] = 255
        return out
    scaled = (values[finite] - lo) / span
    out[finite] = np.rint(32 + scaled * (255 - 32)).astype(np.uint8)
    return out
