"""Dense float64 arrays and the TNSR on-disk format.

Every value in this package travels as a plain numpy float64 array in C
(row-major) order with the channel axis innermost: (H, W, C) for a single
feature map, (N, H, W, C) for a batch. External data is validated on the
way in; NaN and Inf are rejected.

TNSR v1 file format: one ASCII header line

    TNSR v1 <ndim> <d0> <d1> ...

terminated by ``\\n``, followed by the payload as little-endian IEEE-754
float64 in C order. The layout is fixed so files round-trip bit-exactly.
"""

from __future__ import annotations

import numpy as np

__all__ = ["tensor", "save_tensor", "load_tensor"]


def tensor(data, shape=None) -> np.ndarray:
    """Build a validated float64 array, rejecting NaN/Inf entries."""
    arr = np.array(data, dtype=np.float64, order="C", copy=True)
    if shape is not None:
        arr = arr.reshape(shape)
    if not np.all(np.isfinite(arr)):
        raise ValueError("tensor entries must be finite, got NaN or Inf")
    return arr


def save_tensor(path, arr) -> None:
    """Write *arr* to *path* in TNSR v1 format."""
    arr = np.ascontiguousarray(arr, dtype=np.float64)
    dims = " ".join(str(d) for d in arr.shape)
    header = f"TNSR v1 {arr.ndim}{' ' if dims else ''}{dims}\n"
    with open(path, "wb") as fh:
        fh.write(header.encode("ascii"))
        fh.write(arr.astype("<f8").tobytes(order="C"))


def load_tensor(path) -> np.ndarray:
    """Read a TNSR v1 file, validating header, length, and finiteness."""
    with open(path, "rb") as fh:
        header = fh.readline()
        blob = fh.read()
    parts = header.decode("ascii", errors="replace").split()
    if len(parts) < 3 or parts[0] != "TNSR" or parts[1] != "v1":
        raise ValueError(f"{path}: not a TNSR v1 file")
    try:
        ndim = int(parts[2])
        dims = [int(p) for p in parts[3:]]
    except ValueError:
        raise ValueError(f"{path}: malformed TNSR header") from None
    if len(dims) != ndim or any(d < 0 for d in dims):
        raise ValueError(f"{path}: header lists {len(dims)} dims, expected {ndim}")
    count = int(np.prod(dims, dtype=np.int64)) if dims else 1
    if len(blob) != 8 * count:
        raise ValueError(f"{path}: payload holds {len(blob)} bytes, expected {8 * count}")
    arr = np.frombuffer(blob, dtype="<f8").astype(np.float64).reshape(dims)
    if not np.all(np.isfinite(arr)):
        raise ValueError(f"{path}: non-finite values in payload")
    return arr
