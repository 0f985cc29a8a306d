"""Dense float64 arrays and the float64 file container.

Every value in this package travels as a plain numpy float64 array in C
(row-major) order with the channel axis innermost: (H, W, C) for a single
feature map, (N, H, W, C) for a batch. External data is validated on the
way in, by the TNSR and LPSCW reader below, ``Dataset`` and ``load_idx``;
NaN and Inf are rejected.

The container (``_write_float64``/``_read_float64``) is one ASCII header
line ``<magic> v1 <integers>`` terminated by ``\\n``, then float64 blocks,
little-endian, each in C order; the integers fix the blocks' shapes. A
format declares only its magic, header integers and block shapes. TNSR v1
is ``TNSR v1 <ndim> <d0> <d1> ...`` then the array, a 0-d array stored
with shape (1,); LPSCW v1 is in ``lpsc.py``. Files round-trip bit-exactly.
"""

from __future__ import annotations

import math

import numpy as np

__all__ = ["save_tensor", "load_tensor"]


def _write_float64(path, magic, fields, blocks) -> None:
    """Write ``<magic> v1 <fields>``, then each block as ``<f8`` in C order;
    NaN or Inf in any block raises before the file opens."""
    if not all(np.all(np.isfinite(block)) for block in blocks):
        raise ValueError(f"{path}: refusing to write NaN or Inf")
    header = " ".join([magic, "v1", *map(str, fields)]) + "\n"
    with open(path, "wb") as fh:
        fh.write(header.encode("ascii"))
        for block in blocks:
            fh.write(np.asarray(block).astype("<f8").tobytes(order="C"))


def _read_float64(path, magic, layout) -> list:
    """Read a ``<magic> v1 <integers>`` file into its float64 blocks.

    *layout* maps the header's integers to the blocks' shapes, or raises
    ValueError if they are invalid. Lengths are counted in Python ints,
    so no header can overflow them; every error names *path*.
    """
    with open(path, "rb") as fh:
        header = fh.readline()
        blob = fh.read()
    parts = header.decode("ascii", errors="replace").split()
    if parts[:2] != [magic, "v1"]:
        raise ValueError(f"{path}: not a {magic} v1 file")
    try:
        shapes = layout([int(p) for p in parts[2:]])
    except ValueError as exc:
        raise ValueError(f"{path}: malformed {magic} header: {exc}") from None
    sizes = [math.prod(shape) for shape in shapes]
    if len(blob) != 8 * sum(sizes):
        raise ValueError(f"{path}: payload holds {len(blob)} bytes, expected {8 * sum(sizes)}")
    flat = np.frombuffer(blob, dtype="<f8").astype(np.float64)
    if not np.all(np.isfinite(flat)):
        raise ValueError(f"{path}: non-finite values in payload")
    try:  # an empty block whose other dims pass the address space fails here
        return [a.reshape(s) for a, s in zip(np.split(flat, np.cumsum(sizes[:-1])), shapes)]
    except ValueError:
        raise ValueError(f"{path}: {magic} dims {shapes} are too large") from None


def _tensor_layout(fields):
    """TNSR header ``<ndim> <d0> ...``: one block of that shape."""
    if not fields or fields[0] != len(fields) - 1 or min(fields) < 0:
        raise ValueError("expected <ndim> then ndim dims >= 0")
    return [fields[1:]]


def save_tensor(path, arr) -> None:
    """Write *arr* to *path* in TNSR v1 format; NaN or Inf raises before the file opens."""
    arr = np.ascontiguousarray(arr, dtype=np.float64)  # a 0-d array becomes shape (1,)
    _write_float64(path, "TNSR", [arr.ndim, *arr.shape], [arr])


def load_tensor(path) -> np.ndarray:
    """Read a TNSR v1 file, validating header, length, and finiteness."""
    (arr,) = _read_float64(path, "TNSR", _tensor_layout)
    return arr
