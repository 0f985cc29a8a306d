"""Dataset ingestion (IDX files) and synthetic task generation.

IDX is the big-endian binary container: images carry magic 0x00000803
(unsigned-byte payload, 3 dims), labels carry 0x00000801 (1 dim), each
dimension size a big-endian uint32 (>= 1), then the raw bytes. Pixels
are scaled to [0, 1] by 1/255 on load and rounded back on save, so files
round-trip byte-exactly. No mean/std normalization is applied.
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass

import numpy as np

__all__ = [
    "Dataset",
    "load_idx",
    "save_idx",
    "make_oriented_edges",
]

IMAGE_MAGIC = 0x00000803
LABEL_MAGIC = 0x00000801


@dataclass
class Dataset:
    """Images (N, H, W, C) scaled to [0, 1] with integer class labels."""

    images: np.ndarray
    labels: np.ndarray
    num_classes: int

    def __post_init__(self):
        self.images = np.asarray(self.images, dtype=np.float64)
        self.labels = np.asarray(self.labels, dtype=np.int64)
        if self.images.ndim != 4:
            raise ValueError(f"images must be (N, H, W, C), got shape {self.images.shape}")
        if self.images.shape[0] < 1:
            raise ValueError("dataset must hold at least one sample")
        if self.labels.shape != (self.images.shape[0],):
            raise ValueError(
                f"{self.labels.shape[0] if self.labels.ndim == 1 else 'misshaped'} labels "
                f"for {self.images.shape[0]} images"
            )
        if not np.all(np.isfinite(self.images)):
            raise ValueError("images contain NaN or Inf")
        if self.labels.min() < 0 or self.labels.max() >= self.num_classes:
            raise ValueError("label outside [0, num_classes)")

    def __len__(self) -> int:
        return self.images.shape[0]


def _load_idx_array(path, magic, ndim):
    with open(path, "rb") as fh:
        raw = fh.read()
    head = 4 * (ndim + 1)
    if len(raw) < head:
        raise ValueError(f"{path}: truncated while reading the header")
    got_magic, *dims = struct.unpack(f">{ndim + 1}I", raw[:head])
    if got_magic != magic:
        raise ValueError(f"{path}: magic 0x{got_magic:08x}, expected 0x{magic:08x}")
    if min(dims) < 1:
        raise ValueError(f"{path}: dimensions {dims} must be >= 1")
    count = math.prod(dims)  # a Python int: no header overflows it
    if len(raw) - head != count:
        what = "truncated" if len(raw) - head < count else "trailing bytes after"
        raise ValueError(f"{path}: {what} payload: {len(raw) - head} bytes, expected {count}")
    return np.frombuffer(raw, dtype=np.uint8, offset=head).reshape(dims)


def load_idx(images_path, labels_path) -> Dataset:
    """Parse an IDX image/label file pair into a Dataset."""
    raw_images = _load_idx_array(images_path, IMAGE_MAGIC, 3)
    raw_labels = _load_idx_array(labels_path, LABEL_MAGIC, 1)
    if raw_images.shape[0] != raw_labels.shape[0]:
        raise ValueError(
            f"{images_path}, {labels_path}: "
            f"{raw_images.shape[0]} images but {raw_labels.shape[0]} labels"
        )
    images = raw_images.astype(np.float64)[..., None] / 255.0
    labels = raw_labels.astype(np.int64)
    return Dataset(images=images, labels=labels, num_classes=int(labels.max()) + 1)


def save_idx(dataset: Dataset, images_path, labels_path) -> None:
    """Write a single-channel dataset as an IDX image/label pair."""
    if dataset.images.shape[3] != 1:
        raise ValueError("IDX export supports single-channel images only")
    if dataset.labels.max() > 255:
        raise ValueError(f"{labels_path}: label {dataset.labels.max()} does not fit an IDX byte")
    n, h, w, _ = dataset.images.shape
    pixels = np.rint(np.clip(dataset.images[..., 0], 0.0, 1.0) * 255.0).astype(np.uint8)
    with open(images_path, "wb") as fh:
        fh.write(struct.pack(">IIII", IMAGE_MAGIC, n, h, w))
        fh.write(pixels.tobytes(order="C"))
    with open(labels_path, "wb") as fh:
        fh.write(struct.pack(">II", LABEL_MAGIC, n))
        fh.write(dataset.labels.astype(np.uint8).tobytes())


def make_oriented_edges(n_per_class, size=16, seed=0) -> Dataset:
    """Two-class task: a bright bar at 0 or 90 degrees on a noisy field.

    Bars span half the image side at a position drawn uniformly, over
    strong background noise, so no single pixel (and no linear pixel
    weighting at sample counts beyond the pixel dimension) separates the
    classes. Class 0 bars run horizontally, class 1 vertically.
    Deterministic for a given seed.
    """
    if size < 8:
        raise ValueError(f"size must be >= 8, got {size}")
    if n_per_class < 1:
        raise ValueError("n_per_class must be >= 1")
    rng = np.random.default_rng(seed)
    n = 2 * n_per_class
    images = rng.normal(0.25, 0.3, size=(n, size, size, 1))
    labels = np.repeat([0, 1], n_per_class)
    bar_len = size // 2
    for idx in range(n):
        row = int(rng.integers(0, size))
        col = int(rng.integers(0, size - bar_len + 1))
        if labels[idx] == 0:
            images[idx, row, col : col + bar_len, 0] = 0.8
        else:
            images[idx, col : col + bar_len, row, 0] = 0.8
    np.clip(images, 0.0, 1.0, out=images)
    order = rng.permutation(n)
    return Dataset(images=images[order], labels=labels[order], num_classes=2)
