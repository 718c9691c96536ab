"""MNIST IDX ingestion, normalization, augmentation, and batching.

IDX files are big-endian: a 32-bit magic, dimension sizes, then raw bytes.
Gzip-compressed files are detected by their 0x1f 0x8b prefix and inflated
transparently.
"""

from __future__ import annotations

import gzip
import struct
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .rng import Rng

IMAGE_MAGIC = 0x00000803
LABEL_MAGIC = 0x00000801
IMAGE_SIDE = 28
N_CLASSES = 10


class IdxFormatError(ValueError):
    """Malformed IDX payload (bad magic, bad dimensions, bad values)."""


class IdxTruncatedError(IdxFormatError):
    """Declared item count is inconsistent with the byte length."""


@dataclass
class RawDataset:
    """Parallel image/label arrays as parsed from IDX files."""

    images: np.ndarray  # (N, 28, 28) uint8
    labels: np.ndarray  # (N,) uint8

    def __post_init__(self):
        if len(self.images) != len(self.labels):
            raise IdxFormatError(
                f"image count {len(self.images)} != label count {len(self.labels)}"
            )
        if self.labels.size and self.labels.max() >= N_CLASSES:
            raise IdxFormatError(f"label out of range: {self.labels.max()}")

    def __len__(self) -> int:
        return len(self.labels)


@dataclass
class AugmentSpec:
    """Random transform parameters; each transform fires independently."""

    rotate_max_deg: float = 10.0
    shift_max_px: int = 2
    hflip_enabled: bool = False
    probability: float = 0.5

    def __post_init__(self):
        if self.rotate_max_deg < 0:
            raise ValueError(f"rotate_max_deg must be >= 0, got {self.rotate_max_deg}")
        if self.shift_max_px < 0:
            raise ValueError(f"shift_max_px must be >= 0, got {self.shift_max_px}")
        if not 0.0 <= self.probability <= 1.0:
            raise ValueError(f"probability must be in [0, 1], got {self.probability}")


def _maybe_gunzip(raw: bytes) -> bytes:
    if raw[:2] == b"\x1f\x8b":
        return gzip.decompress(raw)
    return raw


def parse_idx_images(raw: bytes) -> np.ndarray:
    """Parse an IDX image file into a (N, rows, cols) uint8 array."""
    raw = _maybe_gunzip(raw)
    if len(raw) < 16:
        raise IdxTruncatedError(f"image header needs 16 bytes, got {len(raw)}")
    magic, count, rows, cols = struct.unpack(">IIII", raw[:16])
    if magic != IMAGE_MAGIC:
        raise IdxFormatError(f"bad image magic 0x{magic:08x}, expected 0x{IMAGE_MAGIC:08x}")
    if (rows, cols) != (IMAGE_SIDE, IMAGE_SIDE):
        raise IdxFormatError(f"expected 28x28 images, got {rows}x{cols}")
    expected = 16 + count * rows * cols
    if len(raw) != expected:
        raise IdxTruncatedError(f"image payload is {len(raw)} bytes, expected {expected}")
    pixels = np.frombuffer(raw, dtype=np.uint8, offset=16)
    return pixels.reshape(count, rows, cols).copy()


def parse_idx_labels(raw: bytes) -> np.ndarray:
    """Parse an IDX label file into a (N,) uint8 array of digits 0..9."""
    raw = _maybe_gunzip(raw)
    if len(raw) < 8:
        raise IdxTruncatedError(f"label header needs 8 bytes, got {len(raw)}")
    magic, count = struct.unpack(">II", raw[:8])
    if magic != LABEL_MAGIC:
        raise IdxFormatError(f"bad label magic 0x{magic:08x}, expected 0x{LABEL_MAGIC:08x}")
    if len(raw) != 8 + count:
        raise IdxTruncatedError(f"label payload is {len(raw)} bytes, expected {8 + count}")
    labels = np.frombuffer(raw, dtype=np.uint8, offset=8).copy()
    if labels.size and labels.max() >= N_CLASSES:
        raise IdxFormatError(f"label value {labels.max()} exceeds 9")
    return labels


def load_raw_dataset(images_path, labels_path) -> RawDataset:
    images = parse_idx_images(Path(images_path).read_bytes())
    labels = parse_idx_labels(Path(labels_path).read_bytes())
    return RawDataset(images=images, labels=labels)


def one_hot(labels: np.ndarray, n_classes: int = N_CLASSES) -> np.ndarray:
    out = np.zeros((len(labels), n_classes), dtype=np.float64)
    out[np.arange(len(labels)), labels.astype(np.int64)] = 1.0
    return out


def normalize_and_flatten(images: np.ndarray) -> np.ndarray:
    """Scale (N, 28, 28) pixels by 1/255 and flatten each grid row-major."""
    return images.reshape(len(images), -1).astype(np.float64) / 255.0


def _rotate_nn(image: np.ndarray, angle_deg: float) -> np.ndarray:
    """Rotate about the grid center with nearest-neighbor resampling."""
    side = image.shape[0]
    center = (side - 1) / 2.0
    theta = np.deg2rad(angle_deg)
    cos_t, sin_t = np.cos(theta), np.sin(theta)
    rows, cols = np.meshgrid(np.arange(side), np.arange(side), indexing="ij")
    # Sample the source at the inverse rotation of each output coordinate.
    y = rows - center
    x = cols - center
    src_r = np.rint(cos_t * y - sin_t * x + center).astype(np.int64)
    src_c = np.rint(sin_t * y + cos_t * x + center).astype(np.int64)
    valid = (src_r >= 0) & (src_r < side) & (src_c >= 0) & (src_c < side)
    out = np.zeros_like(image)
    out[valid] = image[src_r[valid], src_c[valid]]
    return out


def _shift(image: np.ndarray, dx: int, dy: int) -> np.ndarray:
    """Move content by dx columns and dy rows; vacated pixels become 0."""
    out = np.zeros_like(image)
    side = image.shape[0]
    src_r0, src_r1 = max(0, -dy), min(side, side - dy)
    src_c0, src_c1 = max(0, -dx), min(side, side - dx)
    if src_r0 < src_r1 and src_c0 < src_c1:
        out[src_r0 + dy : src_r1 + dy, src_c0 + dx : src_c1 + dx] = image[
            src_r0:src_r1, src_c0:src_c1
        ]
    return out


def augment(image: np.ndarray, spec: AugmentSpec, rng: Rng) -> np.ndarray:
    """Apply rotation, shift, and horizontal flip, each with spec.probability.

    Draw order is fixed (rotate, shift, flip) so a given rng state always
    produces the same transform. Disabled transforms draw no randomness.
    """
    out = image
    if spec.rotate_max_deg > 0:
        gate, u = rng.uniform(2)
        if gate < spec.probability:
            angle = (2.0 * u - 1.0) * spec.rotate_max_deg
            out = _rotate_nn(out, angle)
    if spec.shift_max_px > 0:
        gate, ux, uy = rng.uniform(3)
        if gate < spec.probability:
            span = 2 * spec.shift_max_px + 1
            dx = min(int(ux * span), span - 1) - spec.shift_max_px
            dy = min(int(uy * span), span - 1) - spec.shift_max_px
            out = _shift(out, dx, dy)
    if spec.hflip_enabled:
        (gate,) = rng.uniform(1)
        if gate < spec.probability:
            out = out[:, ::-1]
    return out.copy() if out is image else out


def batch_iter(features: np.ndarray, labels: np.ndarray, batch_size: int, *,
               shuffle: bool = False, rng: Rng | None = None):
    """Yield (features, labels) batches covering every row exactly once.

    The last batch may be short. With shuffle=True the epoch order is a
    permutation drawn from rng, so identical seeds give identical epochs.
    """
    if batch_size < 1:
        raise ValueError(f"batch_size must be >= 1, got {batch_size}")
    n = len(features)
    if shuffle:
        if rng is None:
            raise ValueError("shuffle=True requires an rng")
        order = rng.permutation(n)
    else:
        order = np.arange(n)
    for start in range(0, n, batch_size):
        idx = order[start : start + batch_size]
        yield features[idx], labels[idx]
