"""MNIST IDX ingestion, normalization, augmentation, and batching.

IDX files are big-endian: a 32-bit magic, dimension sizes, then raw bytes.
One reader, ``_parse_idx``, serves images and labels: it inflates a file
that starts with the gzip prefix 0x1f 0x8b, checks the magic, the item shape
and the payload length, and copies the payload once. ``load_raw_dataset``
puts the file's path in front of any parse or gunzip error.

Pixels stay uint8 until a batch needs them: ``PixelRows`` normalises only the
rows it is indexed with, so no float64 copy of a whole split is ever held.

Augmentation transforms whole (N, 28, 28) stacks. Each enabled transform
draws a fixed count of uniforms per image, and one draw per stack consumes the
stream as one draw per image would. The transforms then run AUGMENT_CHUNK
images at a time, gathering each output pixel through one flat index into a
copy of the chunk with a PAD-pixel zero border.
"""

from __future__ import annotations

import gzip
import math
import struct
import zlib
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .rng import Rng

IMAGE_MAGIC = 0x00000803
LABEL_MAGIC = 0x00000801
IMAGE_SIDE = 28
N_CLASSES = 10
# Images per transform pass in augment; it bounds the coordinate temporaries
# to about 1.6 MB each
AUGMENT_CHUNK = 256
# Zero border around a chunk: a rotated source lies within 13.5 * sqrt(2) < 19.1
# px of the centre, so rint keeps it in [-PAD, 27 + PAD]
PAD = 6
_BORDERED = IMAGE_SIDE + 2 * PAD
_ORIGIN = PAD * _BORDERED + PAD  # flat index of pixel (0, 0) in a bordered image


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

    def take(self, rows: np.ndarray) -> "RawDataset":
        """The given rows, in that order, as a new dataset (a copy)."""
        return RawDataset(self.images[rows], self.labels[rows])


@dataclass
class AugmentSpec:
    """Random transform parameters; each transform fires independently."""

    rotate_max_deg: float = 10.0
    shift_max_px: int = 2
    hflip_enabled: bool = False
    probability: float = 0.5

    def __post_init__(self):
        if not (math.isfinite(self.rotate_max_deg) and self.rotate_max_deg >= 0):
            raise ValueError(f"rotate_max_deg must be finite and >= 0, got {self.rotate_max_deg}")
        if self.shift_max_px < 0:
            raise ValueError(f"shift_max_px must be >= 0, got {self.shift_max_px}")
        if not 0.0 <= self.probability <= 1.0:
            raise ValueError(f"probability must be in [0, 1], got {self.probability}")


def _parse_idx(raw: bytes, magic: int, kind: str, item_shape: tuple[int, ...]) -> np.ndarray:
    """The (N, *item_shape) uint8 payload of an IDX file with the given magic,
    gunzipped first when it starts with the gzip prefix."""
    if raw[:2] == b"\x1f\x8b":
        raw = gzip.decompress(raw)
    header = 4 * (2 + len(item_shape))
    if len(raw) < header:
        raise IdxTruncatedError(f"{kind} header needs {header} bytes, got {len(raw)}")
    found, count, *dims = struct.unpack(f">{2 + len(item_shape)}I", raw[:header])
    if found != magic:
        raise IdxFormatError(f"bad {kind} magic 0x{found:08x}, expected 0x{magic:08x}")
    if tuple(dims) != item_shape:
        raise IdxFormatError(f"expected {'x'.join(map(str, item_shape))} {kind}s, got {dims}")
    expected = header + count * math.prod(item_shape)
    if len(raw) != expected:
        raise IdxTruncatedError(f"{kind} payload is {len(raw)} bytes, expected {expected}")
    return np.frombuffer(raw, dtype=np.uint8, offset=header).reshape(count, *item_shape).copy()


def parse_idx_images(raw: bytes) -> np.ndarray:
    """Parse an IDX image file into a (N, 28, 28) uint8 array."""
    return _parse_idx(raw, IMAGE_MAGIC, "image", (IMAGE_SIDE, IMAGE_SIDE))


def parse_idx_labels(raw: bytes) -> np.ndarray:
    """Parse an IDX label file into a (N,) uint8 array of digits 0..9."""
    labels = _parse_idx(raw, LABEL_MAGIC, "label", ())
    if labels.size and labels.max() >= N_CLASSES:
        raise IdxFormatError(f"label value {labels.max()} exceeds 9")
    return labels


def load_raw_dataset(images_path, labels_path) -> RawDataset:
    """The images and labels of two IDX files. A file that does not parse or
    gunzip raises IdxFormatError with its path first in the message; a count
    mismatch names both files."""
    arrays = []
    for path, parse in ((images_path, parse_idx_images), (labels_path, parse_idx_labels)):
        try:
            arrays.append(parse(Path(path).read_bytes()))
        except (IdxFormatError, EOFError, gzip.BadGzipFile, zlib.error) as exc:
            raise IdxFormatError(f"{path}: {exc}") from exc
    try:
        return RawDataset(*arrays)
    except IdxFormatError as exc:
        raise IdxFormatError(f"{images_path}, {labels_path}: {exc}") from None


def one_hot(labels: np.ndarray, n_classes: int = N_CLASSES) -> np.ndarray:
    out = np.zeros((len(labels), n_classes), dtype=np.float64)
    out[np.arange(len(labels)), labels.astype(np.int64)] = 1.0
    return out


def normalize_and_flatten(images: np.ndarray) -> np.ndarray:
    """Scale (N, 28, 28) pixels by 1/255 and flatten each grid row-major."""
    rows = images.reshape(len(images), -1).astype(np.float64)
    rows /= 255.0  # in place: one float64 array per call, not two
    return rows


class PixelRows:
    """Read-only (N, 784) view of an (N, 28, 28) uint8 stack as normalised
    rows. Indexing it with an index array or a slice returns
    ``normalize_and_flatten`` of just those images; the division is
    elementwise, so a batch has the same bits as the same rows of the whole
    normalised split."""

    def __init__(self, images: np.ndarray):
        self.images = images
        self.shape = (len(images), int(np.prod(images.shape[1:])))

    def __len__(self) -> int:
        return len(self.images)

    def __getitem__(self, idx) -> np.ndarray:
        return normalize_and_flatten(self.images[idx])


def _gather(images: np.ndarray, flat: np.ndarray) -> np.ndarray:
    """out[i, r, c] = bordered[i].flat[flat[i, r, c]], where bordered frames
    the stack in a PAD-pixel zero border: source (sr, sc), each in
    [-PAD, 27 + PAD], has flat index sr * _BORDERED + sc + _ORIGIN. flat is
    overwritten."""
    bordered = np.zeros((len(images), _BORDERED, _BORDERED), images.dtype)
    bordered[:, PAD:-PAD, PAD:-PAD] = images
    flat += (np.arange(len(images)) * _BORDERED**2)[:, None, None]
    return bordered.take(flat)


def _rotation_sources(angles_deg: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Rounded source row and column of every output pixel under each
    rotation about the grid center, as two float (N, 28, 28) arrays."""
    center = (IMAGE_SIDE - 1) / 2.0
    theta = np.deg2rad(angles_deg)[:, None, None]
    cos_t, sin_t = np.cos(theta), np.sin(theta)
    # Sample the source at the inverse rotation of each output coordinate.
    y = np.arange(IMAGE_SIDE)[:, None] - center
    x = np.arange(IMAGE_SIDE) - center
    src_r = np.subtract(cos_t * y, sin_t * x)
    src_r += center
    src_c = np.add(sin_t * y, cos_t * x)
    src_c += center
    return np.rint(src_r, out=src_r), np.rint(src_c, out=src_c)


def _rotate(images: np.ndarray, angles_deg: np.ndarray) -> np.ndarray:
    """Rotate image i by angles_deg[i] about the grid center, nearest neighbor."""
    src_r, src_c = _rotation_sources(angles_deg)
    src_r *= _BORDERED  # small integers, so the float index arithmetic is exact
    src_r += src_c
    src_r += _ORIGIN
    return _gather(images, src_r.astype(np.intp))


def _shift(images: np.ndarray, dx: np.ndarray, dy: np.ndarray) -> np.ndarray:
    """Move image i by dx[i] columns and dy[i] rows; vacated pixels become 0."""
    grid = np.arange(IMAGE_SIDE)
    rows = np.clip(grid - dy[:, None], -PAD, IMAGE_SIDE - 1 + PAD) * _BORDERED
    cols = np.clip(grid - dx[:, None], -PAD, IMAGE_SIDE - 1 + PAD) + _ORIGIN
    return _gather(images, rows[:, :, None] + cols[:, None, :])


def augment(images: np.ndarray, spec: AugmentSpec, rng: Rng) -> np.ndarray:
    """Apply rotation, shift, and horizontal flip to an (N, 28, 28) stack;
    each transform fires on each image with spec.probability.

    Per image, in stack order, each enabled transform draws a fixed count
    whatever its gate: rotate 2 (gate, angle), shift 3 (gate, dx, dy), flip 1
    (gate). One rng.uniform call serves the whole stack, which consumes the
    stream exactly as one call per image would; the transforms then run
    AUGMENT_CHUNK images at a time.
    """
    enabled = np.repeat([spec.rotate_max_deg > 0, spec.shift_max_px > 0, spec.hflip_enabled],
                        [2, 3, 1])
    span = 2 * spec.shift_max_px + 1
    # columns: rotate gate, angle, shift gate, dx, dy, flip gate; a disabled
    # transform draws none of its columns and its gate reads 1.0, which never fires
    draws = int(enabled.sum())
    params = np.ones((len(images), 6))
    params[:, enabled] = rng.uniform(len(images) * draws).reshape(len(images), draws)
    out = images.copy()
    for start in range(0, len(out), AUGMENT_CHUNK):
        chunk = out[start : start + AUGMENT_CHUNK]  # a view, so writes land in out
        u = params[start : start + AUGMENT_CHUNK]
        rotate, shift, flip = (u[:, [0, 2, 5]] < spec.probability).T
        chunk[rotate] = _rotate(chunk[rotate], (2.0 * u[rotate, 1] - 1.0) * spec.rotate_max_deg)
        dx, dy = np.minimum((u[shift, 3:5] * span).astype(np.int64), span - 1).T
        chunk[shift] = _shift(chunk[shift], dx - spec.shift_max_px, dy - spec.shift_max_px)
        chunk[flip] = chunk[flip][:, :, ::-1]
    return out


def batch_iter(features, labels: np.ndarray | None, batch_size: int, rng: Rng):
    """Yield (features, labels) batches covering every row exactly once, in
    the order of one ``rng.permutation``; the last batch may be short. With
    labels=None each feature batch is gathered once and is also its own
    target: (xb, xb)."""
    if batch_size < 1:
        raise ValueError(f"batch_size must be >= 1, got {batch_size}")
    order = rng.permutation(len(features))
    for start in range(0, len(order), batch_size):
        idx = order[start : start + batch_size]
        xb = features[idx]
        yield xb, xb if labels is None else labels[idx]
