"""Shared fixture builders: IDX byte blobs and a synthetic digit-like dataset."""

import math
import struct

import numpy as np

from qhybrid.data import IMAGE_MAGIC, LABEL_MAGIC

# The line a stage prints when it has run; %s is the stage name
DONE = r"\[%s\] done: \d+\.\d{3} s, maxrss \d+\.\d MB, \d+ minor faults"
# An epoch line's measures after "[stage] epoch i/n "
EPOCH = r"(\w+=\d+\.\d{6} )+\d+ rows/s"


def idx_image_bytes(images: np.ndarray) -> bytes:
    n, rows, cols = images.shape
    return struct.pack(">IIII", IMAGE_MAGIC, n, rows, cols) + images.astype(np.uint8).tobytes()


def idx_label_bytes(labels: np.ndarray) -> bytes:
    return struct.pack(">II", LABEL_MAGIC, len(labels)) + bytes(int(v) for v in labels)


def synthetic_digits(n: int, seed: int) -> tuple[np.ndarray, np.ndarray]:
    """Class-structured 28x28 uint8 images: one bright block per class at a
    class-specific position, plus pixel noise and a small random offset."""
    rng = np.random.default_rng(seed)
    labels = rng.integers(0, 10, size=n).astype(np.uint8)
    images = np.zeros((n, 28, 28), dtype=np.uint8)
    for i, c in enumerate(labels):
        r0 = 3 + (int(c) % 5) * 4
        c0 = 4 + (int(c) // 5) * 12
        dr, dc = rng.integers(-2, 3, size=2)
        r0 = int(np.clip(r0 + dr, 0, 20))
        c0 = int(np.clip(c0 + dc, 0, 20))
        images[i, r0 : r0 + 7, c0 : c0 + 7] = 220
        noise = rng.integers(0, 40, size=(28, 28))
        images[i] = np.clip(images[i].astype(np.int64) + noise, 0, 255).astype(np.uint8)
    return images, labels


def write_synthetic_idx(dirpath, n_train: int, n_test: int, seed: int = 777):
    """Write the four IDX files; returns the path map used by configs."""
    tr_images, tr_labels = synthetic_digits(n_train, seed)
    te_images, te_labels = synthetic_digits(n_test, seed + 1)
    paths = {
        "train_images": dirpath / "train-images-idx3-ubyte",
        "train_labels": dirpath / "train-labels-idx1-ubyte",
        "test_images": dirpath / "t10k-images-idx3-ubyte",
        "test_labels": dirpath / "t10k-labels-idx1-ubyte",
    }
    paths["train_images"].write_bytes(idx_image_bytes(tr_images))
    paths["train_labels"].write_bytes(idx_label_bytes(tr_labels))
    paths["test_images"].write_bytes(idx_image_bytes(te_images))
    paths["test_labels"].write_bytes(idx_label_bytes(te_labels))
    return paths


def chi_square(observed, expected) -> tuple[float, float]:
    """Pearson's chi-square of observed against expected counts, the cells
    expected below 5 pooled into one, and the 0.999 quantile of its law
    (Wilson-Hilferty): the bound depends on the expected counts alone, so it
    is fixed before any draw."""
    observed, expected = np.asarray(observed, dtype=float), np.asarray(expected, dtype=float)
    small = expected < 5
    observed = np.append(observed[~small], observed[small].sum())
    expected = np.append(expected[~small], expected[small].sum())
    cells = expected > 0
    chi2 = float(((observed[cells] - expected[cells]) ** 2 / expected[cells]).sum())
    df = int(cells.sum()) - 1
    return chi2, df * (1.0 - 2.0 / (9 * df) + 3.0902 * math.sqrt(2.0 / (9 * df))) ** 3
