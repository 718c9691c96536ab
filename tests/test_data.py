import gzip
import hashlib
import struct

import numpy as np
import pytest

from qhybrid import data
from qhybrid.data import (
    AUGMENT_CHUNK,
    PAD,
    AugmentSpec,
    IdxFormatError,
    IdxTruncatedError,
    PixelRows,
    RawDataset,
    _rotate,
    _shift,
    augment,
    batch_iter,
    normalize_and_flatten,
    one_hot,
    parse_idx_images,
    parse_idx_labels,
)
from qhybrid.rng import Rng

from helpers import idx_image_bytes, idx_label_bytes, synthetic_digits


def test_parse_images_minimal_fixture():
    images = np.arange(2 * 28 * 28, dtype=np.uint8).reshape(2, 28, 28)
    parsed = parse_idx_images(idx_image_bytes(images))
    assert parsed.shape == (2, 28, 28)
    assert np.array_equal(parsed, images)


def test_parse_images_rejects_label_magic():
    raw = struct.pack(">IIII", 0x00000801, 1, 28, 28) + bytes(784)
    with pytest.raises(IdxFormatError, match="magic"):
        parse_idx_images(raw)


def test_parse_images_truncated_by_one_byte():
    images = np.zeros((2, 28, 28), dtype=np.uint8)
    with pytest.raises(IdxTruncatedError):
        parse_idx_images(idx_image_bytes(images)[:-1])


def test_parse_images_rejects_wrong_geometry():
    raw = struct.pack(">IIII", 0x00000803, 1, 14, 14) + bytes(196)
    with pytest.raises(IdxFormatError, match="28x28"):
        parse_idx_images(raw)


def test_parse_images_gzip_detected():
    images = np.full((3, 28, 28), 7, dtype=np.uint8)
    blob = gzip.compress(idx_image_bytes(images))
    assert blob[:2] == b"\x1f\x8b"
    assert np.array_equal(parse_idx_images(blob), images)


def test_parse_labels_minimal_fixture():
    assert parse_idx_labels(idx_label_bytes(np.array([7, 0, 9]))).tolist() == [7, 0, 9]


def test_parse_labels_value_out_of_range():
    raw = struct.pack(">II", 0x00000801, 1) + bytes([12])
    with pytest.raises(IdxFormatError, match="exceeds"):
        parse_idx_labels(raw)


def test_parse_labels_empty():
    assert parse_idx_labels(idx_label_bytes(np.array([], dtype=np.uint8))).tolist() == []


def test_parse_labels_bad_magic():
    raw = struct.pack(">II", 0x00000803, 0)
    with pytest.raises(IdxFormatError, match="magic"):
        parse_idx_labels(raw)


def test_raw_dataset_count_mismatch():
    with pytest.raises(IdxFormatError):
        RawDataset(np.zeros((2, 28, 28), dtype=np.uint8), np.zeros(3, dtype=np.uint8))


def test_normalize_and_flatten_values():
    images = np.zeros((1, 28, 28), dtype=np.uint8)
    images[0, 0, 0] = 255
    images[0, 0, 1] = 128
    images[0, 2, 3] = 51
    features = normalize_and_flatten(images)
    assert features.shape == (1, 784) and features.dtype == np.float64
    assert features[0, 0] == 1.0
    assert features[0, 1] == pytest.approx(128 / 255)
    assert features[0, 2 * 28 + 3] == pytest.approx(0.2)
    assert features[0, 5] == 0.0
    assert one_hot(np.array([4], dtype=np.uint8))[0].tolist() == [0, 0, 0, 0, 1, 0, 0, 0, 0, 0]


def test_pixel_rows_batches_equal_rows_of_the_normalised_split():
    images = (Rng(12).uniform(9 * 784) * 256).astype(np.uint8).reshape(9, 28, 28)
    rows = PixelRows(images)
    whole = normalize_and_flatten(images)
    assert len(rows) == 9 and rows.shape == whole.shape == (9, 784)
    for idx in (np.array([7, 0, 3, 3]), slice(2, 6), slice(8, 20)):
        assert rows[idx].dtype == np.float64
        assert rows[idx].tobytes() == whole[idx].tobytes()
    assert PixelRows(images[:0]).shape == (0, 784)


def test_batch_iter_without_labels_gathers_each_batch_once():
    gathers = []

    class Counted(np.ndarray):
        def __getitem__(self, idx):
            gathers.append(idx)
            return np.asarray(self)[idx]

    x = np.arange(10.0).reshape(10, 1).view(Counted)
    batches = list(batch_iter(x, None, 4, Rng(3)))
    assert len(gathers) == len(batches) == 3
    for xb, yb in batches:
        assert yb is xb


def test_normalize_bounds_and_onehot_rows():
    rng = np.random.default_rng(0)
    images = rng.integers(0, 256, size=(20, 28, 28)).astype(np.uint8)
    labels = rng.integers(0, 10, size=20).astype(np.uint8)
    features = normalize_and_flatten(images)
    assert features.min() >= 0.0 and features.max() <= 1.0
    onehot = one_hot(labels)
    assert np.array_equal(onehot.sum(axis=1), np.ones(20))
    assert np.array_equal((onehot == 1.0).sum(axis=1), np.ones(20))


def _asym_image():
    img = np.zeros((28, 28))
    img[10, 10] = 1.0
    img[4, 20] = 0.5
    return img


def test_augment_identity_spec_is_exact_identity():
    spec = AugmentSpec(rotate_max_deg=0.0, shift_max_px=0, hflip_enabled=False)
    img = _asym_image()
    out = augment(img[None], spec, Rng(0))
    assert np.array_equal(out, img[None])


def test_augment_hflip_mirrors_columns():
    spec = AugmentSpec(rotate_max_deg=0.0, shift_max_px=0, hflip_enabled=True,
                       probability=1.0)
    img = _asym_image()
    (out,) = augment(img[None], spec, Rng(0))
    assert out[10, 27 - 10] == 1.0
    assert out[4, 27 - 20] == 0.5
    assert out.sum() == img.sum()


def test_augment_double_hflip_is_identity():
    spec = AugmentSpec(rotate_max_deg=0.0, shift_max_px=0, hflip_enabled=True,
                       probability=1.0)
    img = _asym_image()
    once = augment(img[None], spec, Rng(0))
    twice = augment(once, spec, Rng(0))
    assert np.array_equal(twice, img[None])


def test_shift_moves_hot_pixel():
    img = np.zeros((28, 28))
    img[10, 10] = 1.0
    (out,) = _shift(img[None], np.array([2]), np.array([0]))
    assert out[10, 12] == 1.0
    assert out.sum() == 1.0
    # a stack: each image moves by its own offset
    out = _shift(np.stack([img] * 3), np.array([2, 0, -3]), np.array([0, 1, 0]))
    assert out[0, 10, 12] == out[1, 11, 10] == out[2, 10, 7] == 1.0
    assert out.sum(axis=(1, 2)).tolist() == [1.0, 1.0, 1.0]


def test_shift_drops_out_of_bounds():
    img = np.zeros((28, 28))
    img[0, 27] = 1.0
    assert _shift(img[None], np.array([1]), np.array([0])).sum() == 0.0
    out = _shift(np.stack([img] * 3), np.array([1, 0, 0]), np.array([0, -1, 0]))
    assert out.sum(axis=(1, 2)).tolist() == [0.0, 0.0, 1.0]


def test_rotation_zero_angle_exact():
    img = np.random.default_rng(1).random((28, 28))
    assert np.array_equal(_rotate(img[None], np.array([0.0])), img[None])
    stack = np.random.default_rng(2).random((3, 28, 28))
    assert np.array_equal(_rotate(stack, np.zeros(3)), stack)


def test_rotation_90_moves_mass_consistently():
    img = np.zeros((28, 28))
    img[13, 20] = 1.0  # right of center
    (out,) = _rotate(img[None], np.array([90.0]))
    assert out.sum() == 1.0
    r, c = np.argwhere(out == 1.0)[0]
    # a quarter turn moves the hot pixel onto the vertical axis
    assert abs(int(c) - 13) <= 1 and int(r) != 13
    # a stack: turns either way land on opposite sides; a zero angle keeps the image
    out = _rotate(np.stack([img] * 3), np.array([90.0, -90.0, 0.0]))
    assert out.sum(axis=(1, 2)).tolist() == [1.0, 1.0, 1.0]
    (r0, c0), (r1, c1) = np.argwhere(out[0] == 1.0)[0], np.argwhere(out[1] == 1.0)[0]
    assert abs(int(c0) - 13) <= 1 and abs(int(c1) - 13) <= 1
    assert (int(r0) - 13.5) * (int(r1) - 13.5) < 0
    assert np.array_equal(out[2], img)


def test_augment_deterministic_per_seed():
    spec = AugmentSpec(rotate_max_deg=15.0, shift_max_px=2, hflip_enabled=True,
                       probability=0.5)
    img = np.random.default_rng(2).random((28, 28))
    a = augment(img[None], spec, Rng(5))
    b = augment(img[None], spec, Rng(5))
    c = augment(img[None], spec, Rng(6))
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)


# sha256 of augment(synthetic_digits(64, 3) images, spec, Rng(11)), recorded
# from the implementation that drew and transformed one image per call
@pytest.mark.parametrize("spec, draws_per_image, digest", [
    (AugmentSpec(rotate_max_deg=15.0, shift_max_px=2, hflip_enabled=True, probability=0.5),
     6, "f779f33c1624cdd0d42b905e5d329538509a0b381ab8b3bfd4d46e8397173bf7"),
    (AugmentSpec(rotate_max_deg=0.0, shift_max_px=3, hflip_enabled=False, probability=1.0),
     3, "94559234e43b02b6f1c4fd12d50cbf764dd754e3547c6813760da19c8bd049d2"),
    (AugmentSpec(rotate_max_deg=45.0, shift_max_px=0, hflip_enabled=True, probability=0.5),
     3, "7235eb72e11f4f273b4d1bcf9ab3060f04cdd54da40082f6a60f900d596d39bd"),
], ids=["all-at-half", "shift-only", "rotate45-flip"])
def test_augment_reproduces_per_image_bytes(spec, draws_per_image, digest):
    images, _ = synthetic_digits(64, 3)
    rng = Rng(11)
    out = augment(images, spec, rng)
    assert out.dtype == np.uint8 and out.shape == images.shape
    assert hashlib.sha256(out.tobytes()).hexdigest() == digest
    expected = Rng(11)
    expected.uniform(64 * draws_per_image)
    assert np.array_equal(rng._state, expected._state)


# the border cases: half and full turns, angles far past a turn, shifts wider
# than the grid, gates that never and always fire, and a 515-image stack that
# crosses two 256-image chunk boundaries; sha256 digests recorded from the
# implementation that clipped a three-array fancy index into a 1-pixel border
BORDER_CASES = [
    (AugmentSpec(rotate_max_deg=180.0, shift_max_px=0, hflip_enabled=False, probability=1.0),
     64, 2, "40b3857a9096db2f8ec686afeb70b24f6797b587161f3463a430c4daf069107d"),
    (AugmentSpec(rotate_max_deg=1e6, shift_max_px=2, hflip_enabled=True, probability=0.5),
     64, 6, "71ef9b3254424c56707572f1b54165bc7c50dbb66fc87dcbe89b5741235bdb4a"),
    (AugmentSpec(rotate_max_deg=0.0, shift_max_px=40, hflip_enabled=False, probability=0.7),
     64, 3, "a120fa218c908e14782729c2ea30dbad3da51ddb1fe89b8118a73b49ee8258da"),
    (AugmentSpec(rotate_max_deg=15.0, shift_max_px=2, hflip_enabled=True, probability=0.0),
     64, 6, "c19197edfe28441f6d0a364e3ad3087ce529288d777a777c5a5901cc64cb3972"),
    (AugmentSpec(rotate_max_deg=30.0, shift_max_px=3, hflip_enabled=True, probability=1.0),
     64, 6, "5724dec8d81c5f7ef587dccd5eefa605013da249549da6193c5944acfd8aca89"),
    (AugmentSpec(rotate_max_deg=15.0, shift_max_px=2, hflip_enabled=True, probability=0.5),
     515, 6, "15f8607cf50f98040dab901cb8bf9e11e2ebd5c5e0a9f3845b5546e700ba81f9"),
]
BORDER_IDS = ["rotate180", "rotate1e6", "shift40", "probability0", "probability1", "stack515"]


def _border_stack(n):
    return np.resize(synthetic_digits(64, 3)[0], (n, 28, 28))


@pytest.mark.parametrize("chunk", [AUGMENT_CHUNK, 1, 7, 1024])
@pytest.mark.parametrize("spec, n, draws_per_image, digest", BORDER_CASES, ids=BORDER_IDS)
def test_augment_border_cases_reproduce_pinned_bytes_at_any_chunk(monkeypatch, chunk, spec, n,
                                                                  draws_per_image, digest):
    monkeypatch.setattr(data, "AUGMENT_CHUNK", chunk)
    images = _border_stack(n)
    rng = Rng(11)
    out = augment(images, spec, rng)
    assert out.dtype == np.uint8 and out.shape == images.shape
    assert hashlib.sha256(out.tobytes()).hexdigest() == digest
    if spec.probability == 0.0:
        assert np.array_equal(out, images)
    expected = Rng(11)
    expected.uniform(n * draws_per_image)
    assert np.array_equal(rng._state, expected._state)


def test_augment_empty_stack_draws_nothing():
    rng = Rng(3)
    out = augment(np.zeros((0, 28, 28), dtype=np.uint8), AugmentSpec(hflip_enabled=True), rng)
    assert out.shape == (0, 28, 28) and out.dtype == np.uint8
    assert np.array_equal(rng._state, Rng(3)._state)


def test_rotated_sources_stay_inside_the_zero_border():
    # a source lies within 13.5 * sqrt(2) < 19.1 px of the centre, so rint
    # keeps it in [-PAD, 27 + PAD] at any angle; 0.01 degree steps, in slices
    # that keep each coordinate array small
    angles = np.linspace(-180.0, 180.0, 36001)
    lo = hi = 13.5
    for start in range(0, len(angles), 2000):
        for src in data._rotation_sources(angles[start : start + 2000]):
            assert np.array_equal(src, np.rint(src))
            lo, hi = min(lo, src.min()), max(hi, src.max())
    assert -PAD <= lo and hi <= 27 + PAD
    assert (lo, hi) == (-6.0, 33.0)  # the sweep reaches both edges of the border


@pytest.mark.parametrize("split", [37, AUGMENT_CHUNK + 5])
def test_augment_split_stack_continues_one_stream(split):
    # 37 falls inside the first chunk; AUGMENT_CHUNK + 5 makes the first call
    # span a chunk boundary
    images = np.resize(synthetic_digits(64, 3)[0], (AUGMENT_CHUNK + 100, 28, 28))
    spec = AugmentSpec(rotate_max_deg=15.0, shift_max_px=2, hflip_enabled=True,
                       probability=0.5)
    whole_rng, split_rng = Rng(4), Rng(4)
    whole = augment(images, spec, whole_rng)
    parts = [augment(images[:split], spec, split_rng), augment(images[split:], spec, split_rng)]
    assert np.array_equal(np.concatenate(parts), whole)
    assert np.array_equal(split_rng._state, whole_rng._state)


def test_augment_spec_validation():
    for rotate in (-1.0, float("inf"), float("nan")):
        with pytest.raises(ValueError, match="rotate_max_deg"):
            AugmentSpec(rotate_max_deg=rotate)
    with pytest.raises(ValueError):
        AugmentSpec(shift_max_px=-2)
    with pytest.raises(ValueError):
        AugmentSpec(probability=1.5)


def test_batch_iter_partition_sizes():
    x = np.arange(10).reshape(10, 1).astype(float)
    sizes = [len(xb) for xb, _ in batch_iter(x, x, 4, Rng(0))]
    assert sizes == [4, 4, 2]


def test_batch_iter_shuffle_deterministic_and_covering():
    x = np.arange(23).reshape(23, 1).astype(float)
    y = x * 10
    run1 = [xb.copy() for xb, _ in batch_iter(x, y, 5, Rng(1))]
    run2 = [xb.copy() for xb, _ in batch_iter(x, y, 5, Rng(1))]
    for a, b in zip(run1, run2):
        assert np.array_equal(a, b)
    seen = sorted(np.concatenate([xb[:, 0] for xb in run1]).tolist())
    assert seen == list(range(23))


def test_batch_iter_pairs_rows():
    x = np.arange(8).reshape(8, 1).astype(float)
    y = x * 3
    for xb, yb in batch_iter(x, y, 3, Rng(4)):
        assert np.array_equal(yb, xb * 3)


def test_batch_iter_zero_batch_size():
    x = np.zeros((4, 1))
    with pytest.raises(ValueError):
        list(batch_iter(x, x, 0, Rng(0)))


@pytest.mark.parametrize("batch_size", [1, 3, 23, 40])
def test_batch_iter_epoch_coverage_any_batch_size(batch_size):
    x = np.arange(23).reshape(23, 1).astype(float)
    rows = np.concatenate(
        [xb[:, 0] for xb, _ in batch_iter(x, x, batch_size, Rng(2))]
    )
    assert sorted(rows.tolist()) == list(range(23))
