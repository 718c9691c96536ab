import gzip
import struct

import numpy as np
import pytest

from qhybrid.data import (
    AugmentSpec,
    IdxFormatError,
    IdxTruncatedError,
    RawDataset,
    augment,
    batch_iter,
    normalize_and_flatten,
    one_hot,
    parse_idx_images,
    parse_idx_labels,
)
from qhybrid.rng import Rng

from helpers import idx_image_bytes, idx_label_bytes


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
    out = augment(img, spec, Rng(0))
    assert np.array_equal(out, img)


def test_augment_hflip_mirrors_columns():
    spec = AugmentSpec(rotate_max_deg=0.0, shift_max_px=0, hflip_enabled=True,
                       probability=1.0)
    img = _asym_image()
    out = augment(img, spec, Rng(0))
    assert out[10, 27 - 10] == 1.0
    assert out[4, 27 - 20] == 0.5
    assert out.sum() == img.sum()


def test_augment_double_hflip_is_identity():
    spec = AugmentSpec(rotate_max_deg=0.0, shift_max_px=0, hflip_enabled=True,
                       probability=1.0)
    img = _asym_image()
    once = augment(img, spec, Rng(0))
    twice = augment(once, spec, Rng(0))
    assert np.array_equal(twice, img)


def test_shift_moves_hot_pixel():
    from qhybrid.data import _shift

    img = np.zeros((28, 28))
    img[10, 10] = 1.0
    out = _shift(img, 2, 0)
    assert out[10, 12] == 1.0
    assert out.sum() == 1.0


def test_shift_drops_out_of_bounds():
    from qhybrid.data import _shift

    img = np.zeros((28, 28))
    img[0, 27] = 1.0
    assert _shift(img, 1, 0).sum() == 0.0


def test_rotation_zero_angle_exact():
    from qhybrid.data import _rotate_nn

    img = np.random.default_rng(1).random((28, 28))
    assert np.array_equal(_rotate_nn(img, 0.0), img)


def test_rotation_90_moves_mass_consistently():
    from qhybrid.data import _rotate_nn

    img = np.zeros((28, 28))
    img[13, 20] = 1.0  # right of center
    out = _rotate_nn(img, 90.0)
    assert out.sum() == 1.0
    r, c = np.argwhere(out == 1.0)[0]
    # a quarter turn moves the hot pixel onto the vertical axis
    assert abs(int(c) - 13) <= 1 and int(r) != 13


def test_augment_deterministic_per_seed():
    spec = AugmentSpec(rotate_max_deg=15.0, shift_max_px=2, hflip_enabled=True,
                       probability=0.5)
    img = np.random.default_rng(2).random((28, 28))
    a = augment(img, spec, Rng(5))
    b = augment(img, spec, Rng(5))
    c = augment(img, spec, Rng(6))
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)


def test_augment_spec_validation():
    with pytest.raises(ValueError):
        AugmentSpec(rotate_max_deg=-1.0)
    with pytest.raises(ValueError):
        AugmentSpec(shift_max_px=-2)
    with pytest.raises(ValueError):
        AugmentSpec(probability=1.5)


def test_batch_iter_partition_sizes():
    x = np.arange(10).reshape(10, 1).astype(float)
    sizes = [len(xb) for xb, _ in batch_iter(x, x, 4)]
    assert sizes == [4, 4, 2]


def test_batch_iter_no_shuffle_keeps_order():
    x = np.arange(6).reshape(6, 1).astype(float)
    rows = np.concatenate([xb[:, 0] for xb, _ in batch_iter(x, x, 4)])
    assert rows.tolist() == [0, 1, 2, 3, 4, 5]


def test_batch_iter_shuffle_deterministic_and_covering():
    x = np.arange(23).reshape(23, 1).astype(float)
    y = x * 10
    run1 = [xb.copy() for xb, _ in batch_iter(x, y, 5, shuffle=True, rng=Rng(1))]
    run2 = [xb.copy() for xb, _ in batch_iter(x, y, 5, shuffle=True, rng=Rng(1))]
    for a, b in zip(run1, run2):
        assert np.array_equal(a, b)
    seen = sorted(np.concatenate([xb[:, 0] for xb in run1]).tolist())
    assert seen == list(range(23))


def test_batch_iter_pairs_rows():
    x = np.arange(8).reshape(8, 1).astype(float)
    y = x * 3
    for xb, yb in batch_iter(x, y, 3, shuffle=True, rng=Rng(4)):
        assert np.array_equal(yb, xb * 3)


def test_batch_iter_zero_batch_size():
    x = np.zeros((4, 1))
    with pytest.raises(ValueError):
        list(batch_iter(x, x, 0))


@pytest.mark.parametrize("batch_size", [1, 3, 23, 40])
def test_batch_iter_epoch_coverage_any_batch_size(batch_size):
    x = np.arange(23).reshape(23, 1).astype(float)
    rows = np.concatenate(
        [xb[:, 0] for xb, _ in batch_iter(x, x, batch_size, shuffle=True, rng=Rng(2))]
    )
    assert sorted(rows.tolist()) == list(range(23))
