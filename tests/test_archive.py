import os
import struct

import numpy as np
import pytest

from qhybrid.archive import (
    MAGIC,
    ArchiveError,
    BadMagicError,
    DuplicateNameError,
    TruncatedArchiveError,
    load_archive,
    save_archive,
    write_atomic,
)
from qhybrid.rng import Rng


def test_round_trip_preserves_order_and_bits(tmp_path):
    rng = Rng(99)
    entries = [
        ("w", rng.uniform(4).reshape(2, 2) * 1e9),
        ("b", rng.uniform(3) - 0.5),
        ("deep/nested name", rng.uniform(24).reshape(2, 3, 4)),
    ]
    path = tmp_path / "model.qhm"
    save_archive(entries, path)
    loaded = load_archive(path)
    assert [name for name, _ in loaded] == ["w", "b", "deep/nested name"]
    for (_, orig), (_, back) in zip(entries, loaded):
        assert orig.shape == back.shape
        assert orig.tobytes() == back.tobytes()


def test_resave_is_byte_identical(tmp_path):
    entries = [("t", np.array([[1.0, 2.0], [3.0, 4.0]]))]
    p1, p2 = tmp_path / "a.qhm", tmp_path / "b.qhm"
    save_archive(entries, p1)
    save_archive(load_archive(p1), p2)
    assert p1.read_bytes() == p2.read_bytes()


def test_round_trip_ranks_1_to_4(tmp_path):
    rng = Rng(3)
    for rank in range(1, 5):
        dims = np.minimum((rng.uniform(rank) * 5).astype(np.int64), 4)
        shape = tuple(int(d) + 1 for d in dims)
        arr = rng.uniform(int(np.prod(shape))).reshape(shape)
        path = tmp_path / f"rank{rank}.qhm"
        save_archive([("x", arr)], path)
        (_, back), = load_archive(path)
        assert back.shape == shape
        assert arr.tobytes() == back.tobytes()


def test_bad_magic(tmp_path):
    path = tmp_path / "bad.qhm"
    path.write_bytes(b"XXXX" + b"\x00" * 16)
    with pytest.raises(BadMagicError):
        load_archive(path)


def test_truncated_payload(tmp_path):
    path = tmp_path / "t.qhm"
    save_archive([("x", np.arange(6, dtype=np.float64).reshape(2, 3))], path)
    raw = path.read_bytes()
    path.write_bytes(raw[:-1])
    with pytest.raises(TruncatedArchiveError):
        load_archive(path)


def test_every_truncation_point_is_an_archive_error(tmp_path):
    path = tmp_path / "t.qhm"
    save_archive([("ab", np.arange(6.0).reshape(2, 3)), ("c", np.ones(2))], path)
    raw = path.read_bytes()
    for cut in range(len(raw)):
        path.write_bytes(raw[:cut])
        with pytest.raises(BadMagicError if cut < 4 else TruncatedArchiveError):
            load_archive(path)


def test_payload_larger_than_the_file_is_truncation(tmp_path):
    # a header that declares 2**40 x 2**40 values fails on the file size, before any allocation
    path = tmp_path / "huge.qhm"
    path.write_bytes(MAGIC + struct.pack("<II", 1, 1) + b"x" + struct.pack("<I2Q", 2, 2**40, 2**40))
    with pytest.raises(TruncatedArchiveError, match="byte 33"):
        load_archive(path)


def test_non_contiguous_and_integer_tensors_are_saved_as_float64(tmp_path):
    fortran = np.asfortranarray(np.arange(12.0).reshape(3, 4))
    strided = np.arange(20.0)[::3]
    ints = np.arange(5)
    path = tmp_path / "mixed.qhm"
    save_archive([("f", fortran), ("s", strided), ("i", ints)], path)
    for (_, back), orig in zip(load_archive(path), (fortran, strided, ints)):
        assert back.tobytes() == np.ascontiguousarray(orig, dtype=np.float64).tobytes()


def test_truncated_header(tmp_path):
    path = tmp_path / "h.qhm"
    path.write_bytes(MAGIC + struct.pack("<I", 2))
    with pytest.raises(TruncatedArchiveError):
        load_archive(path)


def test_duplicate_names_rejected_on_save(tmp_path):
    with pytest.raises(DuplicateNameError):
        save_archive([("x", np.ones(1)), ("x", np.zeros(1))], tmp_path / "d.qhm")


def test_duplicate_names_rejected_on_load(tmp_path):
    path = tmp_path / "dup.qhm"
    save_archive([("x", np.ones(1))], path)
    raw = bytearray(path.read_bytes())
    entry = raw[8:]  # splice the single entry in twice
    forged = raw[:4] + struct.pack("<I", 2) + entry + entry
    path.write_bytes(bytes(forged))
    with pytest.raises(DuplicateNameError):
        load_archive(path)


def test_empty_name_rejected(tmp_path):
    with pytest.raises(ArchiveError):
        save_archive([("", np.ones(1))], tmp_path / "e.qhm")


def test_zero_size_dimension_rejected(tmp_path):
    with pytest.raises(ArchiveError):
        save_archive([("x", np.ones((0, 3)))], tmp_path / "z.qhm")


def test_failed_atomic_write_keeps_old_file_and_no_temp(tmp_path, monkeypatch):
    path = tmp_path / "a.csv"
    write_atomic(path, b"old\n")

    def refuse(src, dst):
        raise OSError("disk full")

    monkeypatch.setattr(os, "replace", refuse)
    with pytest.raises(OSError):
        write_atomic(path, b"new\n")
    assert path.read_bytes() == b"old\n"
    assert [p.name for p in tmp_path.iterdir()] == ["a.csv"]


def test_loaded_tensors_own_writable_memory(tmp_path):
    path = tmp_path / "model.qhm"
    save_archive([("a", np.arange(6.0).reshape(2, 3)), ("b", np.ones(4))], path)
    (_, a), (_, b) = load_archive(path)
    for arr in (a, b):
        assert arr.flags.writeable and arr.flags.c_contiguous and arr.flags.owndata
    assert not np.shares_memory(a, b)
    a[0, 0] = 7.0
    assert a[0, 0] == 7.0 and b.tolist() == [1.0] * 4
