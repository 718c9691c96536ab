"""Binary model archive: named float64 tensors with bit-exact round-trips.

Layout (all integers little-endian):

    magic "QHM1"
    u32 entry count
    per entry: u32 name length, UTF-8 name bytes,
               u32 rank, rank * u64 dims,
               prod(dims) * f64 payload
"""

from __future__ import annotations

import os
import struct
from pathlib import Path

import numpy as np

MAGIC = b"QHM1"


class ArchiveError(Exception):
    """Base for model-archive format errors."""


class BadMagicError(ArchiveError):
    pass


class TruncatedArchiveError(ArchiveError):
    pass


class DuplicateNameError(ArchiveError):
    pass


def save_archive(entries, path) -> None:
    """Write (name, tensor) pairs; preserves order, rejects duplicate names."""
    seen = set()
    blob = bytearray(MAGIC)
    entries = list(entries)
    blob += struct.pack("<I", len(entries))
    for name, tensor in entries:
        if not name:
            raise ArchiveError("archive entry name must be non-empty")
        if name in seen:
            raise DuplicateNameError(f"duplicate archive entry name: {name!r}")
        seen.add(name)
        arr = np.ascontiguousarray(tensor, dtype=np.float64)
        if any(d < 1 for d in arr.shape):
            raise ArchiveError(f"entry {name!r} has non-positive dimension: {arr.shape}")
        encoded = name.encode("utf-8")
        blob += struct.pack("<I", len(encoded))
        blob += encoded
        blob += struct.pack("<I", arr.ndim)
        blob += struct.pack(f"<{arr.ndim}Q", *arr.shape)
        blob += arr.data
    write_atomic(path, blob)


def write_atomic(path, data: bytes | bytearray) -> None:
    """Write bytes to a temp file beside ``path``, then rename it into place,
    so a reader never sees a half-written file under the final name."""
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        tmp.write_bytes(data)
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def load_archive(path) -> list[tuple[str, np.ndarray]]:
    """Read back (name, tensor) pairs in the order they were saved."""
    raw = memoryview(Path(path).read_bytes())  # slices of it copy nothing
    if len(raw) < 4 or raw[:4] != MAGIC:
        raise BadMagicError(f"not a model archive (bad magic): {path}")
    offset = 4

    def take(n: int) -> memoryview:
        nonlocal offset
        if offset + n > len(raw):
            raise TruncatedArchiveError(f"archive truncated at byte {offset}: {path}")
        chunk = raw[offset : offset + n]
        offset += n
        return chunk

    (count,) = struct.unpack("<I", take(4))
    entries: list[tuple[str, np.ndarray]] = []
    seen: set[str] = set()
    for _ in range(count):
        (name_len,) = struct.unpack("<I", take(4))
        name = str(take(name_len), "utf-8")
        if name in seen:
            raise DuplicateNameError(f"duplicate archive entry name: {name!r}")
        seen.add(name)
        (rank,) = struct.unpack("<I", take(4))
        shape = struct.unpack(f"<{rank}Q", take(8 * rank))
        size = 1
        for d in shape:
            size *= d
        data = np.frombuffer(take(8 * size), dtype="<f8").reshape(shape)
        entries.append((name, data.astype(np.float64, copy=True)))
    return entries
