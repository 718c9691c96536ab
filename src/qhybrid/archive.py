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
    """Write (name, tensor) pairs; preserves order, rejects duplicate names.

    Each tensor's own buffer goes to the file; no file-sized copy is built."""
    seen = set()
    entries = list(entries)
    chunks = [MAGIC + struct.pack("<I", len(entries))]
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
        chunks.append(struct.pack("<I", len(encoded)) + encoded
                      + struct.pack(f"<I{arr.ndim}Q", arr.ndim, *arr.shape))
        chunks.append(arr.data)
    write_atomic(path, *chunks)


def write_atomic(path, *chunks) -> None:
    """Write the byte buffers, in order, to a temp file beside ``path``, then
    rename it into place, so a reader never sees a half-written file under
    the final name."""
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        with open(tmp, "wb") as f:
            f.writelines(chunks)
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def load_archive(path) -> list[tuple[str, np.ndarray]]:
    """Read back (name, tensor) pairs in the order they were saved; each
    payload is read straight into its own array."""
    with open(path, "rb") as f:
        size = os.fstat(f.fileno()).st_size
        if f.read(4) != MAGIC:
            raise BadMagicError(f"not a model archive (bad magic): {path}")
        offset = 4

        def claim(n: int) -> None:
            # checked against the file size before anything n bytes long is allocated
            nonlocal offset
            if offset + n > size:
                raise TruncatedArchiveError(f"archive truncated at byte {offset}: {path}")
            offset += n

        def take(n: int) -> bytes:
            claim(n)
            return f.read(n)

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
            n_values = 1
            for d in shape:
                n_values *= d
            at = offset
            claim(8 * n_values)
            data = np.empty(shape, dtype="<f8")
            if f.readinto(data) != data.nbytes:
                raise TruncatedArchiveError(f"archive truncated at byte {at}: {path}")
            entries.append((name, data))
    return entries
