"""Binary checkpoint format for named parameter arrays.

Layout: magic bytes ``SPLT``, version as little-endian u32, then one
record per parameter in insertion order: name length (u32), UTF-8 name,
rank (u32), one u32 extent per axis, and the payload as 32-bit IEEE-754
little-endian floats in row-major order.  Save/load/save round-trips are
bit-exact.
"""

from __future__ import annotations

import struct
from pathlib import Path

import numpy as np

MAGIC = b"SPLT"
VERSION = 1


class CheckpointError(Exception):
    pass


def save_checkpoint(path: str | Path, params: dict[str, np.ndarray]) -> None:
    chunks = [MAGIC, struct.pack("<I", VERSION)]
    for name, arr in params.items():
        # np.ascontiguousarray would widen rank-0 arrays to rank 1
        data = np.array(arr, dtype="<f4", order="C")
        encoded = name.encode("utf-8")
        chunks.append(struct.pack("<I", len(encoded)))
        chunks.append(encoded)
        chunks.append(struct.pack("<I", data.ndim))
        chunks.append(struct.pack(f"<{data.ndim}I", *data.shape))
        chunks.append(data.tobytes())
    Path(path).write_bytes(b"".join(chunks))


def load_checkpoint(path: str | Path) -> dict[str, np.ndarray]:
    raw = Path(path).read_bytes()
    if len(raw) < 8:
        raise CheckpointError(f"{path}: {len(raw)} bytes, shorter than the 8-byte header")
    if raw[:4] != MAGIC:
        raise CheckpointError(f"{path}: bad magic {raw[:4]!r}")
    (version,) = struct.unpack_from("<I", raw, 4)
    if version != VERSION:
        raise CheckpointError(f"{path}: unsupported version {version}")
    pos = 8
    out: dict[str, np.ndarray] = {}
    try:
        while pos < len(raw):
            (nlen,) = struct.unpack_from("<I", raw, pos)
            pos += 4
            name = raw[pos:pos + nlen].decode("utf-8")
            pos += nlen
            (rank,) = struct.unpack_from("<I", raw, pos)
            pos += 4
            shape = struct.unpack_from(f"<{rank}I", raw, pos)
            pos += 4 * rank
            count = int(np.prod(shape)) if rank else 1
            arr = np.frombuffer(raw, dtype="<f4", count=count, offset=pos).reshape(shape)
            pos += 4 * count
            out[name] = arr.copy()
    except (struct.error, ValueError, UnicodeDecodeError) as exc:
        raise CheckpointError(f"{path}: corrupt record at byte {pos}: {exc}") from exc
    return out
