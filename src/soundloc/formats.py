"""File codecs for exported artifacts: PGM masks, PPM images, raw audio.

Masks are 8-bit binary PGM ("P5", maxval 255, pixel = round(255 * m)).
Images are 8-bit binary PPM ("P6").  Audio clips are 32-bit IEEE-754
little-endian samples behind an 8-byte header: magic ``SPLA`` plus a u32
sample count, followed by exactly that many samples.

Readers raise :class:`FormatError` for a bad magic, a header field that
is not a decimal number, and a payload shorter than the header promises
(for audio, a payload of any other length).
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

AUDIO_MAGIC = b"SPLA"


class FormatError(Exception):
    """A codec file is malformed: bad magic, bad header or short payload."""


def write_pgm(path: str | Path, mask: np.ndarray) -> None:
    """Write a [0, 1] mask as an 8-bit binary PGM."""
    if mask.ndim != 2:
        raise FormatError(f"PGM expects a 2-D array, got shape {mask.shape}")
    vals = np.rint(255.0 * np.clip(mask, 0.0, 1.0)).astype(np.uint8)
    h, w = vals.shape
    header = f"P5\n{w} {h}\n255\n".encode("ascii")
    Path(path).write_bytes(header + vals.tobytes())


def read_pgm(path: str | Path) -> np.ndarray:
    """Read an 8-bit binary PGM back to a [0, 1] float array."""
    raw = Path(path).read_bytes()
    fields, pos = _read_header(raw, b"P5", 3)
    w, h, maxval = fields
    if maxval != 255:
        raise FormatError(f"{path}: only maxval 255 supported, got {maxval}")
    return _pixels(raw, pos, w * h, path).reshape(h, w).astype(np.float64) / 255.0


def write_ppm(path: str | Path, image: np.ndarray) -> None:
    """Write a [0, 1] HxWx3 image as an 8-bit binary PPM."""
    if image.ndim != 3 or image.shape[2] != 3:
        raise FormatError(f"PPM expects HxWx3, got shape {image.shape}")
    vals = np.rint(255.0 * np.clip(image, 0.0, 1.0)).astype(np.uint8)
    h, w, _ = vals.shape
    header = f"P6\n{w} {h}\n255\n".encode("ascii")
    Path(path).write_bytes(header + vals.tobytes())


def read_ppm(path: str | Path) -> np.ndarray:
    raw = Path(path).read_bytes()
    fields, pos = _read_header(raw, b"P6", 3)
    w, h, maxval = fields
    if maxval != 255:
        raise FormatError(f"{path}: only maxval 255 supported, got {maxval}")
    return _pixels(raw, pos, w * h * 3, path).reshape(h, w, 3).astype(np.float64) / 255.0


def _read_header(raw: bytes, magic: bytes, n_fields: int) -> tuple[list[int], int]:
    if raw[:2] != magic:
        raise FormatError(f"bad magic {raw[:2]!r}, expected {magic!r}")
    fields: list[int] = []
    pos = 2
    while len(fields) < n_fields:
        while pos < len(raw) and raw[pos:pos + 1].isspace():
            pos += 1
        start = pos
        while pos < len(raw) and not raw[pos:pos + 1].isspace():
            pos += 1
        token = raw[start:pos]
        if not token.isdigit():
            raise FormatError(f"header field {token!r} is not a decimal number")
        fields.append(int(token))
    return fields, pos + 1  # single whitespace byte after maxval


def _pixels(raw: bytes, pos: int, count: int, path) -> np.ndarray:
    """The ``count`` pixel bytes that start at ``pos``."""
    if len(raw) - pos < count:
        raise FormatError(f"{path}: {count} pixel bytes expected after the header, "
                          f"found {max(len(raw) - pos, 0)}")
    return np.frombuffer(raw, dtype=np.uint8, count=count, offset=pos)


def write_audio(path: str | Path, samples: np.ndarray) -> None:
    """Write a 1-D clip as float32 little-endian with the SPLA header."""
    if samples.ndim != 1:
        raise FormatError(f"audio expects a 1-D array, got shape {samples.shape}")
    data = np.ascontiguousarray(samples, dtype="<f4")
    header = AUDIO_MAGIC + np.uint32(data.size).tobytes()
    Path(path).write_bytes(header + data.tobytes())


def read_audio(path: str | Path) -> np.ndarray:
    raw = Path(path).read_bytes()
    if raw[:4] != AUDIO_MAGIC:
        raise FormatError(f"{path}: bad magic {raw[:4]!r}")
    if len(raw) < 8:
        raise FormatError(f"{path}: {len(raw)} bytes, shorter than the 8-byte header")
    count = int.from_bytes(raw[4:8], "little")
    if len(raw) - 8 != 4 * count:
        raise FormatError(f"{path}: header says {count} samples, "
                          f"payload holds {len(raw) - 8} bytes")
    return np.frombuffer(raw, dtype="<f4", count=count, offset=8).astype(np.float64)
