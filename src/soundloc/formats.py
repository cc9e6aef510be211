"""File writers for exported artifacts: PGM masks, PPM images, raw audio.

Masks are 8-bit binary PGM ("P5", maxval 255, pixel = round(255 * m)).
Images are 8-bit binary PPM ("P6").  Audio clips are 32-bit IEEE-754
little-endian samples behind an 8-byte header: magic ``SPLA`` plus a u32
sample count, followed by exactly that many samples.

The program only writes these files.  A writer raises
:class:`ContractViolation` for an array of the wrong shape.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

from .autodiff import ContractViolation

AUDIO_MAGIC = b"SPLA"


def _write_netpbm(path: str | Path, magic: bytes, values: np.ndarray) -> None:
    """Clip to [0, 1], scale to 8 bits and write behind a maxval-255 header."""
    vals = np.rint(255.0 * np.clip(values, 0.0, 1.0)).astype(np.uint8)
    h, w = vals.shape[:2]
    header = magic + f"\n{w} {h}\n255\n".encode("ascii")
    Path(path).write_bytes(header + vals.tobytes())


def write_pgm(path: str | Path, mask: np.ndarray) -> None:
    """Write a [0, 1] mask as an 8-bit binary PGM."""
    if mask.ndim != 2:
        raise ContractViolation(f"PGM expects a 2-D array, got shape {mask.shape}")
    _write_netpbm(path, b"P5", mask)


def write_ppm(path: str | Path, image: np.ndarray) -> None:
    """Write a [0, 1] HxWx3 image as an 8-bit binary PPM."""
    if image.ndim != 3 or image.shape[2] != 3:
        raise ContractViolation(f"PPM expects HxWx3, got shape {image.shape}")
    _write_netpbm(path, b"P6", image)


def write_audio(path: str | Path, samples: np.ndarray) -> None:
    """Write a 1-D clip as float32 little-endian with the SPLA header."""
    if samples.ndim != 1:
        raise ContractViolation(f"audio expects a 1-D array, got shape {samples.shape}")
    data = np.ascontiguousarray(samples, dtype="<f4")
    header = AUDIO_MAGIC + np.uint32(data.size).tobytes()
    Path(path).write_bytes(header + data.tobytes())
