"""Fixed spectral analysis for audio clips.

A clip is 8000 float samples split into 8 non-overlapping frames of 1000.
Each frame is reduced to 16 triangular band energies of its periodogram.
Nothing here is learned; the tone frequencies used by the synthetic scenes
sit exactly on band-center DFT bins, which makes band energies additive
across sources and zero for silence.
"""

from __future__ import annotations

import functools

import numpy as np

from .autodiff import ContractViolation

FRAME_LEN = 1000
N_FRAMES = 8
CLIP_LEN = FRAME_LEN * N_FRAMES
N_BANDS = 16
N_BINS = FRAME_LEN // 2 + 1

# Band j spans DFT bins [EDGE_START + j*EDGE_STEP, EDGE_START + (j+2)*EDGE_STEP]
# with its peak at the middle edge, so adjacent bands overlap by half.
EDGE_START = 20
EDGE_STEP = 27

_EDGES = EDGE_START + EDGE_STEP * np.arange(N_BANDS + 2)


def class_tone_bins(label: int) -> tuple[int, int]:
    """The two band-center bins whose sinusoids identify class ``label``."""
    if not 0 <= label < N_BANDS // 2:
        raise ContractViolation(f"label {label} outside [0, {N_BANDS // 2})")
    centers = _EDGES[1:-1]
    return int(centers[2 * label]), int(centers[2 * label + 1])


@functools.lru_cache(maxsize=1)
def _filterbank() -> np.ndarray:
    fb = np.zeros((N_BANDS, N_BINS))
    bins = np.arange(N_BINS)
    for j in range(N_BANDS):
        lo, mid, hi = _EDGES[j], _EDGES[j + 1], _EDGES[j + 2]
        rise = (bins - lo) / (mid - lo)
        fall = (hi - bins) / (hi - mid)
        fb[j] = np.clip(np.minimum(rise, fall), 0.0, None)
    fb.flags.writeable = False
    return fb


def periodogram(frames: np.ndarray) -> np.ndarray:
    """(..., 1000) frames -> (..., 501) one-sided power spectra, scaled so a
    unit sinusoid on an exact bin contributes 0.5 at that bin."""
    if frames.shape[-1:] != (FRAME_LEN,):
        raise ContractViolation(f"frames must end in {FRAME_LEN} samples, got {frames.shape}")
    return (2.0 / FRAME_LEN**2) * np.abs(np.fft.rfft(frames, axis=-1)) ** 2


def frame_energies(clips: np.ndarray) -> np.ndarray:
    """(..., 8000) clips -> (..., 8, 16) band-energy features."""
    clips = np.asarray(clips, dtype=np.float64)
    if clips.shape[-1:] != (CLIP_LEN,):
        raise ContractViolation(f"clips must end in {CLIP_LEN} samples, got {clips.shape}")
    frames = clips.reshape(clips.shape[:-1] + (N_FRAMES, FRAME_LEN))
    return periodogram(frames) @ _filterbank().T
