"""Conditional mask decoding and mask-grounded embeddings.

The decoder turns a grid of image cell features into a soft mask,
conditioned on a prompt embedding through per-channel scale and shift.
Masks exist at two resolutions: cell level (sigmoid of the logits) and
image level (sigmoid of the bilinearly upsampled logits — upsample first,
squash second, so the image mask is not an interpolation of the cell
mask).  Grounded embeddings summarize what the mask selects, either by
re-encoding the masked image or by mask-weighted pooling of the grid.
"""

from __future__ import annotations

import numpy as np

from . import autodiff as ad
from .autodiff import ContractViolation, Tensor
from .encoders import ImageEncoder
from .layers import Module, TransformerBlock, normal_init

POOL_EPS = 1e-8


class MaskDecoder(Module):
    """Scale-shift conditioning, one transformer block over cells, logit head.

    The conditioning path starts as the identity (scale 1, shift 0
    regardless of the condition vector), so an untrained decoder treats
    every condition alike; training shapes the dependence.
    """

    def __init__(self, d: int, heads: int, rng: np.random.Generator):
        super().__init__()
        self.d = d
        self.scale_w = self.param("scale_w", np.zeros((d, d)))
        self.scale_b = self.param("scale_b", np.ones(d))
        self.shift_w = self.param("shift_w", np.zeros((d, d)))
        self.shift_b = self.param("shift_b", np.zeros(d))
        self.block = self.child("block", TransformerBlock(d, heads, rng, mlp_ratio=1))
        self.head_w = self.param("head_w", normal_init(rng, (d, 1)))
        self.head_b = self.param("head_b", np.zeros(1))

    def decode_logits(self, grid: Tensor, cond: Tensor) -> Tensor:
        """(B, cells, d) grids + (B·R, d) conditions -> (B·R, cells); row k is image k // R."""
        if grid.ndim != 3 or cond.ndim != 2:
            raise ContractViolation(
                f"decoder expects (B, cells, d) and (B·R, d), got {grid.shape} and {cond.shape}")
        (b, cells, d), n = grid.shape, cond.shape[0]
        r = rows_per_image(b, n)
        scale = ad.linear(cond, self.scale_w, self.scale_b).reshape(b, r, 1, d)
        shift = ad.linear(cond, self.shift_w, self.shift_b).reshape(b, r, 1, d)
        x = self.block.forward((grid.reshape(b, 1, cells, d) * scale + shift).reshape(n, cells, d))
        return ad.linear(x, self.head_w, self.head_b).reshape(n, cells)


def rows_per_image(b: int, rows: int) -> int:
    """R, for ``rows`` rows grouped R >= 1 to each of ``b`` images."""
    r = rows // b if b else 1
    if r < 1 or rows != b * r:
        raise ContractViolation(f"{rows} rows are not R >= 1 rows for each of {b} images")
    return r


def masked_reencode(images: Tensor, image_masks: Tensor, encoder: ImageEncoder) -> Tensor:
    """Re-encode mask-weighted images: (B, S, S, C) + (B·R, S, S) -> (B·R, d), unit
    rows; mask row k weights image k // R."""
    if images.ndim != 4 or image_masks.shape[1:] != images.shape[1:3]:
        raise ContractViolation(
            f"images {images.shape} and masks {image_masks.shape} are not aligned")
    (b, *pixel), n = images.shape, image_masks.shape[0]
    w = image_masks.reshape(b, rows_per_image(b, n), *pixel[:2], 1)
    _, pooled = encoder.forward((images.reshape(b, 1, *pixel) * w).reshape(n, *pixel))
    return ad.l2_normalize(pooled, axis=-1)


def masked_pool(grids: Tensor, feature_masks: Tensor) -> Tensor:
    """Mask-weighted mean of grid cells: (B, cells, d) + (B·R, cells) -> (B·R, d),
    unit rows; mask row k weights grid k // R.

    Scale-free in the mask: multiplying a mask by any k > 0 cancels in the
    ratio.  The mass is floored at ``POOL_EPS``, so the mask should have
    positive mass (true for sigmoid masks).
    """
    if grids.ndim != 3 or feature_masks.shape[1:] != grids.shape[1:2]:
        raise ContractViolation(
            f"masks {feature_masks.shape} do not match grids {grids.shape}")
    (b, cells, d), n = grids.shape, feature_masks.shape[0]
    w = feature_masks.reshape(b, rows_per_image(b, n), cells, 1)
    num = (grids.reshape(b, 1, cells, d) * w).sum(axis=2)
    denom = ad.relu(w.sum(axis=2) - POOL_EPS) + POOL_EPS   # max(mass, eps), differentiably
    return ad.l2_normalize((num / denom).reshape(n, d), axis=-1)
