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
        """(B, cells, d) features + (B, d) conditions -> (B, cells) logits."""
        if grid.ndim != 3 or cond.ndim != 2 or grid.shape[0] != cond.shape[0]:
            raise ContractViolation(
                f"decoder expects (B, cells, d) and (B, d), got {grid.shape} and {cond.shape}")
        b = grid.shape[0]
        scale = (cond @ self.scale_w + self.scale_b).reshape(b, 1, self.d)
        shift = (cond @ self.shift_w + self.shift_b).reshape(b, 1, self.d)
        x = self.block.forward(grid * scale + shift)
        return (x @ self.head_w + self.head_b).reshape(b, grid.shape[1])


def masked_reencode(images: Tensor, image_masks: Tensor, encoder: ImageEncoder) -> Tensor:
    """Re-encode mask-weighted images: (N, S, S, C) + (N, S, S) -> (N, d), unit rows."""
    if images.shape[:3] != image_masks.shape:
        raise ContractViolation(
            f"images {images.shape} and masks {image_masks.shape} are not aligned")
    _, pooled = encoder.forward(images * image_masks.reshape(image_masks.shape + (1,)))
    return ad.l2_normalize(pooled, axis=-1)


def masked_pool(grids: Tensor, feature_masks: Tensor) -> Tensor:
    """Mask-weighted mean of grid cells: (N, cells, d) + (N, cells) -> (N, d), unit rows.

    Scale-free in the mask: multiplying a mask by any k > 0 cancels in the
    ratio.  The mass is floored at ``POOL_EPS``, so the mask should have
    positive mass (true for sigmoid masks).
    """
    if feature_masks.shape != grids.shape[:2]:
        raise ContractViolation(
            f"masks {feature_masks.shape} do not match grids {grids.shape}")
    w = feature_masks.reshape(feature_masks.shape + (1,))
    num = (grids * w).sum(axis=1)
    denom = ad.relu(w.sum(axis=1) - POOL_EPS) + POOL_EPS   # max(mass, eps), differentiably
    return ad.l2_normalize(num / denom, axis=-1)
