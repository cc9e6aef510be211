"""Learnable prompts: image-conditioned context tokens and the audio token.

The prompt fed to the text encoder is a sequence of M context vectors plus
one audio-derived token, with the audio token's slot configurable.  Context
vectors are conditioned on the image through a small bottleneck net whose
output is added to every base vector: one shared correction per image, as
in conditional prompt learning (CoCoOp).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .autodiff import ContractViolation, Tensor
from .layers import Module, normal_init

BOTTLENECK_RATIO = 16

FUSION_MODES = ("none", "fused", "ensemble")


@dataclass
class PromptConfig:
    context_length: int = 4
    va_position: int | None = None   # 1..M+1; None means "last" (M+1)
    fusion_mode: str = "none"

    def __post_init__(self):
        if self.context_length < 0:
            raise ContractViolation(f"context_length must be >= 0, got {self.context_length}")
        if self.va_position is None:
            self.va_position = self.context_length + 1
        if not 1 <= self.va_position <= self.context_length + 1:
            raise ContractViolation(
                f"va_position {self.va_position} outside [1, {self.context_length + 1}]")
        if self.fusion_mode not in FUSION_MODES:
            raise ContractViolation(f"fusion_mode must be one of {FUSION_MODES}")
        if self.fusion_mode == "fused" and self.context_length == 0:
            raise ContractViolation(
                "fusion_mode 'fused' needs context_length >= 1: the fused feature "
                "reaches the prompt only through the context tokens")


class MetaNet(Module):
    """Base context vectors plus an image-conditioned additive correction.

    A single bottleneck (d -> d/16 -> d, for a d that ``RunConfig`` checks 16
    divides) produces one meta-token that is added to all M rows.
    """

    def __init__(self, n_ctx: int, d: int, rng: np.random.Generator):
        super().__init__()
        self.n_ctx = n_ctx
        self.d = d
        self.hidden = d // BOTTLENECK_RATIO
        h = self.hidden
        self.base = self.param("base", normal_init(rng, (n_ctx, d)))
        self.w1 = self.param("w1", normal_init(rng, (d, h)))
        self.b1 = self.param("b1", np.zeros(h))
        self.w2 = self.param("w2", normal_init(rng, (h, d)))
        self.b2 = self.param("b2", np.zeros(d))

    def forward(self, feats: Tensor) -> Tensor:
        """(B, d) image features -> (B, M, d) conditioned context tokens."""
        if feats.ndim != 2 or feats.shape[1] != self.d:
            raise ContractViolation(f"meta-net input must be (B, {self.d}), got {feats.shape}")
        pi = ad.linear(ad.relu(ad.linear(feats, self.w1, self.b1)), self.w2, self.b2)  # (B, d)
        return self.base.reshape(1, self.n_ctx, self.d) + pi.reshape(feats.shape[0], 1, self.d)


class AudioTokenizer(Module):
    """Per-frame MLP into embedding space, then attention pooling.

    Pooling scores each frame by a learned query against projected frame
    representations; the output is the softmax-weighted sum of the frame
    representations themselves, so identical frames pool to themselves.
    """

    def __init__(self, in_dim: int, d: int, rng: np.random.Generator):
        super().__init__()
        self.in_dim = in_dim
        self.d = d
        self.w1 = self.param("w1", normal_init(rng, (in_dim, d)))
        self.b1 = self.param("b1", np.zeros(d))
        self.w2 = self.param("w2", normal_init(rng, (d, d)))
        self.b2 = self.param("b2", np.zeros(d))
        self.key_w = self.param("key_w", normal_init(rng, (d, d)))
        self.key_b = self.param("key_b", np.zeros(d))
        self.query = self.param("query", normal_init(rng, (d, 1)))

    def frame_repr(self, feats: Tensor) -> Tensor:
        """(..., frames, in_dim) -> (..., frames, d) per-frame representations."""
        if feats.shape[-1] != self.in_dim:
            raise ContractViolation(
                f"audio features must end in dim {self.in_dim}, got {feats.shape}")
        return ad.linear(ad.relu(ad.linear(feats, self.w1, self.b1)), self.w2, self.b2)

    def forward(self, feats: Tensor) -> Tensor:
        """(B, frames, in_dim) -> (B, d) audio tokens."""
        if feats.ndim != 3:
            raise ContractViolation(f"expected (B, frames, in_dim), got {feats.shape}")
        h = self.frame_repr(feats)
        logits = ad.linear(h, self.key_w, self.key_b) @ self.query
        w = ad.softmax(logits, axis=-2)                       # (B, frames, 1)
        return (w * h).sum(axis=-2)

    def pooled_mean(self, feats: Tensor) -> Tensor:
        """Mean of per-frame representations; the audio side of feature fusion."""
        return self.frame_repr(feats).mean(axis=-2)


def assemble_prompt(context: Tensor, va: Tensor, position: int) -> Tensor:
    """(B, M, d) context + (B, d) audio tokens -> (B, M+1, d) prompts.

    Exactly ``position - 1`` context tokens precede the audio token.
    """
    if context.ndim != 3:
        raise ContractViolation(f"context batch must be (B, M, d), got {context.shape}")
    m, p = context.shape[1], position
    if not 1 <= p <= m + 1:
        raise ContractViolation(f"audio token position {p} outside [1, {m + 1}]")
    parts = (context[:, :p - 1], va.reshape(va.shape[0], 1, va.shape[-1]), context[:, p - 1:])
    return ad.concat([t for t in parts if t.shape[1]], axis=1)

