"""Toy image and text encoders over the shared tensor substrate.

Both map their inputs into a common 64-dim embedding space.  They are
deliberately small: one attention block over image patches and a
two-layer causal transformer for token sequences.  Both are fully
differentiable so gradients can flow from downstream losses into prompt
vectors and (during warmup) the image encoder itself.  The audio encoder
has no parameters: it is the fixed filterbank in ``audiofeat``, which
``SoundLocalizer.perceive`` applies.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .autodiff import ContractViolation, Tensor
from .layers import Module, TransformerBlock, normal_init

CHANNELS = 3   # scenes are RGB
# The largest image a config may ask for: the cells of a decode grow with its
# square, so 128 is 16 times the default's per-step memory (and a scene's).
MAX_IMAGE_SIZE = 128


@dataclass
class EncoderConfig:
    embed_dim: int = 64
    image_size: int = 32
    patch_size: int = 4
    text_layers: int = 2
    text_heads: int = 4
    max_text_len: int = 32

    def __post_init__(self):
        # Ceilings at about 16 times the default's memory (per-step arrays grow
        # with embed_dim and text_layers, the position table with max_text_len)
        # refuse an oversized config before it allocates; patch_size and
        # text_heads cannot exceed image_size and embed_dim anyway.
        for name, low, high in (("embed_dim", 1, 1024), ("image_size", 1, MAX_IMAGE_SIZE),
                                ("patch_size", 1, MAX_IMAGE_SIZE), ("text_heads", 1, 1024),
                                ("text_layers", 0, 32), ("max_text_len", 1, 512)):
            if not low <= getattr(self, name) <= high:
                raise ContractViolation(
                    f"{name} must be in [{low}, {high}], got {getattr(self, name)}")
        if self.image_size % self.patch_size:
            raise ContractViolation(
                f"image_size {self.image_size} not divisible by patch_size {self.patch_size}")
        if self.embed_dim % self.text_heads:
            raise ContractViolation(
                f"embed_dim {self.embed_dim} not divisible by text_heads {self.text_heads}")

    @property
    def grid_size(self) -> int:
        return self.image_size // self.patch_size

    @property
    def n_cells(self) -> int:
        return self.grid_size ** 2

    @property
    def patch_dim(self) -> int:
        return self.patch_size * self.patch_size * CHANNELS


class ImageEncoder(Module):
    """Patchify, embed, one attention block, final layer norm.

    The pooled feature is the mean of the grid cells *after* the final
    norm, so it is a pure function of the returned grid.
    """

    def __init__(self, cfg: EncoderConfig, rng: np.random.Generator):
        super().__init__()
        self.cfg = cfg
        d = cfg.embed_dim
        self.patch_w = self.param("patch_w", normal_init(rng, (cfg.patch_dim, d)))
        self.patch_b = self.param("patch_b", np.zeros(d))
        self.pos = self.param("pos", normal_init(rng, (cfg.n_cells, d)))
        self.block = self.child("block", TransformerBlock(d, cfg.text_heads, rng, mlp_ratio=0))
        self.lnf_g = self.param("lnf_g", np.ones(d))
        self.lnf_b = self.param("lnf_b", np.zeros(d))

    def _check_images(self, images: Tensor) -> None:
        c = self.cfg
        want = (c.image_size, c.image_size, CHANNELS)
        if images.ndim != 4 or images.shape[1:] != want:
            raise ContractViolation(
                f"image batch must be (B, {want[0]}, {want[1]}, {want[2]}), got {images.shape}")

    def patch_tokens(self, images: Tensor) -> Tensor:
        """(B, cells, d) patch embeddings before any cross-patch mixing.

        Patch extraction is pure reshape/transpose, so each output token
        depends on exactly one patch of the input.
        """
        self._check_images(images)
        c = self.cfg
        b = images.shape[0]
        g, p = c.grid_size, c.patch_size
        x = images.reshape(b, g, p, g, p, CHANNELS)
        x = ad.transpose(x, (0, 1, 3, 2, 4, 5)).reshape(b, c.n_cells, c.patch_dim)
        return ad.linear(x, self.patch_w, self.patch_b) + self.pos

    def forward(self, images: Tensor) -> tuple[Tensor, Tensor]:
        """Batch of images -> (cell grid (B, cells, d), pooled (B, d))."""
        x = self.block.forward(self.patch_tokens(images))
        x = ad.layer_norm(x, self.lnf_g, self.lnf_b)
        return x, x.mean(axis=1)


class TextEncoder(Module):
    """Causal pre-norm transformer over already-embedded token vectors.

    Consumes (B, T, d) sequences (prompt vectors live in embedding space, so
    there is no vocabulary), reads out the final position, projects and
    L2-normalizes.  Strictly causal: position t never sees positions > t.
    """

    def __init__(self, cfg: EncoderConfig, rng: np.random.Generator):
        super().__init__()
        self.cfg = cfg
        d = cfg.embed_dim
        self.pos = self.param("pos", normal_init(rng, (cfg.max_text_len, d)))
        self.blocks = [
            self.child(f"block{i}", TransformerBlock(d, cfg.text_heads, rng,
                                                     mlp_ratio=4, causal=True))
            for i in range(cfg.text_layers)
        ]
        self.lnf_g = self.param("lnf_g", np.ones(d))
        self.lnf_b = self.param("lnf_b", np.zeros(d))
        self.proj = self.param("proj", normal_init(rng, (d, d)))

    def forward(self, tokens: Tensor) -> Tensor:
        """(B, T, d) sequences -> unit-norm (B, d) embeddings."""
        if tokens.ndim != 3 or tokens.shape[2] != self.cfg.embed_dim:
            raise ContractViolation(
                f"token batch must be (B, T, {self.cfg.embed_dim}), got {tokens.shape}")
        t = tokens.shape[1]
        if not 1 <= t <= self.cfg.max_text_len:
            raise ContractViolation(
                f"sequence length {t} outside [1, {self.cfg.max_text_len}]")
        x = tokens + self.pos[:t]
        for blk in self.blocks:
            x = blk.forward(x)
        x = ad.layer_norm(x, self.lnf_g, self.lnf_b)
        return ad.l2_normalize(x[:, t - 1, :] @ self.proj, axis=-1)
