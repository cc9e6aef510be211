"""The full localization pipeline assembled from its parts.

Dataflow for a batch of (image, audio) pairs:

1. encoders produce image cell grids, pooled image features, and
   per-frame audio features;
2. the meta-net turns pooled image features into context tokens and the
   audio tokenizer turns audio features into one audio token;
3. the text encoder embeds each assembled prompt into a condition vector;
4. the decoder, conditioned on that vector, emits a soft mask over the
   image's cells, upsampled to pixels;
5. masks ground the image back into embedding space at two levels, and
   cosine similarities against per-sample condition vectors form the
   square tables the contrastive loss consumes.

Every (image i, audio j) pair gets its own prompt, condition, and mask —
B^2 decodes per table — because off-diagonal table entries are
meaningless without pair-specific masks.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from . import grounding, prompting
from .autodiff import ContractViolation, Tensor
from .encoders import AudioEncoder, EncoderConfig, ImageEncoder, TextEncoder
from .layers import Module
from .losses import MaskStatistics
from .prompting import AudioTokenizer, MetaNet, PromptConfig


@dataclass
class Perception:
    """Frozen-encoder outputs for one batch, reusable across decodes."""
    images: Tensor       # (B, S, S, C)
    grid: Tensor         # (B, cells, d)
    pooled: Tensor       # (B, d)
    audio_feats: Tensor  # (B, frames, audio_dim)


@dataclass
class PairDecode:
    """Everything decoded for a set of (image, audio) index pairs."""
    idx_i: np.ndarray
    idx_j: np.ndarray
    conditions: Tensor      # (N, d) prompt embeddings, one per pair
    logits: Tensor          # (N, cells)
    feature_masks: Tensor   # (N, cells) in (0, 1)
    image_masks: Tensor     # (N, S, S) in (0, 1)


class SoundLocalizer(Module):
    """Encoders, prompt machinery, and mask decoder under one parameter tree."""

    def __init__(self, enc_cfg: EncoderConfig, prompt_cfg: PromptConfig, seed: int = 0,
                 dtype=np.float64):
        super().__init__()
        self.enc_cfg = enc_cfg
        self.prompt_cfg = prompt_cfg
        self.dtype = np.dtype(dtype)
        if prompt_cfg.fusion_mode == "fused" and prompt_cfg.context_length == 0:
            raise ContractViolation("fused mode with no context tokens leaves an empty prompt")
        d = enc_cfg.embed_dim
        streams = np.random.SeedSequence(seed).spawn(6)
        rngs = [np.random.default_rng(s) for s in streams]
        self.image_encoder = self.child("image_encoder", ImageEncoder(enc_cfg, rngs[0]))
        self.audio_encoder = self.child("audio_encoder", AudioEncoder(enc_cfg, rngs[1]))
        self.text_encoder = self.child("text_encoder", TextEncoder(enc_cfg, rngs[2]))
        self.meta_net = self.child("meta_net", MetaNet(
            prompt_cfg.context_length, d, rngs[3], mode=prompt_cfg.meta_mode))
        self.tokenizer = self.child("tokenizer", AudioTokenizer(
            enc_cfg.audio_feature_dim, d, rngs[4]))
        self.decoder = self.child("decoder", grounding.MaskDecoder(
            d, enc_cfg.text_heads, rngs[5]))
        if self.dtype != np.float64:
            self.to_dtype(self.dtype)

    # -- parameter partitions ------------------------------------------------

    def encoder_parameters(self) -> dict[str, Tensor]:
        out = {}
        for name, mod in (("image_encoder", self.image_encoder),
                          ("audio_encoder", self.audio_encoder),
                          ("text_encoder", self.text_encoder)):
            for k, v in mod.parameters().items():
                out[f"{name}.{k}"] = v
        return out

    def prompt_parameters(self) -> dict[str, Tensor]:
        """Meta-net, audio tokenizer, and decoder: the trainable remainder."""
        out = {}
        for name, mod in (("meta_net", self.meta_net),
                          ("tokenizer", self.tokenizer),
                          ("decoder", self.decoder)):
            for k, v in mod.parameters().items():
                out[f"{name}.{k}"] = v
        return out

    def trainable_parameters(self) -> dict[str, Tensor]:
        out = dict(self.prompt_parameters())
        if self.prompt_cfg.fusion_mode == "fused":
            # Fused prompts bypass attention pooling (only the frame MLP
            # feeds the fused feature), so its parameters never get grads.
            for k in ("tokenizer.key_w", "tokenizer.key_b", "tokenizer.query"):
                del out[k]
        if not self.enc_cfg.frozen:
            out.update(self.encoder_parameters())
        return out

    def apply_freezing(self) -> None:
        for p in self.encoder_parameters().values():
            p.requires_grad = not self.enc_cfg.frozen
        for p in self.prompt_parameters().values():
            p.requires_grad = True

    # -- forward stages ------------------------------------------------------

    def perceive(self, images: np.ndarray, audios: np.ndarray) -> Perception:
        images_t = ad.constant(np.asarray(images, dtype=self.dtype))
        grid, pooled = self.image_encoder.forward(images_t)
        audio_feats = self.audio_encoder.forward(audios)
        return Perception(images=images_t, grid=grid, pooled=pooled,
                          audio_feats=audio_feats)

    def prompt_embeddings(self, pooled_i: Tensor, va_j: Tensor | None,
                          audio_pooled_j: Tensor | None) -> Tensor:
        """(N, d) condition vectors for N pairs, honoring the fusion mode.

        ``pooled_i``: image features of the pair's image; ``va_j`` /
        ``audio_pooled_j``: audio token and frame-mean representation of
        the pair's audio (each needed only by some modes).
        """
        cfg = self.prompt_cfg
        if cfg.fusion_mode == "fused":
            context = self.meta_net.forward(
                prompting.fuse_features(pooled_i, audio_pooled_j))
            return self.text_encoder.forward(context)
        context = self.meta_net.forward(pooled_i)
        if cfg.fusion_mode == "ensemble":
            total = None
            for pos in range(1, cfg.context_length + 2):
                variant = PromptConfig(context_length=cfg.context_length,
                                       va_position=pos, meta_mode=cfg.meta_mode)
                tokens = prompting.assemble_prompt(context, va_j, variant)
                emb = self.text_encoder.forward(tokens)
                total = emb if total is None else total + emb
            return total * (1.0 / (cfg.context_length + 1))
        tokens = prompting.assemble_prompt(context, va_j, cfg)
        return self.text_encoder.forward(tokens)

    def decode_pairs(self, percept: Perception, idx_i: np.ndarray,
                     idx_j: np.ndarray) -> PairDecode:
        """Decode a mask for every requested (image, audio) index pair."""
        s = self.enc_cfg.image_size
        g = self.enc_cfg.grid_size
        if self.prompt_cfg.fusion_mode == "fused":
            apool = self.tokenizer.pooled_mean(percept.audio_feats)
            conditions = self.prompt_embeddings(
                percept.pooled[idx_i], None, apool[idx_j])
        else:
            va = self.tokenizer.forward(percept.audio_feats)
            conditions = self.prompt_embeddings(
                percept.pooled[idx_i], va[idx_j], None)
        logits = self.decoder.decode_logits(percept.grid[idx_i], conditions)
        n = logits.shape[0]
        up = ad.resize_bilinear(logits.reshape(n, g, g), s, s)
        return PairDecode(idx_i=idx_i, idx_j=idx_j, conditions=conditions,
                          logits=logits, feature_masks=ad.sigmoid(logits),
                          image_masks=ad.sigmoid(up))

    def similarity_tables(self, percept: Perception
                          ) -> tuple[Tensor, Tensor, MaskStatistics, PairDecode]:
        """All-pairs decode -> (image-level table, feature-level table, stats)."""
        b = percept.grid.shape[0]
        idx_i = np.repeat(np.arange(b), b)
        idx_j = np.tile(np.arange(b), b)
        dec = self.decode_pairs(percept, idx_i, idx_j)

        # Similarity targets are each sample's own (diagonal) condition.
        diag = np.arange(b) * b + np.arange(b)
        targets = ad.l2_normalize(dec.conditions[diag], axis=-1)        # (B, d)

        v_feat = grounding.masked_pool(percept.grid[idx_i], dec.feature_masks)
        v_img = grounding.masked_reencode(percept.images[idx_i], dec.image_masks,
                                          self.image_encoder)

        d = self.enc_cfg.embed_dim
        s_img = (v_img.reshape(b, b, d) * targets.reshape(1, b, d)).sum(axis=-1)
        s_feat = (v_feat.reshape(b, b, d) * targets.reshape(1, b, d)).sum(axis=-1)
        stats = MaskStatistics(pair_mean_mask=dec.image_masks.mean(axis=(1, 2))
                               .reshape(b, b))
        return s_img, s_feat, stats, dec

    # -- evaluation-facing helpers -------------------------------------------

    def predict_masks(self, images: np.ndarray, audios: np.ndarray) -> np.ndarray:
        """Per-sample (matched-index) image-level masks as plain arrays."""
        with ad.no_grad():
            percept = self.perceive(images, audios)
            idx = np.arange(percept.grid.shape[0])
            dec = self.decode_pairs(percept, idx, idx)
            return dec.image_masks.data.copy()
