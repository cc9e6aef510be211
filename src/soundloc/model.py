"""The full localization pipeline assembled from its parts.

Dataflow for a batch of (image, audio) pairs:

1. the image encoder produces cell grids and pooled image features, and
   the fixed filterbank (``audiofeat``) per-frame audio features;
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
from . import audiofeat, grounding, prompting
from .autodiff import ContractViolation, Tensor
from .encoders import EncoderConfig, ImageEncoder, TextEncoder
from .layers import Module
from .prompting import AudioTokenizer, MetaNet, PromptConfig

# Top-level parts that stay frozen while the prompts and decoder train.
ENCODERS = ("image_encoder", "text_encoder")


@dataclass
class Perception:
    """Frozen-encoder outputs for one batch, reusable across decodes."""
    images: Tensor       # (B, S, S, C)
    grid: Tensor         # (B, cells, d)
    pooled: Tensor       # (B, d)
    audio_feats: Tensor  # (B, 8, 16) filterbank band energies, a constant


@dataclass
class PairDecode:
    """Everything decoded for a set of (image, audio) index pairs."""
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
        d = enc_cfg.embed_dim
        # Stream 1 belonged to a retired audio projection; it stays spawned
        # so every other part keeps its initial values.
        streams = np.random.SeedSequence(seed).spawn(6)
        rngs = [np.random.default_rng(s) for s in streams]
        self.image_encoder = self.child("image_encoder", ImageEncoder(enc_cfg, rngs[0]))
        self.text_encoder = self.child("text_encoder", TextEncoder(enc_cfg, rngs[2]))
        self.meta_net = self.child("meta_net", MetaNet(prompt_cfg.context_length, d, rngs[3]))
        self.tokenizer = self.child("tokenizer", AudioTokenizer(audiofeat.N_BANDS, d, rngs[4]))
        self.decoder = self.child("decoder", grounding.MaskDecoder(
            d, enc_cfg.text_heads, rngs[5]))
        if self.dtype != np.float64:
            self.to_dtype(self.dtype)

    # -- parameter partitions ------------------------------------------------

    def encoder_parameters(self) -> dict[str, Tensor]:
        return {k: v for k, v in self.parameters().items()
                if k.split(".", 1)[0] in ENCODERS}

    def trainable_parameters(self) -> dict[str, Tensor]:
        """Meta-net, audio tokenizer, and decoder, less what the prompt mode leaves idle."""
        out = {k: v for k, v in self.parameters().items()
               if k.split(".", 1)[0] not in ENCODERS}
        if self.prompt_cfg.context_length == 0:     # the meta-net feeds no prompt
            out = {k: v for k, v in out.items() if not k.startswith("meta_net.")}
        if self.prompt_cfg.fusion_mode == "fused":
            # Fused prompts bypass attention pooling (only the frame MLP
            # feeds the fused feature), so its parameters never get grads.
            for k in ("tokenizer.key_w", "tokenizer.query"):
                del out[k]
        return out

    def apply_freezing(self) -> None:
        trainable = self.trainable_parameters()
        for name, p in self.parameters().items():
            p.requires_grad = name in trainable

    # -- forward stages ------------------------------------------------------

    def perceive(self, images: np.ndarray, audios: np.ndarray) -> Perception:
        images_t = ad.constant(np.asarray(images, dtype=self.dtype))
        grid, pooled = self.image_encoder.forward(images_t)
        audios = np.asarray(audios)
        if audios.shape != (images_t.shape[0], audiofeat.CLIP_LEN):
            raise ContractViolation(
                f"audio batch {audios.shape} does not fit image batch {images_t.shape}: "
                f"need one {audiofeat.CLIP_LEN}-sample clip per image")
        audio_feats = ad.constant(audiofeat.frame_energies(audios), dtype=self.dtype)
        return Perception(images=images_t, grid=grid, pooled=pooled,
                          audio_feats=audio_feats)

    def prompt_embeddings(self, pooled_i: Tensor, audio_j: Tensor) -> Tensor:
        """(N, d) condition vectors for N pairs, honoring the fusion mode.

        ``pooled_i``: image features of the pair's image; ``audio_j``: the
        pair's audio as ``decode_pairs`` represents it for the mode, the
        frame-mean representation when fused and the audio token otherwise.
        """
        cfg = self.prompt_cfg
        if cfg.fusion_mode == "fused":
            context = self.meta_net.forward(pooled_i + audio_j)
            return self.text_encoder.forward(context)
        context = self.meta_net.forward(pooled_i)
        if cfg.fusion_mode == "ensemble":
            # All M + 1 audio-token positions go through the text encoder as
            # one stacked batch; numpy sums its leading axis in position order.
            n, m1 = context.shape[0], cfg.context_length + 1
            variants = [prompting.assemble_prompt(context, audio_j, pos)
                        for pos in range(1, m1 + 1)]
            emb = self.text_encoder.forward(ad.concat(variants, axis=0))
            return emb.reshape(m1, n, emb.shape[-1]).sum(axis=0) * (1.0 / m1)
        tokens = prompting.assemble_prompt(context, audio_j, cfg.va_position)
        return self.text_encoder.forward(tokens)

    def decode_pairs(self, percept: Perception, idx_j: np.ndarray) -> PairDecode:
        """Decode a mask for image k // R with audio ``idx_j[k]``, for R rows per image."""
        s = self.enc_cfg.image_size
        g = self.enc_cfg.grid_size
        b = percept.grid.shape[0]
        image_of_row = np.repeat(np.arange(b), grounding.rows_per_image(b, len(idx_j)))
        tokenize = (self.tokenizer.pooled_mean if self.prompt_cfg.fusion_mode == "fused"
                    else self.tokenizer.forward)
        audio = tokenize(percept.audio_feats)
        conditions = self.prompt_embeddings(percept.pooled[image_of_row], audio[idx_j])
        logits = self.decoder.decode_logits(percept.grid, conditions)
        up = ad.resize_bilinear(logits.reshape(-1, g, g), s, s)
        return PairDecode(conditions=conditions, logits=logits,
                          feature_masks=ad.sigmoid(logits), image_masks=ad.sigmoid(up))

    def similarity_tables(self, percept: Perception
                          ) -> tuple[Tensor, Tensor, Tensor, PairDecode]:
        """All-pairs decode -> (image-level table, feature-level table, pair mask
        means, decode), each table (B, B) and indexed by (image, audio)."""
        b = percept.grid.shape[0]
        dec = self.decode_pairs(percept, np.tile(np.arange(b), b))

        # Similarity targets are each sample's own (diagonal) condition.
        diag = np.arange(b) * b + np.arange(b)
        targets = ad.l2_normalize(dec.conditions[diag], axis=-1)        # (B, d)

        v_feat = grounding.masked_pool(percept.grid, dec.feature_masks)
        v_img = grounding.masked_reencode(percept.images, dec.image_masks, self.image_encoder)

        d = self.enc_cfg.embed_dim
        s_img = (v_img.reshape(b, b, d) * targets.reshape(1, b, d)).sum(axis=-1)
        s_feat = (v_feat.reshape(b, b, d) * targets.reshape(1, b, d)).sum(axis=-1)
        pair_means = dec.image_masks.mean(axis=(1, 2)).reshape(b, b)
        return s_img, s_feat, pair_means, dec

    # -- evaluation-facing helpers -------------------------------------------

    def predict_masks(self, images: np.ndarray, audios: np.ndarray) -> np.ndarray:
        """Per-sample (matched-index) image-level masks as plain arrays."""
        with ad.no_grad():
            percept = self.perceive(images, audios)
            dec = self.decode_pairs(percept, np.arange(percept.grid.shape[0]))
            return dec.image_masks.data
