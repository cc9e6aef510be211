"""Tests for the prompt-learning layer: conditioned context tokens, the
audio tokenizer, prompt assembly, fusion, and gradient flow from the
training loss into the prompt parameters.

Every stage is batched; a single sample is a batch of one.
"""

import numpy as np
import pytest

from soundloc import autodiff as ad
from soundloc.autodiff import ContractViolation
from soundloc.encoders import EncoderConfig
from soundloc.harness import batch_loss
from soundloc.losses import LossWeights
from soundloc.model import SoundLocalizer
from soundloc.prompting import (
    AudioTokenizer,
    MetaNet,
    PromptConfig,
    assemble_prompt,
)

D = 64
RNG = lambda s: np.random.default_rng(s)  # noqa: E731


class TestPromptConfig:
    def test_defaults(self):
        cfg = PromptConfig()
        assert cfg.context_length == 4
        assert cfg.va_position == 5          # None resolves to M+1
        assert cfg.fusion_mode == "none"

    def test_va_position_none_tracks_context_length(self):
        assert PromptConfig(context_length=7).va_position == 8
        assert PromptConfig(context_length=0).va_position == 1

    @pytest.mark.parametrize("kwargs", [
        dict(context_length=-1),
        dict(context_length=4, va_position=0),
        dict(context_length=4, va_position=6),
        dict(fusion_mode="blend"),
        dict(context_length=0, fusion_mode="fused"),   # an empty prompt
    ])
    def test_invalid_config_rejected(self, kwargs):
        with pytest.raises(ContractViolation):
            PromptConfig(**kwargs)


class TestMetaNet:
    def test_hidden_width_is_one_sixteenth(self):
        assert MetaNet(4, 64, RNG(0)).hidden == 4
        assert MetaNet(4, 32, RNG(0)).hidden == 2

    def test_zero_output_weights_give_base_vectors(self):
        # With the second bottleneck layer zeroed the correction vanishes
        # and the output must equal the base vectors bit for bit.
        net = MetaNet(4, D, RNG(1))
        net.w2.data[:] = 0.0
        net.b2.data[:] = 0.0
        x = ad.constant(RNG(2).normal(size=(1, D)))
        out = net.forward(x)[0]
        assert np.array_equal(out.data, net.base.data)

    def test_correction_shared_across_rows(self):
        # output(x) - output(x') collapses to a single d-vector repeated
        # over all M rows: the meta-token is shared.
        net = MetaNet(6, D, RNG(3))
        rng = RNG(4)
        a = net.forward(ad.constant(rng.normal(size=(1, D)))).data[0]
        b = net.forward(ad.constant(rng.normal(size=(1, D)))).data[0]
        diff = a - b
        for row in diff[1:]:
            np.testing.assert_allclose(row, diff[0], atol=1e-12, rtol=0)

    def test_output_minus_base_shared_across_rows(self):
        net = MetaNet(5, D, RNG(5))
        out = net.forward(ad.constant(RNG(6).normal(size=(1, D)))).data[0]
        delta = out - net.base.data
        for row in delta[1:]:
            np.testing.assert_allclose(row, delta[0], atol=1e-12, rtol=0)

    def test_batch_rows_are_independent(self):
        # Each row of a batch equals that image's features run alone.
        net = MetaNet(4, D, RNG(7))
        xs = RNG(8).normal(size=(3, D))
        batch = net.forward(ad.constant(xs)).data
        for i in range(3):
            single = net.forward(ad.constant(xs[i:i + 1])).data[0]
            np.testing.assert_allclose(single, batch[i], atol=1e-14, rtol=0)

    def test_zero_context_length(self):
        net = MetaNet(0, D, RNG(9))
        out = net.forward(ad.constant(np.zeros((2, D))))
        assert out.shape == (2, 0, D)

    def test_input_shape_checked(self):
        net = MetaNet(4, D, RNG(14))
        with pytest.raises(ContractViolation):
            net.forward(ad.constant(np.zeros((2, D + 1))))


def _transparent_tokenizer(d: int, offset: float = 5.0) -> AudioTokenizer:
    """Tokenizer rigged so frame representations equal ``feats + offset``
    (for entries above ``-offset``) and attention logits read the first
    feature coordinate.  Lets tests place exact values on the attention
    logits through the inputs alone.
    """
    tok = AudioTokenizer(d, d, RNG(0))
    tok.w1.data[:] = np.eye(d)
    tok.b1.data[:] = offset
    tok.w2.data[:] = np.eye(d)
    tok.b2.data[:] = 0.0
    tok.key_w.data[:] = np.eye(d)
    tok.key_b.data[:] = 0.0
    tok.query.data[:] = 0.0
    tok.query.data[0, 0] = 1.0
    return tok


class TestAudioTokenizer:
    def test_identical_frames_pool_to_one_frame(self):
        tok = AudioTokenizer(16, D, RNG(20))
        frame = RNG(21).normal(size=16)
        feats = ad.constant(np.tile(frame, (1, 8, 1)))
        pooled = tok.forward(feats).data[0]
        single = tok.frame_repr(ad.constant(frame.reshape(1, 16))).data[0]
        np.testing.assert_allclose(pooled, single, atol=1e-12, rtol=0)

    def test_dominant_logit_saturates_pooling(self):
        # Frame 3 gets an attention logit 1e3 above every other frame, so
        # the pooled output must collapse onto that frame's representation.
        d = 8
        tok = _transparent_tokenizer(d)
        feats = np.zeros((6, d))
        feats[3, 0] = 1e3
        feats[:, 1] = np.arange(6.0)          # make the frames distinguishable
        out = tok.forward(ad.constant(feats[None])).data[0]
        target = tok.frame_repr(ad.constant(feats[3:4])).data[0]
        np.testing.assert_allclose(out, target, atol=1e-6, rtol=0)

    def test_batch_rows_are_independent(self):
        # Each row of a batch equals that clip's features pooled alone.
        tok = AudioTokenizer(16, D, RNG(23))
        feats = RNG(24).normal(size=(4, 8, 16))
        batch = tok.forward(ad.constant(feats)).data
        for i in range(4):
            single = tok.forward(ad.constant(feats[i:i + 1])).data[0]
            np.testing.assert_allclose(single, batch[i], atol=1e-14, rtol=0)

    def test_pooled_mean_is_frame_mean(self):
        tok = AudioTokenizer(16, D, RNG(25))
        feats = RNG(26).normal(size=(8, 16))
        pooled = tok.pooled_mean(ad.constant(feats)).data
        reps = tok.frame_repr(ad.constant(feats)).data
        np.testing.assert_allclose(pooled, reps.mean(axis=0), atol=1e-12, rtol=0)

    def test_feature_dim_checked(self):
        tok = AudioTokenizer(16, D, RNG(27))
        with pytest.raises(ContractViolation):
            tok.forward(ad.constant(np.zeros((1, 8, 15))))


class TestAssemblePrompt:
    """Each prompt is checked as a batch of one; row ``p - 1`` is ``[V_A]``."""

    def _ctx_va(self, m, d=D, seed=30):
        rng = RNG(seed)
        return ad.constant(rng.normal(size=(1, m, d))), ad.constant(rng.normal(size=(1, d)))

    def test_va_last(self):
        ctx, va = self._ctx_va(4)
        tokens = assemble_prompt(ctx, va, 5)
        assert tokens.shape == (1, 5, D)
        assert np.array_equal(tokens.data[0, :4], ctx.data[0])
        assert np.array_equal(tokens.data[0, 4], va.data[0])

    def test_va_first(self):
        ctx, va = self._ctx_va(4)
        tokens = assemble_prompt(ctx, va, 1).data[0]
        assert np.array_equal(tokens[0], va.data[0])
        assert np.array_equal(tokens[1:], ctx.data[0])

    @pytest.mark.parametrize("p", [1, 2, 3, 4, 5])
    def test_all_positions_m4(self, p):
        ctx, va = self._ctx_va(4)
        tokens = assemble_prompt(ctx, va, p).data[0]
        assert np.array_equal(tokens[p - 1], va.data[0])
        rest = np.delete(tokens, p - 1, axis=0)
        assert np.array_equal(rest, ctx.data[0])

    def test_empty_context(self):
        ctx, va = self._ctx_va(0)
        tokens = assemble_prompt(ctx, va, 1)
        assert tokens.shape == (1, 1, D)
        assert np.array_equal(tokens.data[0, 0], va.data[0])

    def test_insertion_preserves_tokens_and_order(self):
        # Sweep every (M, p): the result must contain exactly the M context
        # rows in their original relative order plus the audio row at p-1.
        for m in range(17):
            for p in range(1, m + 2):
                ctx, va = self._ctx_va(m, d=8, seed=m * 31 + p)
                tokens = assemble_prompt(ctx, va, p).data[0]
                assert tokens.shape == (m + 1, 8)
                assert np.array_equal(tokens[p - 1], va.data[0])
                rest = np.delete(tokens, p - 1, axis=0)
                assert np.array_equal(rest, ctx.data[0])

    def test_batch_matches_single(self):
        # Each row of a batch equals that prompt assembled alone.
        rng = RNG(33)
        ctx = ad.constant(rng.normal(size=(3, 4, D)))
        va = ad.constant(rng.normal(size=(3, D)))
        batch = assemble_prompt(ctx, va, 2).data
        for i in range(3):
            single = assemble_prompt(
                ad.constant(ctx.data[i:i + 1]), ad.constant(va.data[i:i + 1]), 2)
            assert np.array_equal(batch[i], single.data[0])

    def test_context_shape_checked(self):
        # The slot must exist among the M + 1 of a three-token context, and
        # the context must be a (B, M, d) batch.
        _, va = self._ctx_va(4)
        for position in (0, 5):
            with pytest.raises(ContractViolation):
                assemble_prompt(ad.constant(np.zeros((1, 3, D))), va, position)
        with pytest.raises(ContractViolation):
            assemble_prompt(ad.constant(np.zeros((3, D))), va, 1)


class TestFuseFeatures:
    """Fused mode feeds the meta-net the sum of image and audio features."""

    def _fused(self):
        return SoundLocalizer(EncoderConfig(), PromptConfig(fusion_mode="fused"), seed=40)

    def test_zero_audio_is_identity(self):
        model = self._fused()
        img = ad.constant(RNG(40).normal(size=(2, D)))
        fused = model.prompt_embeddings(img, ad.constant(np.zeros((2, D))))
        alone = model.text_encoder.forward(model.meta_net.forward(img))
        assert np.array_equal(fused.data, alone.data)

    def test_commutative(self):
        model = self._fused()
        rng = RNG(41)
        a = ad.constant(rng.normal(size=(2, D)))
        b = ad.constant(rng.normal(size=(2, D)))
        assert np.array_equal(model.prompt_embeddings(a, b).data,
                              model.prompt_embeddings(b, a).data)


class TestGradientFlow:
    def test_batch_loss_reaches_prompt_parameters(self):
        """With the encoders frozen, backward from the training loss must
        deposit nonzero gradients on every trainable parameter while
        leaving every encoder parameter untouched.
        """
        model = SoundLocalizer(EncoderConfig(), PromptConfig(), seed=60)
        model.apply_freezing()
        rng = RNG(61)
        images = rng.uniform(size=(2, 32, 32, 3))
        audios = rng.normal(size=(2, 8000))
        loss, _ = batch_loss(model, images, audios, LossWeights())
        ad.backward(loss)

        for name, p in model.trainable_parameters().items():
            assert p.grad is not None, name
            assert np.any(p.grad != 0), f"all-zero gradient on {name}"
        for name, p in model.encoder_parameters().items():
            assert p.grad is None, name

    @pytest.mark.parametrize("prompt,idle", [
        (PromptConfig(fusion_mode="fused"), ("tokenizer.key_w", "tokenizer.key_b",
                                             "tokenizer.query")),
        (PromptConfig(context_length=0), ("meta_net.base", "meta_net.w1", "meta_net.b1",
                                          "meta_net.w2", "meta_net.b2")),
    ], ids=["fused", "no-context"])
    def test_idle_parameters_need_no_gradient(self, prompt, idle):
        """``apply_freezing`` sets ``requires_grad`` on exactly the parameters
        Adam steps: what the prompt mode leaves idle is frozen too."""
        model = SoundLocalizer(EncoderConfig(), prompt, seed=60)
        model.apply_freezing()
        needs = {name for name, p in model.parameters().items() if p.requires_grad}
        assert needs == set(model.trainable_parameters())
        assert set(idle) <= set(model.parameters()) - needs

    @pytest.mark.parametrize("fusion", ["none", "fused", "ensemble"])
    def test_pruned_backward_changes_no_bit(self, fusion):
        """Skipping the gradients of frozen encoder weights must leave every
        trainable gradient bit for bit as it is when those weights are
        active too."""
        model = SoundLocalizer(
            EncoderConfig(embed_dim=16, image_size=8, patch_size=4),
            PromptConfig(context_length=2, fusion_mode=fusion), seed=62,
            dtype=np.float32)
        rng = RNG(63)
        images = rng.uniform(size=(3, 8, 8, 3))
        audios = rng.normal(size=(3, 8000))
        grads = []
        for encoders_active in (False, True):
            model.apply_freezing()
            for p in model.parameters().values():
                p.zero_grad()
            for p in model.encoder_parameters().values():
                p.requires_grad = encoders_active
            loss, _ = batch_loss(model, images, audios, LossWeights())
            ad.backward(loss)
            grads.append({k: p.grad for k, p in model.trainable_parameters().items()})
        assert grads[0].keys() == grads[1].keys()
        for name, g in grads[0].items():
            assert g.dtype == grads[1][name].dtype == np.float32, name
            assert np.array_equal(g, grads[1][name]), name
