"""Tests for conditional mask decoding, mask-grounded embeddings, and the
pairwise similarity tables.

The decoder starts with an identity conditioning path (scale 1, shift 0
for every condition), which gives an exact handle on "conditioning is the
only way the condition vector can matter": at init, swapping conditions
must not change the mask at all.
"""

import numpy as np
import pytest

from soundloc import autodiff as ad
from soundloc.autodiff import ContractViolation
from soundloc.encoders import EncoderConfig, ImageEncoder
from soundloc.grounding import MaskDecoder, masked_pool, masked_reencode
from soundloc.model import SoundLocalizer
from soundloc.prompting import PromptConfig, assemble_prompt

from _oracles import (
    bilinear_loops,
    ensemble_slice_sum,
    gathered_decode_logits,
    gathered_masked_pool,
    gathered_masked_reencode,
    masked_pool_loops,
)


def _grid(cells, d, seed):
    """One image's (1, cells, d) grid features."""
    return ad.constant(np.random.default_rng(seed).normal(size=(1, cells, d)))


def _count_decodes(monkeypatch) -> list[int]:
    """Record the masks decoded by every ``MaskDecoder.decode_logits`` call:
    one per condition row."""
    counted = []
    real = MaskDecoder.decode_logits

    def spy(self, grid, cond):
        counted.append(cond.shape[0])
        return real(self, grid, cond)

    monkeypatch.setattr(MaskDecoder, "decode_logits", spy)
    return counted


class TestMaskDecoder:
    def test_identity_init_ignores_condition(self):
        # scale_w/shift_w start at zero, so gamma == 1 and beta == 0 for
        # any condition: two different conditions give identical logits.
        dec = MaskDecoder(8, 2, np.random.default_rng(0))
        grid = ad.constant(np.random.default_rng(1).normal(size=(1, 4, 8)))
        rng = np.random.default_rng(2)
        a = dec.decode_logits(grid, ad.constant(rng.normal(size=(1, 8)))).data
        b = dec.decode_logits(grid, ad.constant(rng.normal(size=(1, 8)))).data
        assert np.array_equal(a, b)

    def test_trained_conditioning_differentiates(self):
        dec = MaskDecoder(8, 2, np.random.default_rng(3))
        dec.scale_w.data[:] = np.random.default_rng(4).normal(size=(8, 8))
        dec.shift_w.data[:] = np.random.default_rng(5).normal(size=(8, 8))
        grid = ad.constant(np.random.default_rng(6).normal(size=(1, 4, 8)))
        rng = np.random.default_rng(7)
        a = dec.decode_logits(grid, ad.constant(rng.normal(size=(1, 8)))).data
        b = dec.decode_logits(grid, ad.constant(rng.normal(size=(1, 8)))).data
        assert np.abs(a - b).max() > 1e-6

    @pytest.mark.parametrize("grid_shape,cond_shape", [
        ((4, 8), (1, 8)),        # grid not batched
        ((1, 4, 8), (8,)),       # condition not batched
        ((2, 4, 8), (3, 8)),     # rows not R per image
        ((2, 4, 8), (0, 8)),     # no rows
        ((0, 4, 8), (2, 8)),     # rows without images
    ])
    def test_shape_contract(self, grid_shape, cond_shape):
        dec = MaskDecoder(8, 2, np.random.default_rng(9))
        with pytest.raises(ContractViolation):
            dec.decode_logits(ad.constant(np.zeros(grid_shape)),
                              ad.constant(np.zeros(cond_shape)))


class TestDecodeMask:
    """Masks from ``SoundLocalizer.decode_pairs`` for one (image, audio) pair,
    on a tiny model whose 8x8 images give a 2x2 cell grid."""

    def _decode(self, seed):
        model = SoundLocalizer(EncoderConfig(embed_dim=16, image_size=8, patch_size=4,
                                             text_heads=2), PromptConfig(), seed=seed)
        rng = np.random.default_rng(seed + 1)
        percept = model.perceive(rng.uniform(size=(1, 8, 8, 3)), rng.normal(size=(1, 8000)))
        return model.decode_pairs(percept, np.arange(1))

    def test_output_ranges_and_shapes(self):
        dec = self._decode(10)
        assert dec.feature_masks.shape == (1, 4)
        assert dec.image_masks.shape == (1, 8, 8)
        for arr in (dec.feature_masks.data, dec.image_masks.data):
            assert np.all(arr > 0) and np.all(arr < 1)

    def test_upsample_then_sigmoid_order(self):
        """The image mask is sigmoid(upsample(logits)), not
        upsample(sigmoid(logits)); verified against the loop-based
        bilinear oracle on the decoder's actual 2x2 logits.
        """
        dec = self._decode(12)
        image_mask = dec.image_masks.data[0]
        logits = dec.logits.data.reshape(2, 2)
        expected = 1.0 / (1.0 + np.exp(-bilinear_loops(logits, 8, 8)))
        np.testing.assert_allclose(image_mask, expected, atol=1e-12, rtol=0)
        # The other composition order gives a genuinely different mask.
        other = bilinear_loops(1.0 / (1.0 + np.exp(-logits)), 8, 8)
        assert np.abs(image_mask - other).max() > 1e-9


@pytest.fixture(scope="module")
def encoder():
    return ImageEncoder(EncoderConfig(), np.random.default_rng(20))


@pytest.fixture(scope="module")
def model():
    return SoundLocalizer(EncoderConfig(), PromptConfig(), seed=7)


class TestGroundedEmbeddingImage:
    """``masked_reencode`` on a batch of one image."""

    def _image(self, seed=21):
        return ad.constant(np.random.default_rng(seed).uniform(size=(1, 32, 32, 3)))

    def test_full_mask_is_plain_embedding(self, encoder):
        img = self._image()
        v = masked_reencode(img, ad.constant(np.ones((1, 32, 32))), encoder)
        plain = ad.l2_normalize(encoder.forward(img)[1], axis=-1)
        np.testing.assert_allclose(v.data, plain.data, atol=1e-12, rtol=0)

    def test_zero_mask_is_blank_image_embedding(self, encoder):
        v = masked_reencode(self._image(), ad.constant(np.zeros((1, 32, 32))), encoder)
        blank = ad.l2_normalize(
            encoder.forward(ad.constant(np.zeros((1, 32, 32, 3))))[1], axis=-1)
        np.testing.assert_allclose(v.data, blank.data, atol=1e-12, rtol=0)

    def test_unit_norm(self, encoder):
        mask = ad.constant(np.random.default_rng(22).uniform(size=(1, 32, 32)))
        v = masked_reencode(self._image(23), mask, encoder)
        assert abs(np.linalg.norm(v.data) - 1.0) < 1e-9

    def test_misaligned_mask_rejected(self, encoder):
        with pytest.raises(ContractViolation):
            masked_reencode(self._image(), ad.constant(np.ones((1, 16, 16))), encoder)


class TestGroundedEmbeddingFeature:
    """``masked_pool`` on one 4x4 grid of 8-dim cells."""

    def test_one_hot_mask_selects_cell(self):
        grid = _grid(16, 8, 30)
        mask = np.zeros((1, 16))
        mask[0, 6] = 1.0
        v = masked_pool(grid, ad.constant(mask)).data[0]
        cell = grid.data[0, 6]
        np.testing.assert_allclose(v, cell / np.linalg.norm(cell),
                                   atol=1e-12, rtol=0)

    def test_uniform_mask_is_mean_direction(self):
        grid = _grid(16, 8, 31)
        v = masked_pool(grid, ad.constant(np.ones((1, 16)))).data[0]
        mean = grid.data[0].mean(axis=0)
        np.testing.assert_allclose(v, mean / np.linalg.norm(mean),
                                   atol=1e-12, rtol=0)

    @pytest.mark.parametrize("k", [1e-2, 0.5, 3.0, 1e3])
    def test_positive_scaling_invariance(self, k):
        grid = _grid(16, 8, 32)
        mask = np.random.default_rng(33).uniform(0.1, 1.0, size=(1, 16))
        base = masked_pool(grid, ad.constant(mask)).data
        scaled = masked_pool(grid, ad.constant(k * mask)).data
        np.testing.assert_allclose(scaled, base, atol=1e-9, rtol=0)

    def test_mask_shape_checked(self):
        with pytest.raises(ContractViolation):
            masked_pool(_grid(16, 8, 35), ad.constant(np.ones((1, 9))))


class TestMaskedPoolBatch:
    def test_matches_scalar_path(self):
        rng = np.random.default_rng(40)
        grids = rng.normal(size=(5, 16, 8))
        masks = rng.uniform(0.05, 0.95, size=(5, 16))
        batch = masked_pool(ad.constant(grids), ad.constant(masks)).data
        for i in range(5):
            np.testing.assert_allclose(batch[i], masked_pool_loops(grids[i], masks[i]),
                                       atol=1e-12, rtol=0)

    def test_rows_unit_norm(self):
        rng = np.random.default_rng(41)
        out = masked_pool(ad.constant(rng.normal(size=(3, 9, 4))),
                          ad.constant(rng.uniform(0.1, 1, size=(3, 9)))).data
        np.testing.assert_allclose(np.linalg.norm(out, axis=1), 1.0,
                                   atol=1e-9, rtol=0)


class TestBroadcastEqualsGathered:
    """The grounding functions broadcast each image over its R rows; their
    values and gradients are those of gathering a copy per row, bit for bit."""

    B = 3

    @staticmethod
    def _run(fn, inputs, rng):
        """``fn``'s output and the gradients of ``inputs`` under a random weighting."""
        out = fn(*inputs)
        w = rng.standard_normal(out.shape).astype(out.dtype)
        ad.backward((out * ad.constant(w)).sum())
        return [out.data] + [t.grad for t in inputs if t.requires_grad]

    def _compare(self, broadcast, gathered, make_inputs, params=()):
        results = []
        for fn in (broadcast, gathered):
            for p in params:
                p.zero_grad()
            inputs = make_inputs()
            results.append(self._run(fn, inputs, np.random.default_rng(70))
                           + [p.grad for p in params])
        for got, want in zip(*results):
            assert got.dtype == want.dtype and np.array_equal(got, want)

    @pytest.mark.parametrize("r", [1, B])
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_decode_logits(self, dtype, r):
        dec = MaskDecoder(16, 2, np.random.default_rng(71))
        rng = np.random.default_rng(72)
        for p in (dec.scale_w, dec.shift_w):
            p.data[:] = rng.normal(size=p.shape)
        dec.to_dtype(dtype)
        grid = rng.normal(size=(self.B, 9, 16)).astype(dtype)
        cond = rng.normal(size=(self.B * r, 16)).astype(dtype)
        self._compare(dec.decode_logits, lambda g, c: gathered_decode_logits(dec, g, c),
                      lambda: [ad.constant(grid), ad.Tensor(cond.copy(), requires_grad=True)],
                      params=list(dec.parameters().values()))

    @pytest.mark.parametrize("r", [1, B])
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_masked_pool(self, dtype, r):
        rng = np.random.default_rng(73)
        grids = rng.normal(size=(self.B, 9, 16)).astype(dtype)
        masks = rng.uniform(0.05, 0.95, size=(self.B * r, 9)).astype(dtype)
        self._compare(masked_pool, gathered_masked_pool,
                      lambda: [ad.constant(grids), ad.Tensor(masks.copy(), requires_grad=True)])

    @pytest.mark.parametrize("r", [1, B])
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_masked_reencode(self, dtype, r):
        encoder = ImageEncoder(EncoderConfig(), np.random.default_rng(74))
        encoder.to_dtype(dtype)
        for p in encoder.parameters().values():
            p.requires_grad = False
        rng = np.random.default_rng(75)
        images = rng.uniform(size=(self.B, 32, 32, 3)).astype(dtype)
        masks = rng.uniform(size=(self.B * r, 32, 32)).astype(dtype)
        self._compare(lambda i, m: masked_reencode(i, m, encoder),
                      lambda i, m: gathered_masked_reencode(i, m, encoder),
                      lambda: [ad.constant(images), ad.Tensor(masks.copy(), requires_grad=True)])

    @pytest.mark.parametrize("rows", [2, 4, 0])
    def test_rows_must_be_r_per_image(self, encoder, rows):
        with pytest.raises(ContractViolation):
            masked_pool(ad.constant(np.ones((3, 9, 16))), ad.constant(np.ones((rows, 9))))
        with pytest.raises(ContractViolation):
            masked_reencode(ad.constant(np.zeros((3, 32, 32, 3))),
                            ad.constant(np.ones((rows, 32, 32))), encoder)
        with pytest.raises(ContractViolation):
            MaskDecoder(8, 2, np.random.default_rng(77)).decode_logits(
                ad.constant(np.zeros((3, 4, 8))), ad.constant(np.zeros((rows, 8))))


class TestSimilarityTables:
    def _batch(self, b, seed=50):
        rng = np.random.default_rng(seed)
        images = rng.uniform(size=(b, 32, 32, 3))
        audios = rng.normal(size=(b, 8000))
        return images, audios

    def test_all_pairs_decoded_exactly_once(self, model, monkeypatch):
        images, audios = self._batch(3)
        percept = model.perceive(images, audios)
        counted = _count_decodes(monkeypatch)
        s_img, s_feat, pair_means, _ = model.similarity_tables(percept)
        assert sum(counted) == 9
        assert s_img.shape == (3, 3) and s_feat.shape == (3, 3)
        assert pair_means.shape == (3, 3)

    def test_entries_are_cosines(self, model):
        images, audios = self._batch(4, seed=51)
        percept = model.perceive(images, audios)
        s_img, s_feat, pair_means, _ = model.similarity_tables(percept)
        for table in (s_img.data, s_feat.data):
            assert np.all(table >= -1.0 - 1e-9)
            assert np.all(table <= 1.0 + 1e-9)
        assert np.all(pair_means.data > 0)
        assert np.all(pair_means.data < 1)

    def test_single_sample_table(self, model):
        images, audios = self._batch(1, seed=52)
        s_img, s_feat, _, _ = model.similarity_tables(model.perceive(images, audios))
        assert s_img.shape == (1, 1)
        assert -1.0 - 1e-9 <= float(s_img.data[0, 0]) <= 1.0 + 1e-9

    def test_duplicated_sample_duplicates_rows_and_columns(self, model):
        images, audios = self._batch(2, seed=53)
        images = np.stack([images[0], images[0], images[1]])
        audios = np.stack([audios[0], audios[0], audios[1]])
        s_img, s_feat, _, _ = model.similarity_tables(model.perceive(images, audios))
        for table in (s_img.data, s_feat.data):
            assert np.array_equal(table[0], table[1])
            assert np.array_equal(table[:, 0], table[:, 1])

    def test_empty_batch_predicts_no_masks(self, model):
        masks = model.predict_masks(np.zeros((0, 32, 32, 3)), np.zeros((0, 8000)))
        assert masks.shape == (0, 32, 32)

    def test_predict_masks_diagonal_only(self, model, monkeypatch):
        images, audios = self._batch(3, seed=54)
        counted = _count_decodes(monkeypatch)
        masks = model.predict_masks(images, audios)
        assert sum(counted) == 3
        assert masks.shape == (3, 32, 32)
        assert np.all(masks > 0) and np.all(masks < 1)


class TestFusionModes:
    def _batch(self, b, seed=60):
        rng = np.random.default_rng(seed)
        return rng.uniform(size=(b, 32, 32, 3)), rng.normal(size=(b, 8000))

    def test_fused_prompt_has_no_audio_token(self):
        # Fused mode conditions the meta-net on image+audio and drops the
        # audio token, so the text encoder sees M tokens, not M+1.
        model = SoundLocalizer(EncoderConfig(),
                               PromptConfig(fusion_mode="fused"), seed=8)
        seen = []
        orig = model.text_encoder.forward

        def spy(tokens, **kw):
            seen.append(tokens.shape)
            return orig(tokens, **kw)

        model.text_encoder.forward = spy
        images, audios = self._batch(2)
        model.similarity_tables(model.perceive(images, audios))
        assert all(shape[1] == 4 for shape in seen)

    def test_fused_mode_excludes_pooling_parameters(self):
        model = SoundLocalizer(EncoderConfig(),
                               PromptConfig(fusion_mode="fused"), seed=8)
        names = model.trainable_parameters()
        assert "tokenizer.query" not in names
        assert "tokenizer.w1" in names

    def test_fused_without_context_rejected(self):
        with pytest.raises(ContractViolation):
            SoundLocalizer(EncoderConfig(),
                           PromptConfig(context_length=0, fusion_mode="fused"))

    def test_ensemble_averages_positions(self):
        # Ensemble mode stacks the M+1 insertion points of every pair into
        # one text-encoder call and averages each pair's M+1 embeddings.
        model = SoundLocalizer(EncoderConfig(),
                               PromptConfig(fusion_mode="ensemble"), seed=9)
        seen = []
        orig = model.text_encoder.forward

        def spy(tokens, **kw):
            seen.append(tokens.shape)
            return orig(tokens, **kw)

        model.text_encoder.forward = spy
        images, audios = self._batch(2, seed=61)
        percept = model.perceive(images, audios)
        s_img, _, _, dec = model.similarity_tables(percept)
        assert seen == [(5 * 2 * 2, 5, 64)]
        assert np.all(np.abs(s_img.data) <= 1.0 + 1e-9)

        # Pair n = 2 * i + j decodes image i with audio j.
        pooled_i = percept.pooled[np.repeat(np.arange(2), 2)]
        context = model.meta_net.forward(pooled_i)
        va = model.tokenizer.forward(percept.audio_feats)[np.tile(np.arange(2), 2)]
        singles = [orig(assemble_prompt(context, va, pos)).data
                   for pos in range(1, 6)]
        assert np.abs(dec.conditions.data - np.mean(singles, axis=0)).max() <= 1e-6
        assert np.array_equal(dec.conditions.data, ensemble_slice_sum(model, pooled_i, va).data)

    @pytest.mark.parametrize("context_length", [1, 4])
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_ensemble_sum_is_bit_equal_to_the_slice_chain(self, dtype, context_length):
        """The conditions and the gradients of every meta-net and tokenizer
        parameter equal those of adding the M + 1 slices one by one."""
        model = SoundLocalizer(EncoderConfig(), PromptConfig(
            context_length=context_length, fusion_mode="ensemble"), seed=9, dtype=dtype)
        model.apply_freezing()
        percept = model.perceive(*self._batch(3, seed=62))
        pooled_i = percept.pooled[np.repeat(np.arange(3), 3)]
        w = ad.constant(np.random.default_rng(63).standard_normal((9, 64)).astype(dtype))
        params = {k: t for k, t in model.trainable_parameters().items()
                  if k.startswith(("meta_net.", "tokenizer."))}
        results = []
        for embed in (model.prompt_embeddings, lambda p, a: ensemble_slice_sum(model, p, a)):
            for t in params.values():
                t.zero_grad()
            va = model.tokenizer.forward(percept.audio_feats)[np.tile(np.arange(3), 3)]
            cond = embed(pooled_i, va)
            ad.backward((cond * w).sum())
            results.append([cond.data] + [params[k].grad for k in sorted(params)])
        assert len(results[0]) == 1 + 12
        for got, want in zip(*results):
            assert got.dtype == dtype and np.array_equal(got, want)
