"""Encoder behavior: patch locality, filterbank semantics, causality."""

import numpy as np
import pytest

import soundloc.autodiff as ad
from soundloc import audiofeat
from soundloc.autodiff import ContractViolation, Tensor
from soundloc.encoders import EncoderConfig, ImageEncoder, TextEncoder
from soundloc.layers import TransformerBlock
from soundloc.model import SoundLocalizer
from soundloc.prompting import PromptConfig

from _oracles import dft_power_loops, filterbank_edges_loops, filterbank_loops


@pytest.fixture
def cfg():
    return EncoderConfig()


def _rng():
    return np.random.default_rng(40)


class TestEncoderConfig:
    def test_derived_sizes(self, cfg):
        assert cfg.grid_size == 8
        assert cfg.n_cells == 64
        assert cfg.patch_dim == 4 * 4 * 3

    def test_rejects_indivisible_patch(self):
        for patch in (0, -4):
            with pytest.raises(ContractViolation, match="patch_size"):
                EncoderConfig(patch_size=patch)
        with pytest.raises(ContractViolation):
            EncoderConfig(image_size=30, patch_size=4)

    def test_rejects_indivisible_heads(self):
        for heads in (0, -4):
            with pytest.raises(ContractViolation, match="text_heads"):
                EncoderConfig(text_heads=heads)
        with pytest.raises(ContractViolation):
            EncoderConfig(embed_dim=64, text_heads=5)

    def test_rejects_empty_embedding(self):
        for dim in (0, -8):
            with pytest.raises(ContractViolation, match="embed_dim"):
                EncoderConfig(embed_dim=dim)


class TestImageEncoder:
    def test_output_shapes(self, cfg):
        enc = ImageEncoder(cfg, _rng())
        images = Tensor(np.random.default_rng(1).random((3, 32, 32, 3)))
        grid, pooled = enc.forward(images)
        assert grid.shape == (3, 64, 64)
        assert pooled.shape == (3, 64)

    def test_patch_tokens_are_local(self, cfg):
        """Editing pixels inside one 4x4 patch may move only that patch's
        token (before any attention mixing)."""
        enc = ImageEncoder(cfg, _rng())
        rng = np.random.default_rng(2)
        base = rng.random((1, 32, 32, 3))
        edited = base.copy()
        edited[0, 8:12, 20:24, :] = rng.random((4, 4, 3))  # patch row 2, col 5
        t0 = enc.patch_tokens(Tensor(base)).data[0]
        t1 = enc.patch_tokens(Tensor(edited)).data[0]
        changed = np.flatnonzero(np.any(t0 != t1, axis=-1))
        assert changed.tolist() == [2 * 8 + 5]

    def test_pooled_is_mean_of_grid(self, cfg):
        enc = ImageEncoder(cfg, _rng())
        images = Tensor(np.random.default_rng(3).random((2, 32, 32, 3)))
        grid, pooled = enc.forward(images)
        assert np.allclose(pooled.data, grid.data.mean(axis=1), atol=1e-12)

    def test_rejects_wrong_geometry(self, cfg):
        enc = ImageEncoder(cfg, _rng())
        with pytest.raises(ContractViolation):
            enc.forward(Tensor(np.zeros((1, 16, 16, 3))))

    def test_same_seed_same_params(self, cfg):
        a = ImageEncoder(cfg, np.random.default_rng(9))
        b = ImageEncoder(cfg, np.random.default_rng(9))
        for k, v in a.parameters().items():
            assert np.array_equal(v.data, b.parameters()[k].data)


class TestFilterbank:
    def test_band_edges_and_centers(self):
        centers = np.asarray(filterbank_edges_loops()[1:-1])
        assert centers.shape == (16,)
        assert centers[0] == 47 and centers[1] == 74
        assert np.all(np.diff(centers) == 27)

    def test_filterbank_peaks_at_one(self):
        fb = audiofeat._filterbank()
        assert fb.shape == (16, 501)
        assert np.array_equal(fb, np.asarray(filterbank_loops()))
        centers = filterbank_edges_loops()[1:-1]
        for i, c in enumerate(centers):
            assert fb[i, c] == 1.0
        # triangles vanish at their shared edges
        edges = 20 + 27 * np.arange(18)
        for i in range(16):
            assert fb[i, edges[i]] == 0.0
            assert fb[i, edges[i + 2]] == 0.0

    def test_cached_filterbank_is_read_only(self):
        with pytest.raises(ValueError):
            audiofeat._filterbank()[0, 0] = 1.0

    def test_periodogram_matches_direct_dft(self):
        """FFT periodogram vs a direct quadratic DFT on spot-checked bins
        (DC, band edges/centers, Nyquist)."""
        rng = np.random.default_rng(41)
        frame = rng.standard_normal(1000)
        got = audiofeat.periodogram(frame)
        bins = [0, 1, 20, 47, 74, 250, 499, 500]
        want = dft_power_loops(frame, bins=bins)
        assert np.max(np.abs(got[bins] - np.asarray(want))) < 1e-12

    def test_pure_center_tone_lands_in_one_band(self):
        # bin-47 sinusoid over a 1000-sample frame is exactly periodic,
        # so its energy cannot leak into other bins
        t = np.arange(1000)
        clip = np.tile(np.sin(2 * np.pi * 47 * t / 1000), 8)
        feats = audiofeat.frame_energies(clip)
        assert feats.shape == (8, 16)
        assert np.all(feats[:, 0] > 0.4)
        np.testing.assert_allclose(feats[:, 1:], 0.0, atol=1e-12)

    def test_energy_scales_quadratically(self):
        rng = np.random.default_rng(42)
        clip = rng.standard_normal(8000)
        e1 = audiofeat.frame_energies(clip)
        e2 = audiofeat.frame_energies(2.0 * clip)
        assert np.allclose(e2, 4.0 * e1, rtol=1e-10)

    def test_silence_gives_exact_zeros(self):
        assert np.array_equal(audiofeat.frame_energies(np.zeros(8000)),
                              np.zeros((8, 16)))

    def test_class_tone_bins_are_distinct_band_centers(self):
        centers = set(filterbank_edges_loops()[1:-1])
        seen = set()
        for label in range(8):
            a, b = audiofeat.class_tone_bins(label)
            assert {a, b} <= centers
            assert not {a, b} & seen
            seen |= {a, b}
        with pytest.raises(ContractViolation):
            audiofeat.class_tone_bins(8)


class TestAudioEncoder:
    """The audio encoder is the fixed filterbank, applied in
    ``SoundLocalizer.perceive``; it has no parameters."""

    @staticmethod
    def _model(dtype=np.float64):
        return SoundLocalizer(EncoderConfig(embed_dim=16, image_size=8, patch_size=4),
                              PromptConfig(), seed=41, dtype=dtype)

    @staticmethod
    def _images(b):
        return np.random.default_rng(42).uniform(size=(b, 8, 8, 3))

    def test_audio_feats_are_band_energies_in_model_dtype(self):
        clips = np.random.default_rng(43).standard_normal((2, 8000))
        for dtype in (np.float64, np.float32):
            feats = self._model(dtype).perceive(self._images(2), clips).audio_feats
            assert not feats.requires_grad
            assert feats.dtype == dtype
            assert np.array_equal(feats.data, audiofeat.frame_energies(clips).astype(dtype))

    def test_batch_rows_equal_single_clips(self):
        """One feature call for the whole batch gives each clip's features
        exactly as that clip alone would."""
        model = self._model()
        images = self._images(5)
        clips = np.random.default_rng(47).standard_normal((5, 8000))
        batch = model.perceive(images, clips).audio_feats.data
        for i in range(5):
            alone = model.perceive(images[i:i + 1], clips[i:i + 1]).audio_feats.data
            assert np.array_equal(batch[i], alone[0])
            assert np.array_equal(batch[i], audiofeat.frame_energies(clips[i]))

    def test_batch_shape_and_validation(self):
        """One 8000-sample clip per image; anything else names both batch
        shapes.  More clips than images used to be dropped silently, and
        fewer to end in an IndexError."""
        model = self._model()
        images = self._images(3)
        assert model.perceive(images, np.zeros((3, 8000))).audio_feats.shape == (3, 8, 16)
        for shape in ((3, 4000), (8000,), (3, 1, 8000), (5, 8000), (2, 8000)):
            with pytest.raises(ContractViolation) as exc:
                model.predict_masks(images, np.zeros(shape))
            assert str(shape) in str(exc.value) and "(3, 8, 8, 3)" in str(exc.value)


class TestTextEncoder:
    def test_unit_norm_output(self, cfg):
        enc = TextEncoder(cfg, _rng())
        tokens = Tensor(np.random.default_rng(44).standard_normal((5, 7, 64)) * 0.02)
        out = enc.forward(tokens)
        assert out.shape == (5, 64)
        assert np.allclose(np.linalg.norm(out.data, axis=-1), 1.0, atol=1e-12)

    def test_causality_prefix_states_are_bit_identical(self, cfg, monkeypatch):
        """Replacing suffix tokens with junk must leave every prefix hidden
        state untouched, exactly, in every layer."""
        enc = TextEncoder(cfg, _rng())
        hidden = []
        block_forward = TransformerBlock.forward

        def spy(blk, x):
            hidden.append(block_forward(blk, x))
            return hidden[-1]

        def hidden_states(tokens):
            hidden.clear()
            enc.forward(Tensor(tokens))
            assert len(hidden) == cfg.text_layers
            return hidden[:]

        monkeypatch.setattr(TransformerBlock, "forward", spy)
        rng = np.random.default_rng(45)
        base = rng.standard_normal((2, 9, 64)) * 0.02
        for cut in (1, 4, 8):
            junk = base.copy()
            junk[:, cut:, :] = rng.standard_normal((2, 9 - cut, 64)) * 50.0
            for a, b in zip(hidden_states(base), hidden_states(junk)):
                assert np.array_equal(a.data[:, :cut, :], b.data[:, :cut, :])

    def test_suffix_actually_matters(self, cfg):
        """Guard against trivially passing causality by ignoring the suffix:
        the final embedding must change when the last token changes.  The
        perturbation hits a single coordinate; a uniform shift would sit in
        layer norm's null space and (correctly) vanish.
        """
        enc = TextEncoder(cfg, _rng())
        rng = np.random.default_rng(46)
        base = rng.standard_normal((1, 5, 64)) * 0.02
        other = base.copy()
        other[0, -1, 3] += 0.5
        a = enc.forward(Tensor(base)).data
        b = enc.forward(Tensor(other)).data
        assert np.abs(a - b).max() > 1e-6

    def test_sequence_length_bounds(self, cfg):
        enc = TextEncoder(cfg, _rng())
        with pytest.raises(ContractViolation):
            enc.forward(Tensor(np.zeros((1, 33, 64))))
        with pytest.raises(ContractViolation):
            enc.forward(Tensor(np.zeros((1, 5, 32))))

    def test_single_and_batch_agree(self, cfg):
        """A sequence encoded alone (B = 1) matches its row in a larger batch."""
        enc = TextEncoder(cfg, _rng())
        tokens = np.random.default_rng(47).standard_normal((3, 6, 64)) * 0.02
        batched = enc.forward(Tensor(tokens)).data
        for i in range(3):
            single = enc.forward(Tensor(tokens[i:i + 1]))[0].data
            assert np.allclose(single, batched[i], atol=1e-12)
