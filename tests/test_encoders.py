"""Encoder behavior: patch locality, filterbank semantics, causality."""

import numpy as np
import pytest

import soundloc.autodiff as ad
from soundloc import audiofeat
from soundloc.autodiff import ContractViolation, Tensor
from soundloc.encoders import AudioEncoder, EncoderConfig, ImageEncoder, TextEncoder

from _oracles import dft_power_loops


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
        with pytest.raises(ContractViolation):
            EncoderConfig(image_size=30, patch_size=4)

    def test_rejects_indivisible_heads(self):
        with pytest.raises(ContractViolation):
            EncoderConfig(embed_dim=64, text_heads=5)

    def test_audio_front_end_is_pinned(self):
        with pytest.raises(ContractViolation):
            EncoderConfig(audio_frames=4)
        with pytest.raises(ContractViolation):
            EncoderConfig(audio_feature_dim=32)


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
        centers = audiofeat.band_center_bins()
        assert centers.shape == (16,)
        assert centers[0] == 47 and centers[1] == 74
        assert np.all(np.diff(centers) == 27)

    def test_filterbank_peaks_at_one(self):
        fb = audiofeat.filterbank_matrix()
        assert fb.shape == (16, 501)
        centers = audiofeat.band_center_bins()
        for i, c in enumerate(centers):
            assert fb[i, c] == 1.0
        # triangles vanish at their shared edges
        edges = 20 + 27 * np.arange(18)
        for i in range(16):
            assert fb[i, edges[i]] == 0.0
            assert fb[i, edges[i + 2]] == 0.0

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
        centers = set(audiofeat.band_center_bins().tolist())
        seen = set()
        for label in range(8):
            a, b = audiofeat.class_tone_bins(label)
            assert {a, b} <= centers
            assert not {a, b} & seen
            seen |= {a, b}
        with pytest.raises(ContractViolation):
            audiofeat.class_tone_bins(8)


class TestAudioEncoder:
    def test_identity_init_passes_band_energies_through(self, cfg):
        enc = AudioEncoder(cfg, _rng())
        rng = np.random.default_rng(43)
        clip = rng.standard_normal(8000)
        out = enc.forward(clip[None])[0]
        assert np.array_equal(out.data, audiofeat.frame_energies(clip))

    def test_batch_shape_and_validation(self, cfg):
        enc = AudioEncoder(cfg, _rng())
        out = enc.forward(np.zeros((3, 8000)))
        assert out.shape == (3, 8, 16)
        with pytest.raises(ContractViolation):
            enc.forward(np.zeros((3, 4000)))


class TestTextEncoder:
    def test_unit_norm_output(self, cfg):
        enc = TextEncoder(cfg, _rng())
        tokens = Tensor(np.random.default_rng(44).standard_normal((5, 7, 64)) * 0.02)
        out = enc.forward(tokens)
        assert out.shape == (5, 64)
        assert np.allclose(np.linalg.norm(out.data, axis=-1), 1.0, atol=1e-12)

    def test_causality_prefix_states_are_bit_identical(self, cfg):
        """Replacing suffix tokens with junk must leave every prefix hidden
        state untouched, exactly, in every layer."""
        enc = TextEncoder(cfg, _rng())
        rng = np.random.default_rng(45)
        base = rng.standard_normal((2, 9, 64)) * 0.02
        for cut in (1, 4, 8):
            junk = base.copy()
            junk[:, cut:, :] = rng.standard_normal((2, 9 - cut, 64)) * 50.0
            _, h0 = enc.forward(Tensor(base), return_hidden=True)
            _, h1 = enc.forward(Tensor(junk), return_hidden=True)
            for a, b in zip(h0, h1):
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
