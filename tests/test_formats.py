"""Image and audio writers: exact byte layouts, round trips through the
exact-format decoder in ``_oracles``, and shape checks."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from soundloc import formats
from soundloc.autodiff import ContractViolation

from _oracles import decode_export


class TestPGM:
    def test_known_bytes(self, tmp_path):
        path = tmp_path / "m.pgm"
        formats.write_pgm(path, np.array([[0.0, 1.0], [0.5, 0.25]]))
        raw = path.read_bytes()
        assert raw.startswith(b"P5\n2 2\n255\n")
        # round(255*0.5) = 128 (banker's rounding on .5 -> even), 0.25 -> 64
        assert raw[-4:] == bytes([0, 255, 128, 64])

    def test_round_trip_on_grid_values(self, tmp_path):
        path = tmp_path / "m.pgm"
        mask = np.arange(256).reshape(16, 16) / 255.0
        formats.write_pgm(path, mask)
        assert np.array_equal(decode_export(path), mask)

    def test_write_read_write_is_stable(self, tmp_path):
        rng = np.random.default_rng(30)
        p1, p2 = tmp_path / "a.pgm", tmp_path / "b.pgm"
        formats.write_pgm(p1, rng.random((7, 9)))
        formats.write_pgm(p2, decode_export(p1))
        assert p1.read_bytes() == p2.read_bytes()

    def test_out_of_range_values_clip(self, tmp_path):
        path = tmp_path / "m.pgm"
        formats.write_pgm(path, np.array([[-3.0, 7.0]]))
        assert np.array_equal(decode_export(path), [[0.0, 1.0]])

    def test_rejects_non_2d(self, tmp_path):
        with pytest.raises(ContractViolation, match="PGM"):
            formats.write_pgm(tmp_path / "m.pgm", np.zeros((2, 2, 3)))
        assert not (tmp_path / "m.pgm").exists()


class TestPPM:
    def test_round_trip(self, tmp_path):
        path = tmp_path / "img.ppm"
        img = np.arange(2 * 3 * 3).reshape(2, 3, 3) / 255.0
        formats.write_ppm(path, img)
        assert np.array_equal(decode_export(path), img)

    def test_header(self, tmp_path):
        path = tmp_path / "img.ppm"
        formats.write_ppm(path, np.zeros((4, 5, 3)))
        assert path.read_bytes().startswith(b"P6\n5 4\n255\n")

    def test_rejects_wrong_channel_count(self, tmp_path):
        with pytest.raises(ContractViolation, match="PPM"):
            formats.write_ppm(tmp_path / "img.ppm", np.zeros((2, 2, 4)))
        assert not (tmp_path / "img.ppm").exists()


class TestAudio:
    def test_round_trip_exact_for_float32_values(self, tmp_path):
        rng = np.random.default_rng(31)
        clip = rng.standard_normal(1000).astype(np.float32).astype(np.float64)
        path = tmp_path / "clip.spla"
        formats.write_audio(path, clip)
        assert np.array_equal(decode_export(path), clip)

    def test_layout(self, tmp_path):
        path = tmp_path / "clip.spla"
        formats.write_audio(path, np.array([1.0]))
        raw = path.read_bytes()
        assert raw[:4] == b"SPLA"
        assert int.from_bytes(raw[4:8], "little") == 1
        assert np.frombuffer(raw, "<f4", offset=8)[0] == 1.0

    def test_empty_clip(self, tmp_path):
        path = tmp_path / "clip.spla"
        formats.write_audio(path, np.zeros(0))
        assert path.read_bytes() == b"SPLA" + bytes(4)
        assert decode_export(path).shape == (0,)

    def test_rejects_2d(self, tmp_path):
        with pytest.raises(ContractViolation, match="audio"):
            formats.write_audio(tmp_path / "clip.spla", np.zeros((2, 2)))
        assert not (tmp_path / "clip.spla").exists()


@pytest.fixture(scope="module")
def codec_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("codec")


@settings(max_examples=100, deadline=None)
@given(kind=st.sampled_from(["pgm", "ppm", "spla"]), h=st.integers(0, 4),
       w=st.integers(1, 4), seed=st.integers(0, 2 ** 16))
def test_any_shape_decodes_to_the_quantized_array(codec_dir, kind, h, w, seed):
    """Every shape a writer accepts, empty ones included, leaves a file
    whose header describes it: it decodes to the array the writer was
    given, rounded to 8 bits per pixel or to float32 per sample."""
    rng = np.random.default_rng(seed)
    path = codec_dir / f"any.{kind}"
    if kind == "spla":
        values = 4.0 * rng.standard_normal(h * w)
        formats.write_audio(path, values)
        expected = values.astype(np.float32).astype(np.float64)
    else:
        values = rng.uniform(-0.5, 1.5, size=(h, w) if kind == "pgm" else (h, w, 3))
        (formats.write_pgm if kind == "pgm" else formats.write_ppm)(path, values)
        expected = np.rint(255.0 * np.clip(values, 0.0, 1.0)) / 255.0
    assert np.array_equal(decode_export(path), expected)
