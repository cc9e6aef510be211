"""Image and audio codec round-trips, including exact byte layouts, and
malformed files: only ``FormatError`` may come out of a reader."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from soundloc import formats
from soundloc.formats import FormatError


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
        assert np.array_equal(formats.read_pgm(path), mask)

    def test_write_read_write_is_stable(self, tmp_path):
        rng = np.random.default_rng(30)
        p1, p2 = tmp_path / "a.pgm", tmp_path / "b.pgm"
        formats.write_pgm(p1, rng.random((7, 9)))
        formats.write_pgm(p2, formats.read_pgm(p1))
        assert p1.read_bytes() == p2.read_bytes()

    def test_out_of_range_values_clip(self, tmp_path):
        path = tmp_path / "m.pgm"
        formats.write_pgm(path, np.array([[-3.0, 7.0]]))
        assert np.array_equal(formats.read_pgm(path), [[0.0, 1.0]])

    def test_rejects_non_2d(self, tmp_path):
        with pytest.raises(FormatError):
            formats.write_pgm(tmp_path / "m.pgm", np.zeros((2, 2, 3)))

    def test_rejects_bad_magic(self, tmp_path):
        path = tmp_path / "m.pgm"
        path.write_bytes(b"P4\n1 1\n255\n\x00")
        with pytest.raises(FormatError):
            formats.read_pgm(path)

    def test_rejects_wide_maxval(self, tmp_path):
        path = tmp_path / "m.pgm"
        path.write_bytes(b"P5\n1 1\n65535\n\x00\x00")
        with pytest.raises(FormatError, match="maxval"):
            formats.read_pgm(path)


class TestPPM:
    def test_round_trip(self, tmp_path):
        path = tmp_path / "img.ppm"
        img = np.arange(2 * 3 * 3).reshape(2, 3, 3) / 255.0
        formats.write_ppm(path, img)
        assert np.array_equal(formats.read_ppm(path), img)

    def test_header(self, tmp_path):
        path = tmp_path / "img.ppm"
        formats.write_ppm(path, np.zeros((4, 5, 3)))
        assert path.read_bytes().startswith(b"P6\n5 4\n255\n")

    def test_rejects_wrong_channel_count(self, tmp_path):
        with pytest.raises(FormatError):
            formats.write_ppm(tmp_path / "img.ppm", np.zeros((2, 2, 4)))


class TestAudio:
    def test_round_trip_exact_for_float32_values(self, tmp_path):
        rng = np.random.default_rng(31)
        clip = rng.standard_normal(1000).astype(np.float32).astype(np.float64)
        path = tmp_path / "clip.spla"
        formats.write_audio(path, clip)
        assert np.array_equal(formats.read_audio(path), clip)

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
        assert formats.read_audio(path).shape == (0,)

    def test_rejects_2d(self, tmp_path):
        with pytest.raises(FormatError):
            formats.write_audio(tmp_path / "clip.spla", np.zeros((2, 2)))

    def test_rejects_bad_magic(self, tmp_path):
        path = tmp_path / "clip.spla"
        path.write_bytes(b"WHAT" + b"\x00" * 8)
        with pytest.raises(FormatError):
            formats.read_audio(path)


# kind -> (writer, reader, array of the given dims)
CODECS = {
    "pgm": (formats.write_pgm, formats.read_pgm, lambda rng, h, w: rng.random((h, w))),
    "ppm": (formats.write_ppm, formats.read_ppm, lambda rng, h, w: rng.random((h, w, 3))),
    "spla": (formats.write_audio, formats.read_audio,
             lambda rng, h, w: rng.standard_normal(h * w)),
}


@pytest.fixture(scope="module")
def codec_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("codec")


def _valid_file(path, kind, h, w) -> bytes:
    write, _, make = CODECS[kind]
    write(path, make(np.random.default_rng(h * 5 + w), h, w))
    return path.read_bytes()


class TestMalformedInput:
    @pytest.mark.parametrize("kind,raw", [
        ("pgm", b"P5\nxx 4\n255\n"),
        ("ppm", b"P6\n4 xx\n255\n"),
        ("pgm", b"P5\n4 4\n255\n" + bytes(15)),
        ("ppm", b"P6\n2 2\n255\n" + bytes(11)),
        ("pgm", b"P5\n4 4"),
        ("pgm", b"P5\n-1 -1\n255\n\x00"),
        ("spla", b"SPLA\x02\x00"),
        ("spla", b"SPLA\x02\x00\x00\x00" + bytes(7)),
        ("spla", b"SPLA\x01\x00\x00\x00" + bytes(8)),
    ])
    def test_known_bad_files(self, tmp_path, kind, raw):
        path = tmp_path / f"bad.{kind}"
        path.write_bytes(raw)
        with pytest.raises(FormatError):
            CODECS[kind][1](path)

    @settings(max_examples=150, deadline=None)
    @given(kind=st.sampled_from(sorted(CODECS)), h=st.integers(0, 4), w=st.integers(1, 4),
           data=st.data())
    def test_truncated_file_raises_format_error(self, codec_dir, kind, h, w, data):
        path = codec_dir / f"cut.{kind}"
        raw = _valid_file(path, kind, h, w)
        path.write_bytes(raw[:data.draw(st.integers(0, len(raw) - 1))])
        with pytest.raises(FormatError):
            CODECS[kind][1](path)

    @settings(max_examples=300, deadline=None)
    @given(kind=st.sampled_from(sorted(CODECS)), h=st.integers(0, 4), w=st.integers(1, 4),
           data=st.data())
    def test_mutated_file_reads_or_raises_format_error(self, codec_dir, kind, h, w, data):
        path = codec_dir / f"mut.{kind}"
        raw = bytearray(_valid_file(path, kind, h, w))
        for _ in range(data.draw(st.integers(1, 3))):
            at = data.draw(st.integers(0, len(raw) - 1))
            if data.draw(st.booleans()):
                raw[at] = data.draw(st.integers(0, 255))
            else:
                del raw[at]
        path.write_bytes(bytes(raw))
        try:
            out = CODECS[kind][1](path)
        except FormatError:
            return
        assert out.dtype == np.float64
