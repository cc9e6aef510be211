"""Tests for the synthetic scene generator.

Ground-truth checks recompute disc membership and bounding boxes with
integer loop arithmetic in the test, never by calling back into the
generator's own helpers.  The class-separability probe is the sanity
precondition for every training-based acceptance check: if a fixed
linear readout of the filterbank features cannot identify the sounding
class, no trained model result downstream means anything.
"""

import hashlib
import itertools
import json
import os
import select
import signal
import subprocess
import sys
import threading
import time
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from soundloc import audiofeat, synth
from soundloc.autodiff import ContractViolation
from soundloc.synth import (
    PALETTE,
    GeneratorConfig,
    SceneSpec,
    SceneSpecError,
    SceneStream,
    dump_dataset,
    generate_scene,
    make_batch,
)

from _oracles import decode_export


def _disc_loops(size, cx, cy, r):
    out = np.zeros((size, size), dtype=bool)
    for row in range(size):
        for col in range(size):
            out[row, col] = (col - cx) ** 2 + (row - cy) ** 2 <= r * r
    return out


class TestGeneratorConfig:
    def test_class_splits(self):
        cfg = GeneratorConfig(train_class_count=5)
        assert cfg.train_class_set == (0, 1, 2, 3, 4)
        assert cfg.test_class_set == (5, 6, 7)

    def test_default_split_is_everything(self):
        cfg = GeneratorConfig()
        assert cfg.train_class_set == tuple(range(8))
        assert cfg.test_class_set == ()

    @pytest.mark.parametrize("kwargs", [
        dict(num_classes=0),
        dict(num_classes=9),
        dict(train_class_count=0),
        dict(train_class_count=9),
        dict(mismatch_fraction=0.7, silent_fraction=0.7),
        dict(single_radius=(11, 7)),     # lo > hi
        dict(single_radius=(20, 25)),    # a disc wider than the image
        dict(image_size=16),             # the default single radius no longer fits
        dict(image_size=2 ** 20),        # over MAX_IMAGE_SIZE
        dict(single_radius=(1, 5)),      # below the minimum radius of 2
        dict(multi_radius=(4, 16)),
    ])
    def test_invalid_rejected(self, kwargs):
        with pytest.raises(ContractViolation):
            GeneratorConfig(**kwargs)


class TestGenerateScene:
    def test_deterministic(self):
        spec = SceneSpec(seed=123, objects=[(2, (16, 16), 7)],
                         audible_class_ids=(2,))
        cfg = GeneratorConfig()
        a = generate_scene(spec, cfg)
        b = generate_scene(spec, cfg)
        assert np.array_equal(a.image, b.image)
        assert np.array_equal(a.audio, b.audio)
        assert np.array_equal(a.gt_mask, b.gt_mask)
        assert np.array_equal(a.class_map, b.class_map)

    def test_single_source_ground_truth_is_disc(self):
        spec = SceneSpec(seed=5, objects=[(3, (12, 18), 6)],
                         audible_class_ids=(3,))
        s = generate_scene(spec, GeneratorConfig())
        assert np.array_equal(s.gt_mask, _disc_loops(32, 12, 18, 6))
        assert s.flags.matched and s.flags.visible and s.flags.audible

    def test_box_mask_is_bounding_square(self):
        spec = SceneSpec(seed=6, objects=[(1, (20, 9), 5)],
                         audible_class_ids=(1,))
        s = generate_scene(spec, GeneratorConfig())
        expected = np.zeros((32, 32), dtype=bool)
        expected[9 - 5:9 + 6, 20 - 5:20 + 6] = True   # rows = y, cols = x
        assert np.array_equal(s.gt_box_mask, expected)
        assert s.gt_box_mask.sum() >= s.gt_mask.sum()

    def test_class_map_labels_disc_pixels(self):
        spec = SceneSpec(seed=7, objects=[(4, (16, 16), 7)],
                         audible_class_ids=(4,))
        s = generate_scene(spec, GeneratorConfig())
        disc = _disc_loops(32, 16, 16, 7)
        assert np.all(s.class_map[disc] == 4)
        assert np.all(s.class_map[~disc] == -1)

    def test_silent_scene(self):
        spec = SceneSpec(seed=8, objects=[(0, (16, 16), 7)], silent=True)
        s = generate_scene(spec, GeneratorConfig())
        assert np.all(s.audio == 0.0)
        assert not s.flags.audible
        assert not s.flags.matched
        assert s.flags.visible
        assert not s.gt_mask.any()

    def test_mismatched_audio_has_empty_ground_truth(self):
        spec = SceneSpec(seed=9, objects=[(0, (16, 16), 7)],
                         audible_class_ids=(5,))
        s = generate_scene(spec, GeneratorConfig())
        assert s.flags.audible and not s.flags.visible and not s.flags.matched
        assert not s.gt_mask.any()
        assert np.any(s.audio != 0.0)

    def test_offscreen_source(self):
        spec = SceneSpec(seed=10, audible_class_ids=(2,))
        s = generate_scene(spec, GeneratorConfig())
        assert s.flags.audible and not s.flags.visible
        assert not s.gt_mask.any()

    def test_image_range(self):
        spec = SceneSpec(seed=11, objects=[(6, (10, 10), 6), (1, (24, 24), 5)],
                         audible_class_ids=(6, 1))
        s = generate_scene(spec, GeneratorConfig())
        assert np.all(s.image >= 0.0) and np.all(s.image <= 1.0)

    def test_audio_energy_lands_on_class_bands(self):
        # Class k rings filterbank bands 2k and 2k+1; with 30 dB SNR those
        # two bands must dominate every frame's energy vector.
        spec = SceneSpec(seed=12, objects=[(5, (16, 16), 8)],
                         audible_class_ids=(5,))
        s = generate_scene(spec, GeneratorConfig())
        energies = audiofeat.frame_energies(s.audio)
        top2 = np.argsort(energies.mean(axis=0))[-2:]
        assert set(top2.tolist()) == {10, 11}

    @pytest.mark.parametrize("spec,msg", [
        (SceneSpec(seed=0), "no objects"),
        (SceneSpec(seed=0, objects=[(9, (16, 16), 5)], audible_class_ids=(9,)),
         "outside"),
        (SceneSpec(seed=0, objects=[(0, (16, 16), 1)], audible_class_ids=(0,)),
         "radius"),
        (SceneSpec(seed=0, objects=[(0, (2, 16), 7)], audible_class_ids=(0,)),
         "leaves the image"),
        (SceneSpec(seed=0, objects=[(0, (16, 16), 7), (1, (17, 16), 7)],
                   audible_class_ids=(0,)), "overlap"),
        (SceneSpec(seed=0, objects=[(0, (16, 16), 7)], silent=True,
                   audible_class_ids=(0,)), "silent"),
    ])
    def test_invalid_specs_rejected(self, spec, msg):
        with pytest.raises(SceneSpecError, match=msg):
            generate_scene(spec, GeneratorConfig())

    def test_classes_checked_against_generator_class_count(self):
        """A 4-class generator refuses class 6, although class 6 has a
        palette entry and an audio signature."""
        cfg = GeneratorConfig(num_classes=4, train_class_count=4)
        for spec in (SceneSpec(seed=0, objects=[(6, (16, 16), 5)], audible_class_ids=(6,)),
                     SceneSpec(seed=0, objects=[(1, (16, 16), 5)], audible_class_ids=(6,))):
            with pytest.raises(SceneSpecError, match=r"class 6 outside \[0, 4\)"):
                generate_scene(spec, cfg)
        generate_scene(SceneSpec(seed=0, objects=[(3, (16, 16), 5)],
                                 audible_class_ids=(3,)), cfg)

    def test_spec_error_is_contract_violation(self):
        assert issubclass(SceneSpecError, ContractViolation)


class TestMakeBatch:
    def test_batch_size_and_mode_validated(self):
        cfg = GeneratorConfig()
        with pytest.raises(ContractViolation):
            make_batch(cfg, 0, "train", base_seed=0)
        with pytest.raises(ContractViolation):
            make_batch(cfg, 4, "s5-analog", base_seed=0)

    def test_single_source_modes(self):
        cfg = GeneratorConfig()
        for mode in ("train", "s4"):
            batch = make_batch(cfg, 8, mode, base_seed=3)
            assert len(batch) == 8
            for s in batch:
                assert len(s.class_ids) == 1
                assert s.audible_ids == s.class_ids
                assert s.flags.positive
                assert s.gt_mask.any()

    def test_single_source_area_fraction(self):
        # Keeps the area target meaningful: discs neither vanish nor
        # swallow the frame.
        for s in make_batch(GeneratorConfig(), 32, "s4", base_seed=4):
            frac = s.gt_mask.sum() / s.gt_mask.size
            assert 0.01 <= frac <= 0.5

    def test_multi_source_mode(self):
        for s in make_batch(GeneratorConfig(), 12, "ms3", base_seed=5):
            assert 2 <= len(s.class_ids) <= 3
            assert len(set(s.class_ids)) == len(s.class_ids)
            assert s.audible_ids == s.class_ids
            assert s.flags.positive

    def test_extended_mode_counts(self):
        cfg = GeneratorConfig(mismatch_fraction=0.25, silent_fraction=0.25)
        batch = make_batch(cfg, 16, "extended", base_seed=6)
        silent = [s for s in batch if not s.flags.audible]
        mismatched = [s for s in batch if s.flags.audible and not s.flags.matched]
        matched = [s for s in batch if s.flags.positive]
        assert len(silent) == 4
        assert len(mismatched) == 4
        assert len(matched) == 8

    def test_extended_half_mismatch(self):
        cfg = GeneratorConfig(mismatch_fraction=0.5, silent_fraction=0.0)
        batch = make_batch(cfg, 16, "extended", base_seed=7)
        assert sum(1 for s in batch if not s.flags.matched) == 8

    def test_extended_kinds_must_fit_the_batch(self):
        """0.5 of 3 scenes rounds to 2 twice: 4 kinds do not fit 3 scenes.
        At 4 scenes they do, and every scene is mismatched or silent."""
        cfg = GeneratorConfig(mismatch_fraction=0.5, silent_fraction=0.5)
        with pytest.raises(ContractViolation, match=(
                "2 mismatched and 2 silent scenes, more than the batch of 3")):
            make_batch(cfg, 3, "extended", base_seed=0)
        assert not any(s.flags.positive for s in make_batch(cfg, 4, "extended", 0))

    def test_heard_unheard_split(self):
        cfg = GeneratorConfig(train_class_count=4)
        heard = make_batch(cfg, 16, "heard", base_seed=8)
        unheard = make_batch(cfg, 16, "unheard", base_seed=8)
        for s in heard:
            assert set(s.audible_ids) <= {0, 1, 2, 3}
        for s in unheard:
            assert set(s.audible_ids) <= {4, 5, 6, 7}

    def test_unheard_needs_held_out_classes(self):
        with pytest.raises(ContractViolation, match="held-out"):
            make_batch(GeneratorConfig(), 4, "unheard", base_seed=9)

    def test_batches_deterministic(self):
        cfg = GeneratorConfig()
        a = make_batch(cfg, 6, "extended", base_seed=10)
        b = make_batch(cfg, 6, "extended", base_seed=10)
        for x, y in zip(a, b):
            assert np.array_equal(x.image, y.image)
            assert np.array_equal(x.audio, y.audio)
            assert x.flags == y.flags

    @pytest.mark.parametrize("mode", synth.MODES)
    def test_part_of_a_batch_equals_its_slice(self, mode):
        cfg = GeneratorConfig(train_class_count=5)
        whole = make_batch(cfg, 13, mode, base_seed=15)
        for start, count in ((0, 13), (0, 1), (3, 4), (12, 1)):
            _assert_same_scenes(make_batch(cfg, count, mode, 15, start, 13),
                                whole[start:start + count])


def _assert_same_scenes(got, want):
    got, want = list(got), list(want)
    assert len(got) == len(want)
    for a, b in zip(got, want):
        for name in SCENE_ARRAYS:
            assert np.array_equal(getattr(a, name), getattr(b, name))
        assert (a.flags, a.class_ids, a.audible_ids, a.seed) == \
            (b.flags, b.class_ids, b.audible_ids, b.seed)


class TestSceneStream:
    CFG = GeneratorConfig(train_class_count=5)

    @pytest.mark.parametrize("mode", synth.MODES)
    def test_scenes_equal_make_batch(self, mode):
        stream = SceneStream(self.CFG, 24, mode, base_seed=16)
        assert len(stream) == 24
        want = make_batch(self.CFG, 24, mode, base_seed=16)
        _assert_same_scenes(stream, want)
        if mode == "extended":
            kinds = {(s.flags.audible, s.flags.matched) for s in want}
            assert kinds == {(True, True), (True, False), (False, False)}

    def test_interleaved_streams_equal_make_batch(self):
        """Each scene comes from its own seed: streams read in turns, or read
        twice, give the scenes of separate ``make_batch`` calls."""
        streams = [SceneStream(self.CFG, 9, mode, base_seed=17) for mode in synth.MODES]
        turns = [[] for _ in streams]
        for scenes in zip(*streams):
            for got, s in zip(turns, scenes):
                got.append(s)
        for got, stream, mode in zip(turns, streams, synth.MODES):
            want = make_batch(self.CFG, 9, mode, base_seed=17)
            _assert_same_scenes(got, want)
            _assert_same_scenes(stream, want)

    def test_iteration_holds_one_chunk(self):
        """Read scene by scene, a stream of four chunks holds one chunk of
        scenes at a time, whichever process made it: its traced peak lies
        between one chunk and one and a half (1.09-1.10 chunks measured)."""
        size = sum(getattr(s, name).nbytes
                   for s in make_batch(self.CFG, synth.PREDICT_CHUNK, "extended", 19)
                   for name in SCENE_ARRAYS)
        list(SceneStream(self.CFG, 64, "s4", 18))      # forks the worker, fills the caches
        tracemalloc.start()
        try:
            for _ in SceneStream(self.CFG, 4 * synth.PREDICT_CHUNK, "extended", 19):
                pass
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert size < peak < 1.5 * size, f"{peak / size:.2f} chunks"

    @pytest.mark.parametrize("cfg,batch_size,mode,msg", [
        (GeneratorConfig(), 0, "train", "batch_size"),
        (GeneratorConfig(), 4, "s5-analog", "mode must be one of"),
        (GeneratorConfig(), 4, "unheard", "held-out"),
        (GeneratorConfig(num_classes=1, train_class_count=1), 4, "ms3", "ms3 mode"),
        (GeneratorConfig(num_classes=1, train_class_count=1), 4, "extended",
         "mismatched-audio"),
        (GeneratorConfig(mismatch_fraction=0.5, silent_fraction=0.5), 3, "extended",
         "more than the batch of 3"),
    ])
    def test_contract_checked_at_construction(self, cfg, batch_size, mode, msg, monkeypatch):
        def fail(*args):
            raise AssertionError("a scene was made")

        monkeypatch.setattr(synth, "generate_scene", fail)
        with pytest.raises(ContractViolation, match=msg):
            SceneStream(cfg, batch_size, mode, base_seed=0)


class TestLinearProbe:
    def test_band_pair_readout_separates_classes(self):
        """Fixed linear probe (sum the two bands a class owns, take the
        argmax) must identify the sounding class on every one of 1,000
        single-source clips at 20 dB SNR.
        """
        cfg = GeneratorConfig(snr_db=20.0)
        batch = make_batch(cfg, 1000, "train", base_seed=11)
        correct = 0
        for s in batch:
            mean_energy = audiofeat.frame_energies(s.audio).mean(axis=0)
            scores = [mean_energy[2 * k] + mean_energy[2 * k + 1]
                      for k in range(cfg.num_classes)]
            correct += int(np.argmax(scores)) == s.audible_ids[0]
        assert correct == 1000


class TestDumpDataset:
    def test_round_trip_and_manifest(self, tmp_path):
        batch = make_batch(GeneratorConfig(), 4, "extended", base_seed=12)
        out = dump_dataset(batch, tmp_path / "ds")
        index = (out / "index.json").read_text()
        entries = json.loads(index)
        assert len(entries) == 4
        for entry, sample in zip(entries, batch):
            assert entry["flags"] == sample.flags.as_dict()
            gt = decode_export(out / entry["files"]["gt"])
            assert np.array_equal(gt == 1.0, sample.gt_mask)
            audio = decode_export(out / entry["files"]["audio"])
            assert np.array_equal(audio, sample.audio.astype(np.float32))
            image = decode_export(out / entry["files"]["image"])
            assert np.abs(image - sample.image).max() <= 0.5 / 255 + 1e-12

    def test_ms3_manifest_holds_plain_class_ids(self, tmp_path):
        batch = make_batch(GeneratorConfig(), 3, "ms3", base_seed=14)
        out = dump_dataset(batch, tmp_path / "ds")
        entries = json.loads((out / "index.json").read_text())
        assert [e["class_ids"] for e in entries] == [list(s.class_ids) for s in batch]
        assert all(len(e["class_ids"]) >= 2 for e in entries)

    def test_dump_is_byte_deterministic(self, tmp_path):
        batch = make_batch(GeneratorConfig(), 3, "s4", base_seed=13)
        a = dump_dataset(batch, tmp_path / "a")
        b = dump_dataset(batch, tmp_path / "b")
        for fa in sorted(a.iterdir()):
            fb = b / fa.name
            assert fa.read_bytes() == fb.read_bytes()


# -- byte identity with the uncached expressions -------------------------------
#
# The generator caches coordinate grids, stripe masks and tone ramps and
# synthesizes tones in place.  These are the expressions it replaced, kept
# verbatim: every scene must keep their exact bytes.

def _disc_mask_uncached(size, center, radius):
    yy, xx = np.mgrid[0:size, 0:size]
    return (xx - center[0]) ** 2 + (yy - center[1]) ** 2 <= radius ** 2


def _paint_disc_uncached(image, mask, class_id):
    bright, dark = PALETTE[class_id]
    size = image.shape[0]
    yy, xx = np.mgrid[0:size, 0:size]
    theta = np.pi * class_id / len(PALETTE)
    period = 3 + class_id % 3
    phase = np.floor((np.cos(theta) * xx + np.sin(theta) * yy) / period).astype(int)
    stripe = phase % 2 == 0
    for ch in range(3):
        plane = image[:, :, ch]
        plane[mask & stripe] = bright[ch]
        plane[mask & ~stripe] = dark[ch]


def _synthesize_audio_uncached(audible, silent, snr_db, rng):
    if silent or not audible:
        return np.zeros(audiofeat.CLIP_LEN)
    n = np.arange(audiofeat.CLIP_LEN)
    signal = np.zeros(audiofeat.CLIP_LEN)
    power = 0.0
    for cid in audible:
        for bin_idx in audiofeat.class_tone_bins(cid):
            amp = rng.uniform(0.8, 1.2)
            phase = rng.uniform(0.0, 2 * np.pi)
            signal += amp * np.sin(2 * np.pi * bin_idx * n / audiofeat.FRAME_LEN + phase)
            power += amp ** 2 / 2.0
    noise_var = power / 10.0 ** (snr_db / 10.0)
    return signal + rng.normal(0.0, np.sqrt(noise_var), size=n.shape)


def _same_bytes(a, b):
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


SCENE_ARRAYS = ("image", "audio", "gt_mask", "gt_box_mask", "class_map")


class TestByteIdentity:
    @pytest.mark.parametrize("audible,silent", [
        ((), False), ((), True), ((3,), False), ((0, 7), False), ((2, 5, 6), False),
    ])
    def test_synthesize_audio(self, audible, silent):
        for seed in range(12):
            for snr_db in (30.0, 20.0, 3.5):
                new_rng = np.random.default_rng(seed)
                old_rng = np.random.default_rng(seed)
                got = synth._synthesize_audio(audible, silent, snr_db, new_rng)
                want = _synthesize_audio_uncached(audible, silent, snr_db, old_rng)
                assert _same_bytes(got, want)
                # both consumed the same draws
                assert new_rng.random() == old_rng.random()

    @pytest.mark.parametrize("size", [32, 48])
    def test_disc_mask_and_paint(self, size):
        rng = np.random.default_rng(size)
        for class_id in range(len(PALETTE)):
            for _ in range(6):
                r = int(rng.integers(2, size // 2))
                center = (int(rng.integers(r, size - r)), int(rng.integers(r, size - r)))
                mask = synth._disc_mask(size, center, r)
                assert _same_bytes(mask, _disc_mask_uncached(size, center, r))
                base = 0.08 + 0.10 * rng.random((size, size, 3))
                got, want = base.copy(), base.copy()
                synth._paint_disc(got, mask, class_id)
                _paint_disc_uncached(want, mask, class_id)
                assert _same_bytes(got, want)

    @pytest.mark.parametrize("mode", synth.MODES)
    @pytest.mark.parametrize("image_size", [32, 48])
    def test_make_batch(self, mode, image_size, monkeypatch):
        cfg = GeneratorConfig(image_size=image_size, train_class_count=5)
        got = make_batch(cfg, 24, mode, base_seed=image_size + 1)
        with monkeypatch.context() as m:
            m.setattr(synth, "_WORKERS", 0)     # every scene from the expressions here
            m.setattr(synth, "_disc_mask", _disc_mask_uncached)
            m.setattr(synth, "_paint_disc", _paint_disc_uncached)
            m.setattr(synth, "_synthesize_audio", _synthesize_audio_uncached)
            want = make_batch(cfg, 24, mode, base_seed=image_size + 1)
        for a, b in zip(got, want, strict=True):
            for name in SCENE_ARRAYS:
                assert np.array_equal(getattr(a, name), getattr(b, name))
                assert _same_bytes(getattr(a, name), getattr(b, name))
            assert (a.flags, a.class_ids, a.audible_ids, a.seed) == \
                (b.flags, b.class_ids, b.audible_ids, b.seed)


class TestCachesDoNotLeak:
    CFG = GeneratorConfig(train_class_count=5)

    def _cached_arrays(self, size):
        arrays = list(synth._grid(size))
        for class_id in range(len(PALETTE)):
            arrays += synth._stripes(size, class_id)
            arrays += [synth._tone_ramp(b) for b in audiofeat.class_tone_bins(class_id)]
        return arrays

    def _batches(self):
        return [make_batch(self.CFG, 12, mode, base_seed=31) for mode in synth.MODES]

    def test_cached_arrays_are_read_only(self):
        self._batches()
        for arr in self._cached_arrays(self.CFG.image_size):
            assert not arr.flags.writeable
            with pytest.raises(ValueError):
                arr.flat[0] = arr.flat[0]

    def test_scenes_share_no_memory_with_caches(self):
        batches = self._batches()
        cached = self._cached_arrays(self.CFG.image_size)
        for batch in batches:
            for s in batch:
                for name in SCENE_ARRAYS:
                    out = getattr(s, name)
                    assert out.flags.writeable
                    assert not any(np.shares_memory(out, c) for c in cached), name

    def test_editing_scenes_does_not_change_later_scenes(self):
        first = self._batches()
        want = [[{n: getattr(s, n).tobytes() for n in SCENE_ARRAYS} for s in b]
                for b in first]
        for batch in first:
            for s in batch:
                s.image[...] = 7.0
                s.audio[...] = -3.0
                s.gt_mask[...] = ~s.gt_mask
                s.gt_box_mask[...] = True
                s.class_map[...] = 99
        again = self._batches()
        for batch, wanted in zip(again, want, strict=True):
            for s, w in zip(batch, wanted, strict=True):
                assert {n: getattr(s, n).tobytes() for n in SCENE_ARRAYS} == w


# -- scenes made by worker processes -------------------------------------------

_SHARES = synth._WORKERS > 0        # a worker makes every other chunk of a stream
_LINUX_PROC = Path("/proc/self/stat").is_file()


def _streamed(*args):
    """A ``SceneStream``'s scenes, read to the end."""
    return list(SceneStream(*args))


def _inline_stream(monkeypatch, *args):
    """A ``SceneStream``'s scenes, every one made in this process."""
    with monkeypatch.context() as m:
        m.setattr(synth, "_WORKERS", 0)
        return _streamed(*args)


def _chunks_made_here(monkeypatch):
    """The chunks, by index, that this process makes of the streams it reads
    from now on (every call of ``make_batch``)."""
    made, make = [], synth.make_batch

    def spy(cfg, batch_size, mode, base_seed, start=0, total=None):
        made.append(start // synth.PREDICT_CHUNK)
        return make(cfg, batch_size, mode, base_seed, start, total)

    monkeypatch.setattr(synth, "make_batch", spy)
    return made


def _failing_at(monkeypatch, base_seed, mode, indices):
    """Make scenes ``indices`` of a batch raise a placement error naming them.
    A worker forked afterwards inherits the patch."""
    seeds = {synth._sample_seed(base_seed, mode, i): i for i in indices}
    build = synth._build_spec

    def build_spec(rng, cfg, mode, seed, kind, pool):
        if seed in seeds:
            raise SceneSpecError(f"could not place the objects of scene {seeds[seed]}")
        return build(rng, cfg, mode, seed, kind, pool)

    monkeypatch.setattr(synth, "_build_spec", build_spec)


def _error_of(call):
    with pytest.raises(BaseException) as info:
        call()
    return type(info.value), str(info.value)


def _scene_digest(scenes):
    h = hashlib.sha256()
    for s in scenes:
        for name in SCENE_ARRAYS:
            h.update(getattr(s, name).tobytes())
        h.update(repr((s.flags, s.class_ids, s.audible_ids, s.seed)).encode())
    return h.hexdigest()


def _python(code, *args, **popen):
    """A new Python process running ``code`` on this source tree."""
    src = str(Path(synth.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + ([os.environ["PYTHONPATH"]] if os.environ.get("PYTHONPATH") else [])))
    return subprocess.Popen([sys.executable, "-c", code, *args], env=env, text=True,
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE, **popen)


def _running(pid):
    """Whether ``pid`` is a live process; an exited one waiting to be reaped is not."""
    try:
        stat = Path(f"/proc/{pid}/stat").read_text()
    except FileNotFoundError:
        return False
    return stat.rsplit(")", 1)[1].split()[0] != "Z"


def _gone_within(pid, seconds):
    deadline = time.monotonic() + seconds
    while _running(pid):
        if time.monotonic() > deadline:
            return False
        time.sleep(0.05)
    return True


@pytest.fixture
def fresh_worker():
    """A worker forked after the test's patches, and ended after the test."""
    synth._close_worker()
    yield
    synth._close_worker()


class TestWorkers:
    """Streams read with a worker, which makes their odd chunks.  Inline with
    one CPU (the CI step pinned to one CPU runs these too)."""
    CFG = GeneratorConfig(train_class_count=5)

    @pytest.mark.parametrize("mode", synth.MODES)
    def test_stream_equals_inline(self, mode, monkeypatch):
        """Five chunks (the last of 2 scenes), three, two full ones, a full one
        and one scene, and one-chunk streams: the scenes are inline's, this
        process makes only the even chunks of a stream, and one worker serves
        them all."""
        made = _chunks_made_here(monkeypatch)
        workers = set()
        for count in (130, 90, 64, 33, 32, 5, 1):
            made.clear()
            got = _streamed(self.CFG, count, mode, 21)
            chunks = SceneStream(self.CFG, count, mode, 21).chunks
            assert made == list(range(0, chunks, 2 if _SHARES else 1))
            workers.add(synth._worker and synth._worker.pid)
            _assert_same_scenes(got, _inline_stream(monkeypatch, self.CFG, count, mode, 21))
        assert len(workers) == 1 and (None in workers) != _SHARES

    def test_scenes_outside_the_batch_are_refused(self):
        for start, count in ((-1, 2), (12, 2), (14, 1)):
            with pytest.raises(ContractViolation, match="outside a batch of 13"):
                make_batch(self.CFG, count, "s4", 0, start, 13)
        for start, count in ((5, -3), (0, 0)):
            with pytest.raises(ContractViolation, match=f"batch_size must be >= 1, got {count}"):
                make_batch(self.CFG, count, "s4", 0, start, 13)
        with pytest.raises(ContractViolation, match="batch_size must be >= 1"):
            SceneStream(self.CFG, 64, "s4", 0).chunk(100)

    @pytest.mark.parametrize("failing,lowest", [
        ((40,), 40),        # only the worker's chunk (scenes 32 to 63) fails
        ((70,), 70),        # only this process's chunk 2 fails
        ((5, 40), 5),       # this process's chunk 0 and the worker's chunk 1
        ((40, 70), 40),     # the worker's chunk 1 and this process's chunk 2
    ])
    def test_error_is_inlines(self, monkeypatch, fresh_worker, failing, lowest):
        """Reading the stream raises the error inline synthesis raises, and the
        next streams' scenes are inline's: no reply from the failed one reaches them."""
        _failing_at(monkeypatch, 3, "s4", failing)
        want = _error_of(lambda: _inline_stream(monkeypatch, self.CFG, 80, "s4", 3))
        assert want == (SceneSpecError, f"could not place the objects of scene {lowest}")
        assert _error_of(lambda: _streamed(self.CFG, 80, "s4", 3)) == want
        for mode, seed in (("ms3", 4), ("heard", 5)):
            _assert_same_scenes(_streamed(self.CFG, 80, mode, seed),
                                _inline_stream(monkeypatch, self.CFG, 80, mode, seed))

    def test_interrupt_leaves_no_stale_reply(self, monkeypatch):
        """A KeyboardInterrupt in this process's chunk 0 leaves the worker's
        chunk 1 unread; the worker is ended and the next streams get their own
        scenes."""
        _streamed(self.CFG, 64, "s4", 5)
        build = synth._build_spec

        def interrupted(*args):
            raise KeyboardInterrupt

        monkeypatch.setattr(synth, "_build_spec", interrupted)
        with pytest.raises(KeyboardInterrupt):
            _streamed(self.CFG, 80, "s4", 5)
        monkeypatch.setattr(synth, "_build_spec", build)
        assert synth._worker is None
        for mode, seed in (("heard", 6), ("ms3", 7)):
            _assert_same_scenes(_streamed(self.CFG, 80, mode, seed),
                                _inline_stream(monkeypatch, self.CFG, 80, mode, seed))

    @pytest.mark.parametrize("taken", [20, 40])     # the worker's chunk 1 in flight; read
    def test_abandoned_iteration_ends_the_worker_only_with_a_reply_unread(
            self, monkeypatch, fresh_worker, taken):
        """A stream of three chunks read part way and dropped.  At 20 scenes
        the worker's chunk 1 is unread, so the worker is ended and no reply of
        it reaches a later stream; at 40 it was read, so the worker is kept.
        Either way the worker is free: the next stream's odd chunks are the
        worker's, and its scenes are inline's."""
        want = _inline_stream(monkeypatch, self.CFG, 80, "s4", 12)[:taken]
        stream = iter(SceneStream(self.CFG, 80, "s4", 12))
        _assert_same_scenes(itertools.islice(stream, taken), want)
        pid = synth._worker and synth._worker.pid
        assert (pid is not None) == _SHARES
        del stream
        assert (synth._worker is None) == (taken == 20 or not _SHARES)
        assert not synth._lock.locked()
        made = _chunks_made_here(monkeypatch)
        again = _streamed(self.CFG, 80, "ms3", 13)
        assert made == ([0, 2] if _SHARES else [0, 1, 2])
        if _SHARES:
            assert (synth._worker.pid == pid) == (taken == 40)
            assert _running(synth._worker.pid)
        _assert_same_scenes(again, _inline_stream(monkeypatch, self.CFG, 80, "ms3", 13))

    @pytest.mark.parametrize("scenes", [64, 80])    # the last chunk the worker's; this process's
    def test_taking_exactly_every_item_keeps_the_worker(self, monkeypatch, fresh_worker,
                                                        scenes):
        """A caller that takes exactly ``count`` items of ``alternate`` with
        ``next()`` and drops it, closing it at its last yield, keeps the worker."""
        stream = SceneStream(self.CFG, scenes, "s4", 14)
        want = _inline_stream(monkeypatch, self.CFG, scenes, "s4", 14)
        pids = []
        for _ in range(2):
            parts = synth.alternate(stream.chunks, stream.chunk)
            got = [s for _ in range(stream.chunks) for s in next(parts)]
            del parts
            pids.append(synth._worker and synth._worker.pid)
            _assert_same_scenes(got, want)
        assert pids[0] == pids[1] and (pids[0] is not None) == _SHARES
        assert not synth._lock.locked()

    @pytest.mark.skipif(not _SHARES, reason="needs a worker")
    def test_worker_ignores_sigint(self, monkeypatch):
        """A Ctrl-C reaches the whole process group; a caller that goes on
        keeps its worker."""
        _streamed(self.CFG, 64, "s4", 5)
        pid = synth._worker.pid
        os.kill(pid, signal.SIGINT)
        time.sleep(0.2)
        _assert_same_scenes(_streamed(self.CFG, 80, "s4", 9),
                            _inline_stream(monkeypatch, self.CFG, 80, "s4", 9))
        assert synth._worker.pid == pid

    @pytest.mark.skipif(not _SHARES, reason="needs a worker")
    @pytest.mark.parametrize("when", ["between calls", "mid-call"])
    def test_killed_worker(self, monkeypatch, fresh_worker, when):
        """A worker killed between streams (the request cannot be sent) or
        while it makes its chunk (the reply never comes): the stream makes
        that chunk here, without hanging, and the next forks a new worker."""
        build = synth._build_spec
        if when == "between calls":
            _streamed(self.CFG, 64, "s4", 5)
            pid = synth._worker.pid
            os.kill(pid, signal.SIGKILL)
            assert _gone_within(pid, 5)
        else:
            parent = os.getpid()

            def build_spec(*args):
                if os.getpid() != parent:
                    os.kill(os.getpid(), signal.SIGKILL)
                return build(*args)

            monkeypatch.setattr(synth, "_build_spec", build_spec)
        got = []
        call = threading.Thread(target=lambda: got.append(_streamed(self.CFG, 80, "ms3", 7)))
        call.start()
        call.join(timeout=30)
        assert not call.is_alive() and len(got) == 1
        monkeypatch.setattr(synth, "_build_spec", build)
        assert synth._worker.pid is None
        _assert_same_scenes(got[0], _inline_stream(monkeypatch, self.CFG, 80, "ms3", 7))
        _assert_same_scenes(_streamed(self.CFG, 80, "ms3", 8),
                            _inline_stream(monkeypatch, self.CFG, 80, "ms3", 8))
        assert _running(synth._worker.pid)

    @pytest.mark.skipif(not _SHARES, reason="needs a worker")
    def test_failed_fork_makes_every_scene_here(self, monkeypatch, fresh_worker):
        """A fork that fails turns the worker off: this process makes every
        chunk, the scenes are inline's and it reports one scene process."""
        monkeypatch.setattr(synth, "_WORKERS", synth._WORKERS)

        def no_fork():
            raise BlockingIOError(11, "Resource temporarily unavailable")

        monkeypatch.setattr(os, "fork", no_fork)
        made = _chunks_made_here(monkeypatch)
        got = _streamed(self.CFG, 80, "ms3", 11)
        assert made == [0, 1, 2]
        _assert_same_scenes(got, _inline_stream(monkeypatch, self.CFG, 80, "ms3", 11))
        assert synth._worker is None and synth.scene_processes() == 1

    @pytest.mark.skipif(not _SHARES, reason="needs a worker")
    def test_forked_child_forks_its_own_worker(self, monkeypatch):
        """A process forked from one with a worker does not use that worker;
        both get their own scenes."""
        _streamed(self.CFG, 64, "s4", 5)
        pid = synth._worker.pid
        want = _scene_digest(_inline_stream(monkeypatch, self.CFG, 80, "ms3", 10))
        r, w = os.pipe()
        child = os.fork()
        if child == 0:
            try:
                ok = synth._worker is None and \
                    _scene_digest(_streamed(self.CFG, 80, "ms3", 10)) == want and \
                    synth._worker.pid not in (None, pid)
                synth._close_worker()
                os.write(w, b"1" if ok else b"0")
            finally:
                os._exit(0)
        os.close(w)
        with os.fdopen(r, "rb") as result:
            assert select.select([result], [], [], 60)[0] and result.read() == b"1"
        os.waitpid(child, 0)
        assert _scene_digest(_streamed(self.CFG, 80, "ms3", 10)) == want
        assert synth._worker.pid == pid

    @pytest.mark.skipif(not _SHARES, reason="needs two CPUs to compare with one")
    def test_scenes_do_not_depend_on_the_cpu_count(self):
        """Streams of three chunks, read here with the worker and in a process
        pinned to one CPU before it imports soundloc."""
        child = (
            "import os, sys\n"
            "os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})\n"
            "sys.path.insert(0, sys.argv[1])\n"
            "from soundloc import synth\n"
            "from test_synth import _scene_digest\n"
            "assert synth.scene_processes() == 1\n"
            "cfg = synth.GeneratorConfig(train_class_count=5)\n"
            "for mode in synth.MODES:\n"
            "    print(_scene_digest(synth.SceneStream(cfg, 70, mode, 22)))\n")
        proc = _python(child, str(Path(__file__).parent))
        out, err = proc.communicate(timeout=120)
        assert proc.returncode == 0, err
        assert synth.scene_processes() > 1
        assert out.split() == [_scene_digest(_streamed(self.CFG, 70, mode, 22))
                               for mode in synth.MODES]


@pytest.mark.skipif(not (_SHARES and _LINUX_PROC), reason="needs a worker and /proc")
class TestNoOrphanWorker:
    """A process's worker ends with it, however it ends."""
    CHILD = (
        "import sys, time\n"
        "from soundloc import synth\n"
        "cfg = synth.GeneratorConfig()\n"
        "list(synth.SceneStream(cfg, 64, 's4', 0))\n"
        "print(synth._worker.pid, flush=True)\n"
        "if sys.argv[1] == 'sleep':\n"
        "    time.sleep(120)\n"
        "elif sys.argv[1] == 'loop':\n"
        "    try:\n"
        "        while True:\n"
        "            list(synth.SceneStream(cfg, 96, 'ms3', 1))\n"
        "    except KeyboardInterrupt:\n"
        "        print('interrupted', flush=True)\n")

    def test_normal_exit(self):
        """The interpreter's exit ends and reaps the worker."""
        proc = _python(self.CHILD, "exit")
        out, err = proc.communicate(timeout=60)
        assert proc.returncode == 0, err
        assert not Path(f"/proc/{int(out.split()[0])}").exists()

    def test_killed(self):
        proc = _python(self.CHILD, "sleep")
        try:
            pid = int(proc.stdout.readline())
            assert _running(pid)
            proc.kill()
            proc.wait(timeout=30)
            assert _gone_within(pid, 5)
        finally:
            proc.kill()
            proc.communicate()

    def test_sigint_to_the_process_group(self):
        proc = _python(self.CHILD, "loop", start_new_session=True)
        try:
            pid = int(proc.stdout.readline())
            time.sleep(0.5)
            os.killpg(proc.pid, signal.SIGINT)
            out, err = proc.communicate(timeout=60)
        finally:
            proc.kill()
        assert proc.returncode == 0, err
        assert out.split() == ["interrupted"]
        assert "Traceback" not in err, err
        assert _gone_within(pid, 5)
