"""Checkpoint container round-trips and corruption handling."""

import re
import struct

import numpy as np
import pytest

from soundloc.checkpoint import MAGIC, VERSION, CheckpointError, load_checkpoint, save_checkpoint
from soundloc.grounding import MaskDecoder


@pytest.fixture
def params():
    rng = np.random.default_rng(20)
    return {
        "block.w": rng.standard_normal((3, 4)).astype(np.float32),
        "block.b": rng.standard_normal(4).astype(np.float32),
        "head/weight with spaces": rng.standard_normal((2, 2, 2)).astype(np.float32),
        "scalarish": np.float32(3.25).reshape(()),
    }


def test_round_trip_is_bit_exact(tmp_path, params):
    path = tmp_path / "model.splt"
    save_checkpoint(path, params)
    loaded = load_checkpoint(path)
    assert list(loaded) == list(params)
    for k in params:
        assert loaded[k].shape == params[k].shape
        assert loaded[k].dtype == np.float32
        assert np.array_equal(
            loaded[k].view(np.uint32), np.asarray(params[k], dtype="<f4").view(np.uint32))


def test_save_load_save_produces_identical_bytes(tmp_path, params):
    p1, p2 = tmp_path / "a.splt", tmp_path / "b.splt"
    save_checkpoint(p1, params)
    save_checkpoint(p2, load_checkpoint(p1))
    assert p1.read_bytes() == p2.read_bytes()


def test_float64_input_is_stored_as_float32(tmp_path):
    path = tmp_path / "m.splt"
    save_checkpoint(path, {"w": np.array([1.0, 1.0 + 1e-12])})
    loaded = load_checkpoint(path)["w"]
    assert loaded.dtype == np.float32
    assert loaded[0] == loaded[1]  # the 1e-12 difference cannot survive


def test_header_layout(tmp_path):
    path = tmp_path / "m.splt"
    save_checkpoint(path, {"w": np.zeros(2, dtype=np.float32)})
    raw = path.read_bytes()
    assert raw[:4] == MAGIC
    assert struct.unpack_from("<I", raw, 4)[0] == VERSION
    assert struct.unpack_from("<I", raw, 8)[0] == 1  # name length
    assert raw[12:13] == b"w"


def test_bad_magic_rejected(tmp_path):
    path = tmp_path / "m.splt"
    path.write_bytes(b"NOPE" + b"\x00" * 16)
    with pytest.raises(CheckpointError, match="magic"):
        load_checkpoint(path)


def test_unknown_version_rejected(tmp_path):
    path = tmp_path / "m.splt"
    path.write_bytes(MAGIC + struct.pack("<I", 99))
    with pytest.raises(CheckpointError, match="version"):
        load_checkpoint(path)


def test_file_shorter_than_header_rejected(tmp_path):
    path = tmp_path / "m.splt"
    path.write_bytes(MAGIC + b"\x01")
    with pytest.raises(CheckpointError, match="8-byte header"):
        load_checkpoint(path)


def test_truncated_payload_rejected(tmp_path, params):
    path = tmp_path / "m.splt"
    save_checkpoint(path, params)
    clipped = tmp_path / "clipped.splt"
    clipped.write_bytes(path.read_bytes()[:-5])
    with pytest.raises(CheckpointError):
        load_checkpoint(clipped)


def test_empty_dict_round_trips(tmp_path):
    path = tmp_path / "m.splt"
    save_checkpoint(path, {})
    assert load_checkpoint(path) == {}


def test_insertion_order_is_preserved(tmp_path):
    path = tmp_path / "m.splt"
    save_checkpoint(path, {"z": np.zeros(1, np.float32), "a": np.ones(1, np.float32)})
    assert list(load_checkpoint(path)) == ["z", "a"]


@pytest.mark.parametrize("change,problem", [
    (lambda st: st.update(extra=np.zeros(1)), "unexpected: extra"),
    (lambda st: st.pop("head_b"), "missing: head_b"),
    (lambda st: st.update(head_w=np.zeros((4, 1))),
     "mis-shaped: head_w (4, 1) where the model has (8, 1)"),
], ids=["extra", "missing", "misshaped"])
def test_load_state_rejects_a_state_that_does_not_fit(change, problem):
    dec = MaskDecoder(8, 2, np.random.default_rng(0))
    state = {k: t.data.copy() for k, t in dec.parameters().items()}
    change(state)
    with pytest.raises(CheckpointError, match=re.escape(problem)):
        dec.load_state(state)
