"""Checkpoint files: atomic saves, and corrupt or missing files rejected."""

import struct

import numpy as np
import pytest

from slotforge.checkpoint import CheckpointError, load_checkpoint, save_checkpoint


def arrays():
    return {"w": np.arange(6.0).reshape(2, 3), "b": np.array([0.5, -1.5]),
            "s": np.array([2.0])}


def test_round_trip(tmp_path):
    path = tmp_path / "a.ckpt"
    save_checkpoint(path, arrays())
    loaded = load_checkpoint(path)
    assert list(loaded) == ["w", "b", "s"]
    for name, arr in arrays().items():
        assert loaded[name].tobytes() == arr.tobytes()
        assert loaded[name].shape == arr.shape
    assert [p.name for p in tmp_path.iterdir()] == ["a.ckpt"]


def test_rank_zero_keeps_its_rank_and_other_records_their_bytes(tmp_path):
    path = tmp_path / "a.ckpt"
    strided = np.arange(6.0).reshape(2, 3).T
    save_checkpoint(path, {"z": np.array(2.0), "t": strided})
    loaded = load_checkpoint(path)
    assert loaded["z"].shape == () and loaded["z"] == 2.0
    assert loaded["t"].shape == (3, 2) and np.array_equal(loaded["t"], strided)
    expected = (b"SLFG" + struct.pack("<I", 1)
                + struct.pack("<I", 1) + b"z" + struct.pack("<I", 0)
                + struct.pack("<d", 2.0)
                + struct.pack("<I", 1) + b"t" + struct.pack("<3I", 2, 3, 2)
                + struct.pack("<6d", 0.0, 3.0, 1.0, 4.0, 2.0, 5.0))
    assert path.read_bytes() == expected


def test_failed_save_keeps_the_previous_file(tmp_path):
    path = tmp_path / "a.ckpt"
    save_checkpoint(path, arrays())
    before = path.read_bytes()
    bad = {"z": ["not", "a", "number"]} | arrays()
    with pytest.raises(ValueError):
        save_checkpoint(path, bad)
    assert path.read_bytes() == before
    assert [p.name for p in tmp_path.iterdir()] == ["a.ckpt"]


def test_truncated_file_is_rejected(tmp_path):
    path = tmp_path / "a.ckpt"
    save_checkpoint(path, arrays())
    blob = path.read_bytes()
    for cut in (6, 10, 20, len(blob) - 3):
        path.write_bytes(blob[:cut])
        with pytest.raises(CheckpointError, match="truncated"):
            load_checkpoint(path)


def test_bad_magic_is_rejected(tmp_path):
    path = tmp_path / "a.ckpt"
    save_checkpoint(path, arrays())
    path.write_bytes(b"XXXX" + path.read_bytes()[4:])
    with pytest.raises(CheckpointError, match="bad magic"):
        load_checkpoint(path)


def test_missing_file_is_rejected(tmp_path):
    with pytest.raises(CheckpointError, match="cannot read checkpoint"):
        load_checkpoint(tmp_path / "missing.ckpt")
