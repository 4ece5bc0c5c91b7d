"""Checkpoint files: atomic saves, and corrupt or missing files or values rejected."""

import struct

import numpy as np
import pytest

from slotforge.checkpoint import CheckpointError, load_checkpoint, save_checkpoint
from slotforge.nn import ParamGroup, param


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


@pytest.mark.parametrize("extents", [(2**31, 2**31, 4), (2**32 - 1, 2**32 - 1)])
def test_extents_whose_product_overflows_int64_are_a_truncated_record(tmp_path, extents):
    path = tmp_path / "a.ckpt"
    path.write_bytes(b"SLFG" + struct.pack("<I", 1) + struct.pack("<I", 1) + b"w"
                     + struct.pack("<I", len(extents)) + struct.pack(f"<{len(extents)}I", *extents)
                     + struct.pack("<2d", 1.0, 2.0))
    with pytest.raises(CheckpointError, match="truncated record"):
        load_checkpoint(path)


def test_a_name_that_runs_past_the_end_names_the_record_start(tmp_path):
    path = tmp_path / "a.ckpt"
    path.write_bytes(b"SLFG" + struct.pack("<I", 1) + struct.pack("<I", 2**31) + b"w")
    with pytest.raises(CheckpointError, match="^.*: truncated record at byte 8$"):
        load_checkpoint(path)


def test_a_name_that_is_not_utf8_is_reported_as_such(tmp_path):
    path = tmp_path / "a.ckpt"
    path.write_bytes(b"SLFG" + struct.pack("<I", 1) + struct.pack("<I", 2) + b"\xff\xfe"
                     + struct.pack("<2I", 1, 1) + struct.pack("<d", 1.0))
    with pytest.raises(CheckpointError, match="^.*: record name at byte 12 is not UTF-8$"):
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


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_loading_a_non_finite_parameter_names_it(bad):
    group = ParamGroup("m")
    group.add("w", param(np.random.default_rng(0), 2, 3))
    group.add("b", param(np.random.default_rng(1), 3))
    state = {name: a.copy() for name, a in group.state().items()}
    state["m.b"][1] = bad
    with pytest.raises(CheckpointError, match=r"parameter m\.b: .*non-finite"):
        group.load_state(state)
