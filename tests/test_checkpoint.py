"""Checkpoint files: atomic saves, and corrupt or missing files or values rejected."""

import io
import pickle
import struct
import time
import warnings
import zipfile

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


def test_rank_zero_and_transposed_arrays_round_trip(tmp_path):
    path = tmp_path / "a.ckpt"
    strided = np.arange(6.0).reshape(2, 3).T
    save_checkpoint(path, {"z": np.array(2.0), "t": strided})
    loaded = load_checkpoint(path)
    assert list(loaded) == ["z", "t"]
    assert loaded["z"].shape == () and loaded["z"] == 2.0
    assert loaded["t"].shape == (3, 2) and np.array_equal(loaded["t"], strided)
    assert all(arr.dtype == np.float64 for arr in loaded.values())


def test_an_empty_checkpoint_round_trips(tmp_path):
    save_checkpoint(tmp_path / "a.ckpt", {})
    assert load_checkpoint(tmp_path / "a.ckpt") == {}


def test_the_same_arrays_give_the_same_bytes_whatever_the_clock(tmp_path, monkeypatch):
    save_checkpoint(tmp_path / "a.ckpt", arrays())
    later = time.time() + 86400 * 400
    monkeypatch.setattr(time, "time", lambda: later)
    save_checkpoint(tmp_path / "b.ckpt", arrays())
    assert (tmp_path / "a.ckpt").read_bytes() == (tmp_path / "b.ckpt").read_bytes()


def test_failed_save_keeps_the_previous_file(tmp_path):
    path = tmp_path / "a.ckpt"
    save_checkpoint(path, arrays())
    before = path.read_bytes()
    bad = {"z": ["not", "a", "number"]} | arrays()
    with pytest.raises(ValueError):
        save_checkpoint(path, bad)
    assert path.read_bytes() == before
    assert [p.name for p in tmp_path.iterdir()] == ["a.ckpt"]


def test_a_save_that_fails_while_writing_keeps_the_previous_file(tmp_path, monkeypatch):
    path = tmp_path / "a.ckpt"
    save_checkpoint(path, arrays())
    before = path.read_bytes()
    write_array, written = np.lib.format.write_array, []

    def fail_on_the_second_record(fh, arr, **kwargs):
        if written:
            assert (tmp_path / "a.ckpt.tmp").exists()  # holding the first record
            raise OSError("disk full")
        written.append(arr)
        write_array(fh, arr, **kwargs)

    monkeypatch.setattr(np.lib.format, "write_array", fail_on_the_second_record)
    with pytest.raises(OSError, match="disk full"):
        save_checkpoint(path, {"w": np.ones(4), "b": np.zeros(2)})
    assert len(written) == 1
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


def test_a_version_1_file_is_named(tmp_path):
    path = tmp_path / "a.ckpt"
    path.write_bytes(b"SLFG" + struct.pack("<I", 1) + struct.pack("<I", 1) + b"w"
                     + struct.pack("<2I", 1, 1) + struct.pack("<d", 1.0))
    with pytest.raises(CheckpointError, match="^.*: version-1 checkpoint, which this release "
                                              "does not read; retrain$"):
        load_checkpoint(path)


def test_a_file_that_is_not_an_archive_is_rejected(tmp_path):
    path = tmp_path / "a.ckpt"
    save_checkpoint(path, arrays())
    path.write_bytes(b"XXXX" + path.read_bytes()[4:])
    with pytest.raises(CheckpointError, match=r"not a checkpoint: starts with b'XXXX'"):
        load_checkpoint(path)


UNPICKLED = []


def unpickle_loud():
    UNPICKLED.append("unpickled")


class Loud:
    """Records its own unpickling in `UNPICKLED`."""

    def __reduce__(self):
        return unpickle_loud, ()


def npy(arr, shape=None):
    """`arr` laid out as numpy's `.npy`; `shape`, if given, replaces its header's."""
    fh = io.BytesIO()
    if shape is None:
        np.lib.format.write_array(fh, arr, allow_pickle=True)
    else:
        header = np.lib.format.header_data_from_array_1_0(arr) | {"shape": shape}
        np.lib.format.write_array_header_1_0(fh, header)
        fh.write(arr.tobytes())
    return fh.getvalue()


def write_archive(path, members):
    """A zip of (name, `.npy` bytes) members, as numpy lays them out; names may repeat."""
    with warnings.catch_warnings(), zipfile.ZipFile(path, "w") as archive:
        warnings.simplefilter("ignore")  # zipfile warns of a repeated name
        for name, member in members:
            with archive.open(f"{name}.npy", "w") as fh:
                fh.write(member)


@pytest.mark.parametrize("members, message", [
    ([("w", npy(np.array([Loud()], dtype=object)))], r"record 'w' holds \d+ bytes of object, "),
    ([("w", npy(np.arange(3)))], r"record 'w' holds 24 bytes of int64, not float64 of shape \(3,\)$"),
    ([("w", npy(np.ones(2))), ("w", npy(np.zeros(2)))], "repeated or corrupt directory entry of record 'w'"),
    ([("w", npy(np.ones(3), shape=(2**40,)))], r"holds 24 bytes of float64, not float64 of shape \(1099511627776,\)"),
    ([("w", npy(np.ones(3), shape=(4,)))], r"holds 24 bytes of float64, not float64 of shape \(4,\)"),
    ([("w", npy(np.ones(3), shape=(2,)))], r"holds 24 bytes of float64, not float64 of shape \(2,\)"),
], ids=["object", "int64", "duplicate", "shape-past-memory", "shape-past-end", "shape-short-of-end"])
def test_a_crafted_archive_is_rejected_and_nothing_is_unpickled(members, message, tmp_path):
    path = tmp_path / "a.ckpt"
    write_archive(path, members)
    pickle.loads(pickle.dumps(Loud()))
    assert UNPICKLED.pop() == "unpickled"
    with pytest.raises(CheckpointError, match=message):
        load_checkpoint(path)
    assert UNPICKLED == []


def test_a_fortran_order_member_loads_its_values(tmp_path):
    path = tmp_path / "a.ckpt"
    values = np.arange(6.0).reshape(2, 3)
    write_archive(path, [("t", npy(np.asfortranarray(values)))])
    loaded = load_checkpoint(path)["t"]
    assert loaded.shape == (2, 3) and loaded.tobytes() == values.tobytes()


def test_a_shrunk_shape_in_a_large_record_fails_its_crc(tmp_path):
    path = tmp_path / "a.ckpt"
    save_checkpoint(path, {"w": np.arange(120000.0).reshape(400, 300)})
    blob = bytearray(path.read_bytes())
    blob[blob.index(b"(400, 300)") + 1] = ord("2")  # reads half the member, a valid (200, 300)
    path.write_bytes(bytes(blob))
    with pytest.raises(CheckpointError, match="Bad CRC-32 for file 'w.npy'"):
        load_checkpoint(path)


def test_a_directory_comment_that_hides_later_records_is_rejected(tmp_path):
    path = tmp_path / "a.ckpt"
    save_checkpoint(path, arrays())
    blob = bytearray(path.read_bytes())
    blob[blob.index(b"PK\x01\x02") + 33] = 1  # first entry's comment: 256 bytes, the rest
    path.write_bytes(bytes(blob))
    with pytest.raises(CheckpointError, match="repeated or corrupt directory entry of record 'w'"):
        load_checkpoint(path)


def test_seeded_damage_raises_or_loads_every_record_equal(tmp_path):
    """3,000 seeded byte flips, splices and cuts of a small checkpoint each
    raise `CheckpointError` or load every record equal in name, shape and
    bytes; nothing else escapes, and no changed value loads."""
    path = tmp_path / "a.ckpt"
    rng = np.random.default_rng(0)
    saved = {"w": rng.normal(size=(3, 4)), "b": rng.normal(size=5), "s": np.array(2.0),
             "opt.w.v": rng.random((3, 4)), "opt.step": np.array([7.0])}
    save_checkpoint(path, saved)
    original = path.read_bytes()
    counts = {"error": 0, "equal": 0}
    for i in range(3000):
        pos = int(rng.integers(len(original)))
        kind = ("flip", "cut", "splice")[i % 3]
        if kind == "flip":
            damaged = original[:pos] + bytes([original[pos] ^ int(rng.integers(1, 256))])
            damaged += original[pos + 1:]
        elif kind == "cut":
            damaged = original[:pos]
        else:
            end = min(len(original), pos + int(rng.integers(16)))
            damaged = original[:pos] + rng.bytes(int(rng.integers(16))) + original[end:]
        path.write_bytes(damaged)
        try:
            loaded = load_checkpoint(path)
        except CheckpointError:
            counts["error"] += 1
            continue
        counts["equal"] += 1
        assert list(loaded) == list(saved), (kind, pos)
        for name, arr in saved.items():
            assert loaded[name].shape == arr.shape and loaded[name].tobytes() == arr.tobytes()
    assert counts["error"] > 2000 and counts["equal"] > 0


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
