"""Checkpoints: numpy `.npz` archives of float64 records, one `<name>.npy` each.

Members carry zip's fixed 1980 time, so the same arrays give the same bytes.
A save writes `<name>.tmp` and renames it over the target. A load reads each
member whole (zipfile checks its CRC-32) and parses its `.npy` header itself,
so nothing is unpickled or allocated before the shape fits the member. A
flipped bit, a bad archive or record, a repeated name and a version-1 (`SLFG`)
file, which this release does not read (retrain), are a `CheckpointError`.
"""

import io
import math
import os
import zipfile
import zlib
from pathlib import Path

import numpy as np


class CheckpointError(Exception):
    pass


def save_checkpoint(path: str | Path, arrays: dict[str, np.ndarray]) -> None:
    Path(path).parent.mkdir(parents=True, exist_ok=True)
    tmp = Path(f"{path}.tmp")
    try:
        records = {name: np.asarray(arr, dtype="<f8", order="C") for name, arr in arrays.items()}
        with open(tmp, "wb") as fh:
            np.savez(fh, **records)
        os.replace(tmp, path)
    finally:
        tmp.unlink(missing_ok=True)


def load_checkpoint(path: str | Path) -> dict[str, np.ndarray]:
    try:
        blob = Path(path).read_bytes()
    except OSError as exc:
        raise CheckpointError(f"{path}: cannot read checkpoint: {exc.strerror}") from exc
    if blob[:4] == b"SLFG":
        raise CheckpointError(f"{path}: version-1 checkpoint, which this release does not read; retrain")
    if blob[:4] not in (b"PK\x03\x04", b"PK\x05\x06"):  # a zip's first member, or its end
        raise CheckpointError(f"{path}: not a checkpoint: starts with {blob[:4]!r}")
    arrays: dict[str, np.ndarray] = {}
    try:
        with zipfile.ZipFile(io.BytesIO(blob)) as archive:
            for info in archive.infolist():
                name = info.filename.removesuffix(".npy")
                if name in arrays or info.comment:  # numpy writes no comments; one hides later entries
                    raise CheckpointError(f"{path}: repeated or corrupt directory entry of record {name!r}")
                member = io.BytesIO(archive.read(info))
                np.lib.format.read_magic(member)  # numpy writes version 1.0 for headers this short
                shape, fortran, dtype = np.lib.format.read_array_header_1_0(member)
                body = member.read()
                if dtype != np.dtype("<f8") or len(body) != 8 * math.prod(shape):
                    raise CheckpointError(f"{path}: record {name!r} holds {len(body)} bytes of {dtype}, "
                                          f"not float64 of shape {shape}")
                arrays[name] = np.frombuffer(body, "<f8").reshape(shape, order="F" if fortran else "C").copy()
    except (OSError, ValueError, EOFError, NotImplementedError, RuntimeError,
            zipfile.BadZipFile, zlib.error) as exc:
        raise CheckpointError(f"{path}: truncated or corrupt checkpoint: {exc}") from exc
    return arrays
