"""Flat binary checkpoint files shared by every module's parameters.

Layout (little-endian throughout):
    magic  b"SLFG"
    version u32
    records until EOF, each:
        name_len u32, name utf-8 bytes,
        rank u32, extents rank*u32,
        payload product(extents) float64 values

A save writes `<name>.tmp` beside the target and renames it over the target,
so a save that fails or is interrupted leaves the previous file intact.
"""

from __future__ import annotations

import os
import struct
from pathlib import Path

import numpy as np

MAGIC = b"SLFG"
VERSION = 1


class CheckpointError(Exception):
    pass


def save_checkpoint(path: str | Path, arrays: dict[str, np.ndarray]) -> None:
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(path.name + ".tmp")
    try:
        with open(tmp, "wb") as fh:
            fh.write(MAGIC)
            fh.write(struct.pack("<I", VERSION))
            for name, arr in arrays.items():
                arr = np.asarray(arr, dtype=np.float64)
                encoded = name.encode("utf-8")
                fh.write(struct.pack("<I", len(encoded)))
                fh.write(encoded)
                fh.write(struct.pack("<I", arr.ndim))
                for extent in arr.shape:
                    fh.write(struct.pack("<I", extent))
                fh.write(arr.astype("<f8").tobytes())
        os.replace(tmp, path)
    finally:
        tmp.unlink(missing_ok=True)


def load_checkpoint(path: str | Path) -> dict[str, np.ndarray]:
    path = Path(path)
    try:
        blob = path.read_bytes()
    except OSError as exc:
        raise CheckpointError(f"{path}: cannot read checkpoint: {exc.strerror}") from exc
    if blob[:4] != MAGIC:
        raise CheckpointError(f"{path}: bad magic {blob[:4]!r}")
    if len(blob) < 8:
        raise CheckpointError(f"{path}: truncated header")
    (version,) = struct.unpack_from("<I", blob, 4)
    if version != VERSION:
        raise CheckpointError(f"{path}: unsupported version {version}")
    arrays: dict[str, np.ndarray] = {}
    offset = 8
    while offset < len(blob):
        try:
            (name_len,) = struct.unpack_from("<I", blob, offset)
            offset += 4
            name = blob[offset:offset + name_len].decode("utf-8")
            offset += name_len
            (rank,) = struct.unpack_from("<I", blob, offset)
            offset += 4
            extents = struct.unpack_from(f"<{rank}I", blob, offset)
            offset += 4 * rank
            count = int(np.prod(extents)) if rank else 1
            payload = np.frombuffer(blob, dtype="<f8", count=count, offset=offset)
            offset += 8 * count
        except (struct.error, ValueError) as exc:
            raise CheckpointError(f"{path}: truncated record at byte {offset}") from exc
        if name in arrays:
            raise CheckpointError(f"{path}: duplicate record {name!r}")
        arrays[name] = payload.reshape(extents).astype(np.float64)
    return arrays
