"""Binary PGM (P5) and PPM (P6) image files, 8-bit maxval."""

from __future__ import annotations

from pathlib import Path

import numpy as np


class PnmError(Exception):
    pass


def _write(path: str | Path, magic: bytes, pixels: np.ndarray) -> None:
    """An 8-bit PNM file of (h, w[, channels]) uint8 pixels, parents made."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "wb") as fh:
        fh.write(magic + b"\n%d %d\n255\n" % (pixels.shape[1], pixels.shape[0]))
        fh.write(pixels.tobytes())


def write_pgm(path: str | Path, gray: np.ndarray) -> None:
    gray = np.asarray(gray)
    if gray.ndim != 2:
        raise PnmError(f"PGM needs a 2-D array, got shape {gray.shape}")
    if gray.dtype != np.uint8:
        gray = np.clip(np.round(gray), 0, 255).astype(np.uint8)
    _write(path, b"P5", gray)


def write_ppm(path: str | Path, rgb: np.ndarray) -> None:
    rgb = np.asarray(rgb)
    if rgb.ndim != 3 or rgb.shape[2] != 3:
        raise PnmError(f"PPM needs an HxWx3 array, got shape {rgb.shape}")
    if rgb.dtype != np.uint8:
        raise PnmError(f"PPM needs uint8 pixels, got {rgb.dtype}")
    _write(path, b"P6", rgb)


def _read_header(blob: bytes, magic: bytes, path) -> tuple[int, int, int]:
    if not blob.startswith(magic):
        raise PnmError(f"{path}: expected {magic.decode()} file")
    fields: list[int] = []
    pos = 2
    while len(fields) < 3:
        while pos < len(blob) and blob[pos:pos + 1].isspace():
            pos += 1
        if blob[pos:pos + 1] == b"#":
            while pos < len(blob) and blob[pos:pos + 1] != b"\n":
                pos += 1
            continue
        start = pos
        while pos < len(blob) and not blob[pos:pos + 1].isspace():
            pos += 1
        try:
            fields.append(int(blob[start:pos]))
        except ValueError as exc:
            raise PnmError(f"{path}: malformed header") from exc
    if fields[2] != 255:
        raise PnmError(f"{path}: only maxval 255 supported, got {fields[2]}")
    if fields[0] < 1 or fields[1] < 1:
        raise PnmError(f"{path}: image size {fields[0]}x{fields[1]} is not positive")
    return fields[0], fields[1], pos + 1


def _read_pixels(path: str | Path, magic: bytes, channels: int) -> np.ndarray:
    """(h, w, channels) pixels; a size below 1, or a payload of more or fewer
    than w * h * channels bytes, is a PnmError."""
    blob = Path(path).read_bytes()
    w, h, offset = _read_header(blob, magic, path)
    count = w * h * channels
    if len(blob) - offset < count:
        raise PnmError(f"{path}: truncated pixel data")
    if len(blob) - offset > count:
        raise PnmError(f"{path}: {len(blob) - offset - count} trailing bytes "
                       "after the pixel data")
    pixels = np.frombuffer(blob, dtype=np.uint8, count=count, offset=offset)
    return pixels.reshape(h, w, channels).copy()


def read_pgm(path: str | Path) -> np.ndarray:
    return _read_pixels(path, b"P5", 1)[:, :, 0]


def read_ppm(path: str | Path) -> np.ndarray:
    return _read_pixels(path, b"P6", 3)
