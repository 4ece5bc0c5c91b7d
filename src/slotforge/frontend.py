"""Patch frontend: raw frames to the dense visual token set.

Each non-overlapping p x p patch is flattened, linearly projected to the
model width, normalized (parameter-free), and offset by a learned 2-D
positional embedding. The normalization happens before the positional add so
position information reaches the slot encoder unscaled. A frame is its uint8
HxWx3 rgb array, as the world draws it and the PPM holds it; the frontend is
the one place it becomes floats, scaled by 1/255. A group of frames is
embedded as one graph, and its dense tokens are one plain `(frames·cells,
width)` Tensor, each frame's `grid²` cells in row-major order, frame after
frame.
"""

from __future__ import annotations

import numpy as np

from . import tensor as T
from .nn import ParamGroup, param, zeros_param
from .tensor import ShapeError, Tensor


class PatchEmbedder:
    """Learned projection of flattened patches with positional embeddings."""

    def __init__(self, rng: np.random.Generator, patch_size: int, width: int,
                 image_size: int):
        if image_size % patch_size:
            raise ShapeError(f"image size {image_size} not divisible by patch {patch_size}")
        self.patch_size = patch_size
        self.image_size = image_size
        self.grid = image_size // patch_size
        self.proj_w = param(rng, patch_size * patch_size * 3, width)
        self.proj_b = zeros_param(width)
        self.pos = param(rng, self.grid * self.grid, width, scale=0.1)

    def params(self) -> ParamGroup:
        return ParamGroup().collect("frontend", self)

    def patches(self, rgb: np.ndarray) -> np.ndarray:
        """Flattened patch bytes, one row per grid cell (row-major cells)."""
        p = self.patch_size
        h, w, _ = rgb.shape
        if h != self.image_size or w != self.image_size:
            raise ShapeError(f"frame {h}x{w} != configured {self.image_size}")
        if rgb.dtype != np.uint8:
            raise ShapeError(f"frame dtype {rgb.dtype} is not uint8")
        cells = rgb.reshape(h // p, p, w // p, p, 3).transpose(0, 2, 1, 3, 4)
        return cells.reshape(self.grid * self.grid, p * p * 3)

    def __call__(self, frames: list[np.ndarray]) -> Tensor:
        """Dense tokens of a group of frames, stacked frame by frame."""
        patch_bytes = np.concatenate([self.patches(frame) for frame in frames])
        flat = Tensor(np.divide(patch_bytes, 255.0, dtype=np.float64))
        projected = T.layer_norm(T.linear(flat, self.proj_w, self.proj_b))
        cells = self.grid * self.grid
        pos = T.gather_rows(self.pos, np.tile(np.arange(cells), len(frames)))
        return T.add(projected, pos)
