"""Patch frontend: raw frames to the dense visual token set.

Each non-overlapping p x p patch is flattened, linearly projected to the
model width, normalized (parameter-free), and offset by a learned 2-D
positional embedding. The normalization happens before the positional add so
position information reaches the slot encoder unscaled. A frame is its HxWx3
rgb array in [0,1]; a group of frames is embedded as one graph, its patches
stacked frame by frame.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import tensor as T
from .nn import ParamGroup, param, zeros_param
from .tensor import ShapeError, Tensor


@dataclass
class DenseTokens:
    """The N x d visual token matrix plus its patch-grid layout."""

    tokens: Tensor
    grid_h: int
    grid_w: int

    @property
    def count(self) -> int:
        return self.grid_h * self.grid_w

    def __post_init__(self):
        if self.tokens.shape[0] != self.count:
            raise ShapeError(
                f"token count {self.tokens.shape[0]} != grid {self.grid_h}x{self.grid_w}")


class PatchEmbedder:
    """Learned projection of flattened patches with positional embeddings."""

    def __init__(self, rng: np.random.Generator, patch_size: int = 8, width: int = 64,
                 image_size: int = 64):
        if image_size % patch_size:
            raise ShapeError(f"image size {image_size} not divisible by patch {patch_size}")
        self.patch_size = patch_size
        self.width = width
        self.image_size = image_size
        self.grid = image_size // patch_size
        self.proj_w = param(rng, patch_size * patch_size * 3, width)
        self.proj_b = zeros_param(width)
        self.pos = param(rng, self.grid * self.grid, width, scale=0.1)

    def params(self) -> ParamGroup:
        return ParamGroup().collect("frontend", self)

    def patches(self, rgb: np.ndarray) -> np.ndarray:
        """Flattened patch matrix, one row per grid cell (row-major cells)."""
        p = self.patch_size
        h, w, _ = rgb.shape
        if h != self.image_size or w != self.image_size:
            raise ShapeError(f"frame {h}x{w} != configured {self.image_size}")
        cells = rgb.reshape(h // p, p, w // p, p, 3).transpose(0, 2, 1, 3, 4)
        return cells.reshape(self.grid * self.grid, p * p * 3)

    def __call__(self, frames: list[np.ndarray]) -> DenseTokens:
        """Tokens of a group of frames, stacked frame by frame: one grid as many
        times as tall as there are frames."""
        flat = Tensor(np.concatenate([self.patches(frame) for frame in frames]))
        projected = T.layer_norm(T.linear(flat, self.proj_w, self.proj_b))
        cells = self.grid * self.grid
        pos = T.gather_rows(self.pos, np.tile(np.arange(cells), len(frames)))
        return DenseTokens(T.add(projected, pos), self.grid * len(frames), self.grid)
