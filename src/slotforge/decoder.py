"""Action decoding over the assembled token bundle.

The bundle concatenates filtered object tokens, relation tokens (omitted in
object-only mode), language embeddings, and one projected proprioception
token, each offset by a learned segment embedding. A small transformer
encoder processes the bundle; mean-pooled features feed seven parallel
classification heads, one per control dimension, over uniform bins spanning
[-1, 1]. Executed actions come from per-dimension greedy argmax.
"""

from __future__ import annotations

import numpy as np

from . import tensor as T
from .nn import (ParamGroup, SelfAttentionBlockParams, param,
                 self_attention_block, zeros_param)
from .tensor import ShapeError, Tensor

ACTION_DIMS = 7


def bin_centers(bins: int) -> np.ndarray:
    """Centers of `bins` uniform bins over [-1, 1]."""
    return -1.0 + (2 * np.arange(bins) + 1) / bins


def action_to_bins(action: np.ndarray, bins: int) -> np.ndarray:
    """Bin index per dimension; values at +1 land in the top bin."""
    return np.clip(np.floor((np.asarray(action) + 1.0) / 2.0 * bins),
                   0, bins - 1).astype(np.int64)


def snap_action(value: float, bins: int) -> float:
    """Quantize a scalar to its containing bin center."""
    return float(bin_centers(bins)[action_to_bins(np.asarray([value]), bins)[0]])


class ActionDecoder:
    def __init__(self, rng: np.random.Generator, width: int = 64, bins: int = 256,
                 heads: int = 4, layers: int = 2, proprio_dim: int = 4):
        if bins < 2:
            raise ValueError(f"need at least 2 action bins, got {bins}")
        self.width = width
        self.bins = bins
        self.proprio_dim = proprio_dim
        self.proprio_w = param(rng, proprio_dim, width)
        self.proprio_b = zeros_param(width)
        self.segments = param(rng, 4, width, scale=0.1)
        self.blocks = [SelfAttentionBlockParams.create(rng, width, heads)
                       for _ in range(layers)]
        self.heads = [(param(rng, width, bins), zeros_param(bins))
                      for _ in range(ACTION_DIMS)]

    def params(self) -> ParamGroup:
        """Own tensors and blocks by attribute path; the head pairs by hand."""
        g = ParamGroup().collect("decoder", self)
        for i, block in enumerate(self.blocks):
            g.collect(f"decoder.block{i}", block)
        for i, (w, b) in enumerate(self.heads):
            g.add(f"decoder.head{i}_w", w)
            g.add(f"decoder.head{i}_b", b)
        return g

    def assemble_bundle(self, objects: Tensor, relations: Tensor | None,
                        language: Tensor, proprio: np.ndarray) -> Tensor:
        """Decoder input [objects; relations; language; proprio] as one matrix."""
        proprio = np.asarray(proprio, dtype=np.float64).reshape(1, -1)
        if proprio.shape[1] != self.proprio_dim:
            raise ShapeError(f"proprio has {proprio.shape[1]} dims, "
                             f"expected {self.proprio_dim}")
        seg = self.segments
        parts = [T.add(objects, T.gather_rows(seg, [0] * objects.shape[0]))]
        if relations is not None:
            parts.append(T.add(relations, T.gather_rows(seg, [1] * relations.shape[0])))
        parts.append(T.add(language, T.gather_rows(seg, [2] * language.shape[0])))
        o_token = T.linear(Tensor(proprio), self.proprio_w, self.proprio_b)
        parts.append(T.add(o_token, T.gather_rows(seg, [3])))
        return T.concat(parts, axis=0)

    def decode_actions(self, bundle: Tensor) -> Tensor:
        """Per-dimension bin logits, shape (7, bins)."""
        x = bundle
        for block in self.blocks:
            x = self_attention_block(x, block)
        pooled = T.mean(x, axis=0, keepdims=True)
        rows = [T.linear(pooled, w, b) for w, b in self.heads]
        return T.concat(rows, axis=0)

    def greedy_action(self, logits: Tensor | np.ndarray) -> np.ndarray:
        """Argmax bin center per dimension; ties resolve to the lower bin."""
        data = logits.data if isinstance(logits, Tensor) else np.asarray(logits)
        if data.shape != (ACTION_DIMS, self.bins):
            raise ShapeError(f"logits shape {data.shape} != "
                             f"({ACTION_DIMS}, {self.bins})")
        return bin_centers(self.bins)[np.argmax(data, axis=1)]
