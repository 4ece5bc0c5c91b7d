"""Action decoding over the assembled token bundle.

The bundle concatenates filtered object tokens, relation tokens (omitted in
object-only mode), language embeddings, and one projected proprioception
token, each offset by a learned segment embedding. A small transformer
encoder processes the bundle; mean-pooled features feed seven parallel
classification heads, one per control dimension, over uniform bins spanning
[-1, 1]. Executed actions come from per-dimension greedy argmax.

A batch of B frames is one graph of bundles stacked as equal row blocks; attention
(`groups=B`) and pooling run per block, and logits are (B·7, bins), frame-major.
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
        """Decoder input of B frames, one per proprio row: each frame's bundle [objects;
        relations; language; proprio] in turn. Every part stacks B equal row blocks."""
        proprio = np.atleast_2d(np.asarray(proprio, dtype=np.float64))
        if proprio.ndim != 2 or proprio.shape[1] != self.proprio_dim:
            raise ShapeError(f"proprio has shape {proprio.shape}, "
                             f"expected (frames, {self.proprio_dim})")
        o_tokens = T.linear(Tensor(proprio), self.proprio_w, self.proprio_b)
        parts = [(seg, part) for seg, part in enumerate((objects, relations, language, o_tokens))
                 if part is not None]
        # each part's rows as a (frames, rows per frame) grid, joined frame by frame;
        # the reshape fails loudly on a part that does not split into equal blocks
        ends = np.cumsum([part.shape[0] for _, part in parts])
        order = np.concatenate([np.arange(end - part.shape[0], end).reshape(len(proprio), -1)
                                for (_, part), end in zip(parts, ends)], axis=1).reshape(-1)
        segments = np.repeat([seg for seg, _ in parts], [part.shape[0] for _, part in parts])
        stacked = T.gather_rows(T.concat([part for _, part in parts], axis=0), order)
        return T.add(stacked, T.gather_rows(self.segments, segments[order]))

    def decode_actions(self, bundle: Tensor, groups: int = 1) -> Tensor:
        """Per-dimension bin logits of `groups` stacked bundles, (groups·7, bins)."""
        x = bundle
        for block in self.blocks:
            x = self_attention_block(x, block, groups)
        pooled = T.group_mean(x, groups)
        rows = T.concat([T.linear(pooled, w, b) for w, b in self.heads], axis=0)
        # head-major (head i of frame b at row i·groups + b) to frame-major
        return T.gather_rows(rows, np.arange(ACTION_DIMS * groups)
                             .reshape(ACTION_DIMS, groups).T.reshape(-1))

    def greedy_action(self, logits: Tensor | np.ndarray) -> np.ndarray:
        """Argmax bin center per dimension; ties resolve to the lower bin."""
        data = logits.data if isinstance(logits, Tensor) else np.asarray(logits)
        if data.shape != (ACTION_DIMS, self.bins):
            raise ShapeError(f"logits shape {data.shape} != "
                             f"({ACTION_DIMS}, {self.bins})")
        return bin_centers(self.bins)[np.argmax(data, axis=1)]
