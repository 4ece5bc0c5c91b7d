"""Iterative slot refinement over dense tokens, with cross-frame carryover.

A frame's slots are a plain Tensor. They start from a seeded Gaussian draw,
or, when the previous frame's final refined slots are passed in, as a bitwise
copy of them; `Pipeline.encode_frame` decides which. The dense tokens are
projected to keys and values once per frame (Algorithm 1 of Locatello et
al. 2020). Each refinement step computes scaled dot-product logits between
the keys and the projected slots, normalizes over the slot axis per token,
re-normalizes the transposed weights over tokens, and feeds the weighted
mean of the values into a row-wise GRU, optionally followed by a residual
MLP.

A group of frames is encoded as one graph: their tokens and slots are
stacked frame by frame as row blocks, and `slot_attention(..., groups)`
keeps both normalizations within each frame's block; the projections, the
GRU, the residual MLP and `layer_norm` are row-wise already. Whatever its
size, a group records 2 tape entries for the projections, 3 for a fresh
init (none for carried slots), and 7 per refinement step: `slot_attention`
and `gru_cell` are one fused entry each, and the residual MLP block takes
five. One frame is a group of one.

Gradients are truncated at frame boundaries: carryover passes values, not
tape history.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from . import tensor as T
from .frontend import DenseTokens
from .nn import GRUParams, MlpParams, ParamGroup, gru_cell, mlp, param, zeros_param
from .tensor import ShapeError, Tensor

COLUMN_EPS = 1e-8


@dataclass
class AttentionMaps:
    """Per-step normalized attention: rows of `attn` sum to 1 over slots,
    columns of `weights` sum to 1 over input tokens; read-only, as the backward reads them."""

    attn: np.ndarray
    weights: np.ndarray


def slot_attention(keys: Tensor, values: Tensor, slots: Tensor, wq: Tensor,
                   groups: int = 1) -> tuple[Tensor, np.ndarray, np.ndarray]:
    """Slot-competitive attention as one tape entry: (update, attn, weights).

    attn = softmax over slots of keys (slots wq)ᵀ / √d, one row per token;
    weights = attn / max(column sum, COLUMN_EPS); update = weightsᵀ values.
    With groups=B the rows of keys, values and slots are B equal blocks, one
    per frame, and the tokens of block g attend to the slots of block g only:
    the logits are (B, tokens, slots) inside the op, so both normalizations
    stay within a frame. The maps come back row-stacked, (B·tokens, slots),
    and must not be modified.
    """
    k, v, sl = keys.data, values.data, slots.data
    if groups < 1 or k.shape[0] % groups or sl.shape[0] % groups:
        raise ShapeError(f"slot_attention: {k.shape[0]} token and {sl.shape[0]} slot rows "
                         f"do not split into {groups} groups")
    d = sl.shape[1]
    scale = 1.0 / np.sqrt(d)
    kb, vb = k.reshape(groups, -1, d), v.reshape(groups, -1, v.shape[1])
    with np.errstate(all="ignore"):
        queries = sl @ wq.data
        qb = queries.reshape(groups, -1, d)
        # the softmax runs in the logits buffer; it turns a -inf logit into a
        # finite 0, so check before it
        attn = kb @ qb.transpose(0, 2, 1)
        attn *= scale
        T.check_finite(attn, "slot_attention")
        attn -= np.maximum.reduce(attn, axis=2, keepdims=True)
        np.exp(attn, out=attn)
        attn /= np.add.reduce(attn, axis=2, keepdims=True)
        col = attn.sum(axis=1, keepdims=True)
        col_norm = np.maximum(col, COLUMN_EPS)
        weights = attn / col_norm
        out = (weights.transpose(0, 2, 1) @ vb).reshape(sl.shape[0], v.shape[1])
    parents = (keys, values, slots, wq)

    def backward(g):
        gb = g.reshape(groups, -1, g.shape[1])
        g_w = vb @ gb.transpose(0, 2, 1)
        # a column sum below COLUMN_EPS is replaced, so it passes no gradient
        g_col = (g_w * weights).sum(axis=1, keepdims=True) * (col >= COLUMN_EPS)
        g_attn = (g_w - g_col) / col_norm
        g_logits = (g_attn - (g_attn * attn).sum(axis=2, keepdims=True)) * attn * scale
        g_q = (g_logits.transpose(0, 2, 1) @ kb).reshape(sl.shape)
        grads = ((g_logits @ qb).reshape(k.shape), (weights @ gb).reshape(v.shape),
                 g_q @ wq.data.T, sl.T @ g_q)
        return tuple(grad if t.requires_grad else None for t, grad in zip(parents, grads))

    rows = (k.shape[0], sl.shape[0] // groups)
    return (T.primitive(out, parents, backward, "slot_attention"),
            attn.reshape(rows), weights.reshape(rows))


class SlotAttention:
    def __init__(self, rng: np.random.Generator, width: int = 64, num_slots: int = 16,
                 refine_steps: int = 3, residual_mlp: bool = True):
        if refine_steps < 1:
            raise ValueError(f"refine_steps must be >= 1, got {refine_steps}")
        self.width = width
        self.num_slots = num_slots
        self.refine_steps = refine_steps
        self.residual_mlp = residual_mlp
        d = width
        self.wq = param(rng, d, d)
        self.wk = param(rng, d, d)
        self.wv = param(rng, d, d)
        self.gru = GRUParams.create(rng, d)
        # shared across slots so identity comes from carryover, not the init
        self.init_mu = param(rng, d, scale=0.5)
        self.init_log_sigma = Tensor(np.full(d, -1.0), requires_grad=True)
        self.mlp = MlpParams.create(rng, d, 2 * d, d)

    def params(self) -> ParamGroup:
        return ParamGroup().collect("slots", self)

    def init_slots(self, prev: Tensor | None, rng_seed: int | Sequence[int]) -> Tensor:
        """Slots of a group of frames, stacked frame by frame: a bitwise
        carryover copy of `prev` when given, else fresh Gaussian slots, one
        seeded draw per frame from its own seed (an int is one frame), so a
        frame's start does not depend on its group."""
        if prev is not None:
            return prev.detach()
        noise = np.concatenate([
            np.random.default_rng(seed).standard_normal((self.num_slots, self.width))
            for seed in np.atleast_1d(rng_seed).tolist()])
        sigma = T.exp(self.init_log_sigma)
        return T.add(self.init_mu, T.mul(Tensor(noise), sigma))

    def refine_step(self, slots: Tensor, keys: Tensor, values: Tensor,
                    groups: int = 1) -> tuple[Tensor, AttentionMaps]:
        if slots.shape[1] != keys.shape[1]:
            raise ShapeError(f"slot width {slots.shape[1]} != key width {keys.shape[1]}")
        if keys.shape[0] == 0:
            raise ShapeError("refine_step: empty dense token set")
        update, attn, weights = slot_attention(keys, values, slots, self.wq, groups)
        new_slots = gru_cell(update, slots, self.gru)
        if self.residual_mlp:
            new_slots = T.add(new_slots, mlp(T.layer_norm(new_slots), self.mlp))
        attn.flags.writeable = weights.flags.writeable = False
        return new_slots, AttentionMaps(attn, weights)

    def encode_frame(self, dense: DenseTokens, prev: Tensor | None,
                     rng_seed: int | Sequence[int]) -> tuple[Tensor, AttentionMaps]:
        """Encode a group of frames, one seed per frame, whose tokens and `prev`
        slots are stacked frame by frame: init (carried over exactly when
        `prev` is given), project the tokens to keys and values once, then run
        the configured refinement steps with each frame's slots attending to
        its own tokens."""
        groups = np.size(rng_seed)
        keys, values = T.matmul(dense.tokens, self.wk), T.matmul(dense.tokens, self.wv)
        slots = self.init_slots(prev, rng_seed)
        maps = None
        for _ in range(self.refine_steps):
            slots, maps = self.refine_step(slots, keys, values, groups)
        return slots, maps


@dataclass
class SlotPredictions:
    """Per-slot supervision targets decoded from the refined slot vectors."""

    boxes: Tensor       # num_slots x 4, cxcywh in (0,1)
    objectness: Tensor  # num_slots x 1 logits
    mask_logits: Tensor  # num_slots x (grid_h*grid_w)


class SlotHeads:
    """Small per-slot heads for boxes, objectness, and patch-grid masks."""

    def __init__(self, rng: np.random.Generator, width: int, grid_cells: int):
        self.box = MlpParams.create(rng, width, width, 4)
        self.objectness_w = param(rng, width, 1)
        self.objectness_b = zeros_param(1)
        self.mask = MlpParams.create(rng, width, width, grid_cells)

    def params(self) -> ParamGroup:
        return ParamGroup().collect("heads", self)

    def __call__(self, slots: Tensor) -> SlotPredictions:
        return SlotPredictions(
            boxes=T.sigmoid(mlp(slots, self.box)),
            objectness=T.linear(slots, self.objectness_w, self.objectness_b),
            mask_logits=mlp(slots, self.mask),
        )
