"""Iterative slot refinement over dense tokens.

A frame's dense tokens and slots are plain Tensors. The refiner knows nothing
of carryover: `SlotAttention.encode_frame` refines whatever starting slots it
is handed, and `SlotAttention.fresh_slots` draws seeded Gaussian ones; the
caller, `Pipeline.encode_frame`, chooses between those and a copy of the
previous frame's slots. The tokens are projected to keys and values once per
frame (Algorithm 1 of Locatello et al. 2020). Each refinement step computes
scaled dot-product logits between the keys and the projected slots,
normalizes over the slot axis per token, re-normalizes the transposed weights
over tokens, and feeds the weighted mean of the values into a row-wise GRU,
optionally followed by a residual MLP. A step also returns those weights, a
read-only numpy array whose columns sum to 1 over the tokens; reports draw
them.

A group of frames is encoded as one graph: their tokens and slots are
stacked frame by frame as row blocks, and `slot_attention(..., groups)`
keeps both normalizations within each frame's block; the projections, the
GRU, the residual MLP and `layer_norm` are row-wise already. Whatever its
size, a group records 3 tape entries for a fresh draw, 2 for the
projections and 7 per refinement step: `slot_attention` and `gru_cell` are
one fused entry each, and the residual MLP block takes five. One frame is a
group of one.
"""

from __future__ import annotations

from dataclasses import dataclass
import numpy as np

from . import tensor as T
from .nn import GRUParams, MlpParams, ParamGroup, gru_cell, mlp, param, zeros_param
from .tensor import ShapeError, Tensor

COLUMN_EPS = 1e-8


def slot_attention(keys: Tensor, values: Tensor, slots: Tensor, wq: Tensor,
                   groups: int = 1) -> tuple[Tensor, np.ndarray]:
    """Slot-competitive attention as one tape entry: (update, weights).

    attn = softmax over slots of keys (slots wq)ᵀ / √d, one row per token;
    weights = attn / max(column sum, COLUMN_EPS); update = weightsᵀ values.
    With groups=B the rows of keys, values and slots are B equal blocks, one
    per frame, and the tokens of block g attend to the slots of block g only:
    the logits are (B, tokens, slots) inside the op, so both normalizations
    stay within a frame. The weights come back row-stacked, (B·tokens, slots),
    and read-only, as the backward reads them.
    """
    k, v, sl = keys.data, values.data, slots.data
    if groups < 1 or k.shape[0] % groups or sl.shape[0] % groups:
        raise ShapeError(f"slot_attention: {k.shape[0]} token and {sl.shape[0]} slot rows "
                         f"do not split into {groups} groups")
    d = sl.shape[1]
    scale = 1.0 / np.sqrt(d)
    kb, vb = k.reshape(groups, -1, d), v.reshape(groups, -1, v.shape[1])
    with T.quiet():
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

    maps = weights.reshape(k.shape[0], sl.shape[0] // groups)
    maps.flags.writeable = False
    return T.primitive(out, parents, backward, "slot_attention"), maps


class SlotAttention:
    def __init__(self, rng: np.random.Generator, width: int, num_slots: int,
                 refine_steps: int, residual_mlp: bool):
        if refine_steps < 1:
            raise ValueError(f"refine_steps must be >= 1, got {refine_steps}")
        self.width = width
        self.num_slots = num_slots
        self.refine_steps = refine_steps
        d = width
        self.wq = param(rng, d, d)
        self.wk = param(rng, d, d)
        self.wv = param(rng, d, d)
        self.gru = GRUParams.create(rng, d)
        # shared across slots so identity comes from carryover, not the init
        self.init_mu = param(rng, d, scale=0.5)
        self.init_log_sigma = Tensor(np.full(d, -1.0), requires_grad=True)
        # the last draws from `rng`, so turning the MLP off moves no other weight
        self.mlp = MlpParams.create(rng, d, 2 * d, d) if residual_mlp else None

    def params(self) -> ParamGroup:
        return ParamGroup().collect("slots", self)

    def fresh_slots(self, seeds: list[int]) -> Tensor:
        """Fresh Gaussian slots of a group of frames, stacked frame by frame:
        one seeded draw per frame from its own seed, so a frame's start does
        not depend on its group."""
        noise = np.concatenate([
            np.random.default_rng(seed).standard_normal((self.num_slots, self.width))
            for seed in seeds])
        sigma = T.exp(self.init_log_sigma)
        return T.add(self.init_mu, T.mul(Tensor(noise), sigma))

    def refine_step(self, slots: Tensor, keys: Tensor, values: Tensor,
                    groups: int = 1) -> tuple[Tensor, np.ndarray]:
        if slots.shape[1] != keys.shape[1]:
            raise ShapeError(f"slot width {slots.shape[1]} != key width {keys.shape[1]}")
        if keys.shape[0] == 0:
            raise ShapeError("refine_step: empty dense token set")
        update, weights = slot_attention(keys, values, slots, self.wq, groups)
        new_slots = gru_cell(update, slots, self.gru)
        if self.mlp is not None:
            new_slots = T.add(new_slots, mlp(T.layer_norm(new_slots), self.mlp))
        return new_slots, weights

    def encode_frame(self, tokens: Tensor, slots: Tensor) -> tuple[Tensor, np.ndarray]:
        """Refine the starting slots of a group of frames, whose tokens and
        slots are stacked frame by frame: project the tokens to keys and values
        once, then run the configured refinement steps with each frame's slots
        attending to its own tokens. The group counts its frames by the slots'
        row blocks. Returns (slots, the last step's attention weights)."""
        groups = slots.shape[0] // self.num_slots
        keys, values = T.matmul(tokens, self.wk), T.matmul(tokens, self.wv)
        weights = None
        for _ in range(self.refine_steps):
            slots, weights = self.refine_step(slots, keys, values, groups)
        return slots, weights


@dataclass
class SlotPredictions:
    """Per-slot supervision targets decoded from the refined slot vectors."""

    boxes: Tensor       # num_slots x 4, cxcywh in (0,1)
    objectness: Tensor  # num_slots x 1 logits
    mask_logits: Tensor  # num_slots x grid cells


class SlotHeads:
    """Small per-slot heads for boxes, objectness, and patch-grid masks."""

    def __init__(self, rng: np.random.Generator, width: int, grid_cells: int):
        self.box = MlpParams.create(rng, width, width, 4)
        self.objectness_w = param(rng, width, 1)
        self.objectness_b = zeros_param(1)
        self.mask = MlpParams.create(rng, width, width, grid_cells)

    def params(self) -> ParamGroup:
        return ParamGroup().collect("heads", self)

    def boxes(self, slots: Tensor) -> Tensor:
        """The box head alone, num_slots x 4, cxcywh in (0,1); validation
        reads nothing else."""
        return T.sigmoid(mlp(slots, self.box))

    def __call__(self, slots: Tensor) -> SlotPredictions:
        return SlotPredictions(
            boxes=self.boxes(slots),
            objectness=T.linear(slots, self.objectness_w, self.objectness_b),
            mask_logits=mlp(slots, self.mask),
        )
