"""Iterative slot refinement over dense tokens, with cross-frame carryover.

A frame's slots start either from a seeded Gaussian draw (first frame, or
carryover disabled) or as a bitwise copy of the previous frame's final
refined slots. Each refinement step computes scaled dot-product logits
between projected tokens and slots, normalizes over the slot axis per token,
re-normalizes the transposed weights over tokens, and feeds the weighted
token mean into a row-wise GRU, optionally followed by a residual MLP.

Gradients are truncated at frame boundaries: carryover passes values, not
tape history.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import tensor as T
from .frontend import DenseTokens
from .nn import GRUParams, MlpParams, ParamGroup, gru_cell, mlp, param, zeros_param
from .tensor import ShapeError, Tensor

COLUMN_EPS = 1e-8


@dataclass
class SlotState:
    """Current slot matrix for one frame plus its provenance."""

    slots: Tensor
    t: int
    init_mode: str  # "random" | "carryover"


@dataclass
class AttentionMaps:
    """Per-step normalized attention: rows of `attn` sum to 1 over slots,
    columns of `weights` sum to 1 over input tokens."""

    attn: np.ndarray
    weights: np.ndarray


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

    def init_slots(self, state_prev: SlotState | None, rng_seed: int, t: int = 0) -> SlotState:
        """Fresh Gaussian slots at t=0; bitwise carryover copy otherwise."""
        if t > 0:
            if state_prev is None:
                raise ValueError(f"carryover init at t={t} requires a previous state")
            return SlotState(state_prev.slots.detach(), t, "carryover")
        rng = np.random.default_rng(rng_seed)
        noise = rng.standard_normal((self.num_slots, self.width))
        sigma = T.exp(self.init_log_sigma)
        slots = T.add(self.init_mu, T.mul(Tensor(noise), sigma))
        return SlotState(slots, t, "random")

    def refine_step(self, state: SlotState, dense: DenseTokens) -> tuple[SlotState, AttentionMaps]:
        slots, tokens = state.slots, dense.tokens
        if slots.shape[1] != tokens.shape[1]:
            raise ShapeError(f"slot width {slots.shape[1]} != token width {tokens.shape[1]}")
        if tokens.shape[0] == 0:
            raise ShapeError("refine_step: empty dense token set")
        scale = 1.0 / np.sqrt(self.width)
        logits = T.mul(T.matmul(T.matmul(tokens, self.wk),
                                T.transpose(T.matmul(slots, self.wq))), scale)
        attn = T.softmax(logits, axis=1)  # compete over slots per token
        col_norm = T.clip_min(T.sum_(attn, axis=0, keepdims=True), COLUMN_EPS)
        weights = T.div(attn, col_norm)
        update = T.matmul(T.transpose(weights), T.matmul(tokens, self.wv))
        new_slots = gru_cell(update, slots, self.gru)
        if self.residual_mlp:
            new_slots = T.add(new_slots, mlp(T.layer_norm(new_slots), self.mlp))
        maps = AttentionMaps(attn.data.copy(), weights.data.copy())
        return SlotState(new_slots, state.t, state.init_mode), maps

    def encode_frame(self, dense: DenseTokens, state_prev: SlotState | None,
                     rng_seed: int, t: int = 0,
                     carryover: bool = True) -> tuple[SlotState, AttentionMaps]:
        """Init (random or carryover) then run the configured refinement steps."""
        state = self.init_slots(state_prev if carryover else None, rng_seed,
                                t if carryover else 0)
        state = SlotState(state.slots, t, state.init_mode)
        maps = None
        for _ in range(self.refine_steps):
            state, maps = self.refine_step(state, dense)
        return state, maps


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
