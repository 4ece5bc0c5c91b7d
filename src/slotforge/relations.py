"""Relation tokens: learned queries conditioned on patches, then on slots.

The queries are a frame-independent parameter. Conditioning order is fixed:
visual context first, filtered object slots second. Attention over a context
is permutation-invariant in its rows, so reordering slots or patches leaves
the relation tokens unchanged.
"""

from __future__ import annotations

import numpy as np

from .nn import (CrossAttentionBlockParams, ParamGroup, attention_weights,
                 cross_attention_block, norm, param)
from .tensor import ShapeError, Tensor, gather_rows


class RelationEncoder:
    def __init__(self, rng: np.random.Generator, width: int, num_relations: int,
                 heads: int):
        self.width = width
        self.num_relations = num_relations
        self.queries = param(rng, num_relations, width)
        self.visual_cab = CrossAttentionBlockParams.create(rng, width, heads)
        self.slot_cab = CrossAttentionBlockParams.create(rng, width, heads)

    def params(self) -> ParamGroup:
        return ParamGroup().collect("relations", self)

    def __call__(self, tokens: Tensor, slots: Tensor, groups: int = 1) -> Tensor:
        """(groups·num_relations, width) tokens of `groups` row-stacked frames."""
        if slots.shape[0] == 0:
            raise ShapeError("relation encoding requires a non-empty slot set")
        if slots.shape[1] != self.width or tokens.shape[1] != self.width:
            raise ShapeError(
                f"width mismatch: queries {self.width}, tokens {tokens.shape[1]}, "
                f"slots {slots.shape[1]}")
        queries = gather_rows(self.queries, np.tile(np.arange(self.num_relations), groups))
        visual = cross_attention_block(queries, tokens, self.visual_cab, groups)
        return cross_attention_block(visual, slots, self.slot_cab, groups)

    def slot_attention_summary(self, tokens: Tensor, slots: Tensor) -> np.ndarray:
        """Head-averaged attention of relation tokens over slots (reporting)."""
        visual = cross_attention_block(self.queries, tokens, self.visual_cab)
        return attention_weights(norm(visual, self.slot_cab.norm_q),
                                 norm(slots, self.slot_cab.norm_ctx),
                                 self.slot_cab.attn)
