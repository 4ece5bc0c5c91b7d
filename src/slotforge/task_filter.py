"""Language-conditioned slot relevance scoring and top-k retention.

One cross-attention block lets the slots attend to the task tokens, a single
transformer layer contextualizes the slots, and a linear head produces one
relevance logit per slot; its sigmoid is the slot's relevance score. The k
best-scoring slots of each frame are selected; the filter returns their row
indices, and a caller that reads the kept slots gathers those rows itself.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import tensor as T
from .nn import (CrossAttentionBlockParams, ParamGroup, SelfAttentionBlockParams,
                 cross_attention_block, param, self_attention_block, zeros_param)
from .tensor import Tensor


@dataclass
class RelevanceScores:
    scores: np.ndarray       # per-slot values in (0,1)
    selected: list[int]      # ascending row indices of each frame's k best


def top_k_rows(scores: np.ndarray, k: int, groups: int = 1) -> list[int]:
    """Rows of the k largest scores in each of `groups` equal row blocks, in
    ascending row order, ties to the lower index. Selection depends only on
    the score ordering, so any strictly increasing transform picks the same
    rows."""
    scores = np.asarray(scores, dtype=np.float64).reshape(-1)
    n = scores.shape[0]
    if groups < 1 or n % groups:
        raise T.ShapeError(f"top_k_rows: {n} slots do not split into {groups} groups")
    per = n // groups
    if not (1 <= k <= per):
        raise ValueError(f"top_k_rows: k={k} out of range [1, {per}]")
    # a stable sort of the negated scores puts ties in index order
    best = np.argsort(-scores.reshape(groups, per), axis=1, kind="stable")[:, :k]
    return (np.sort(best, axis=1) + per * np.arange(groups)[:, None]).reshape(-1).tolist()


class TaskFilter:
    def __init__(self, rng: np.random.Generator, width: int = 64, heads: int = 4):
        self.width = width
        self.bca_slots = CrossAttentionBlockParams.create(rng, width, heads)
        # the draws of a former language-side block, so later weights keep
        # the values every seed gave them
        rng.random(12 * width * width)
        self.trans = SelfAttentionBlockParams.create(rng, width, heads)
        self.head_w = param(rng, width, 1)
        self.head_b = zeros_param(1)

    def params(self) -> ParamGroup:
        return ParamGroup().collect("filter", self)

    def score_slots(self, slots_bca: Tensor, groups: int = 1) -> Tensor:
        """Transformer layer over the slot stream, then the per-slot logit head."""
        h = self_attention_block(slots_bca, self.trans, groups)
        return T.linear(h, self.head_w, self.head_b)

    def __call__(self, slots: Tensor, lang: Tensor, k: int, enabled: bool = True,
                 groups: int = 1) -> tuple[RelevanceScores, Tensor]:
        """Score every slot; select the top k of each frame (all of them when
        disabled). With groups=B, `slots` and `lang` hold B frames' slots and
        task tokens as row blocks, and each frame's slots attend to its own
        task.

        Returns (scores + selected rows, logit column tensor for the
        relevance loss)."""
        bca = cross_attention_block(slots, lang, self.bca_slots, groups)
        logits = self.score_slots(bca, groups)
        scores = T.stable_sigmoid(logits.data).reshape(-1)
        keep = k if enabled else slots.shape[0] // groups
        return RelevanceScores(scores, top_k_rows(scores, keep, groups)), logits
