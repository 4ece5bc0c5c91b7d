"""Slot-to-object assignment and the two training objectives.

Stage 1 combines box/objectness/mask supervision routed through a
minimum-cost assignment, a multi-positive contrastive tracking term over
slot embeddings, and a class-weighted relevance term. Stage 2 is plain
cross-entropy over discretized action bins.

The two stage-1 hot spots are single tape entries with analytic backwards:
`giou_pairs` (one entry per batch, over the matched rows of every frame),
which shares its box arithmetic with `giou_matrix`, and the anchor term of
`track_loss` (one entry per batch, after the similarity graph). `iou_pairs`
is the same row-wise arithmetic in plain numpy, the IoU of matched pairs,
and the package's one matched-IoU form: validation reads it once per episode
and the inspection report once per frame.
`hungarian_match` solves once per frame with its own assignment solver, so
the package needs numpy alone. A frame's matching is its plain list of
(slot, gt) index pairs, in gt order; among equal-total optima it is the
solver's own deterministic pick.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from . import tensor as T
from .config import RunConfig
from .nn import ParamGroup, param
from .slots import SlotPredictions
from .tensor import ShapeError, Tensor

def _assign(cost: np.ndarray) -> list[int]:
    """Each column's slot in a minimum-cost assignment of the columns of
    `cost` (slots × objects, n_gt <= n_slots) to distinct slots, by shortest
    augmenting paths from one column at a time (Crouse 2016). Plain lists
    beat numpy here."""
    n_slots, n_gt = cost.shape
    columns = cost.T.tolist()
    u, v = [0.0] * n_gt, [0.0] * n_slots
    slot_of, gt_of = [-1] * n_gt, [-1] * n_slots
    for start in range(n_gt):
        dist, came_from = [np.inf] * n_slots, [-1] * n_slots
        unreached, reached, visited = list(range(n_slots)), [], []
        j, reach = start, 0.0
        while j >= 0:  # until the nearest unreached slot is free
            visited.append(j)
            row, uj = columns[j], u[j]
            lowest, nearest = np.inf, -1
            for i in unreached:
                d = reach + row[i] - uj - v[i]
                if d < dist[i]:
                    dist[i], came_from[i] = d, j
                else:
                    d = dist[i]
                if d < lowest or (d == lowest and gt_of[i] < 0):
                    lowest, nearest = d, i
            unreached.remove(nearest)
            reached.append(nearest)
            reach, j = lowest, gt_of[nearest]
        u[start] += reach
        for j in visited[1:]:
            u[j] += reach - dist[slot_of[j]]
        for i in reached:
            v[i] -= reach - dist[i]
        i = nearest
        while i >= 0:  # flip the path back to `start`, whose slot was -1
            j = came_from[i]
            gt_of[i], slot_of[j], i = j, i, slot_of[j]
    return slot_of


def hungarian_match(cost: np.ndarray) -> list[tuple[int, int]]:
    """Minimum-total-cost assignment of every gt column to a distinct slot row,
    as (slot, gt) pairs in gt order. One `_assign` solve; among equal-total
    assignments its own deterministic pick is returned."""
    cost = np.asarray(cost, dtype=np.float64)
    if cost.ndim != 2:
        raise ShapeError(f"cost matrix must be 2-D, got shape {cost.shape}")
    if not np.all(np.isfinite(cost)):
        raise ValueError("cost matrix contains non-finite values")
    n_slots, n_gt = cost.shape
    if n_gt > n_slots:
        raise ValueError(f"{n_gt} objects exceed {n_slots} slots")
    return [(i, j) for j, i in enumerate(_assign(cost))]


def _validate_boxes(boxes: np.ndarray, name: str, reject_degenerate: bool) -> np.ndarray:
    boxes = np.asarray(boxes, dtype=np.float64)
    if boxes.ndim != 2 or boxes.shape[1] != 4:
        raise ShapeError(f"{name}: expected (n,4) cxcywh boxes, got {boxes.shape}")
    if reject_degenerate and boxes.shape[0] and (boxes[:, 2:] <= 0).any():
        raise ValueError(f"{name}: degenerate box with non-positive extent")
    return boxes


def _corners(boxes: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(lo, hi) corners of cxcywh boxes; their last axis holds x then y."""
    half = boxes[..., 2:] / 2
    return boxes[..., :2] - half, boxes[..., :2] + half


def _overlap(pred: np.ndarray, gt: np.ndarray) -> tuple[np.ndarray, ...]:
    """(side, span, inter, union, hull) of cxcywh boxes whose leading axes
    broadcast: (n, 1, 4) against (m, 4) pairs every row with every row, and
    (n, 4) against (n, 4) pairs row i with row i. `side` and `span` are the
    x and y extents of the intersection (negative when apart) and of the hull."""
    (p_lo, p_hi), (g_lo, g_hi) = _corners(pred), _corners(gt)
    side = np.minimum(p_hi, g_hi) - np.maximum(p_lo, g_lo)
    span = np.maximum(p_hi, g_hi) - np.minimum(p_lo, g_lo)
    inter = np.maximum(side[..., 0], 0.0) * np.maximum(side[..., 1], 0.0)
    ext_p, ext_g = p_hi - p_lo, g_hi - g_lo
    union = ext_p[..., 0] * ext_p[..., 1] + ext_g[..., 0] * ext_g[..., 1] - inter
    return side, span, inter, union, span[..., 0] * span[..., 1]


def giou_matrix(pred: np.ndarray, gt: np.ndarray) -> np.ndarray:
    """Pairwise generalized IoU for cxcywh boxes, values in (-1, 1]."""
    pred = _validate_boxes(pred, "pred boxes", reject_degenerate=False)
    gt = _validate_boxes(gt, "gt boxes", reject_degenerate=True)
    _, _, inter, union, hull = _overlap(pred[:, None], gt)
    return inter / union - (hull - union) / hull


def iou_pairs(pred: np.ndarray, gt: np.ndarray) -> np.ndarray:
    """Row-wise IoU of matched (n, 4) cxcywh rows, (n,): row i pairs pred[i]
    with gt[i]."""
    if pred.shape != gt.shape or pred.ndim != 2 or pred.shape[1] != 4:
        raise ShapeError(f"iou_pairs: shapes {pred.shape} vs {gt.shape}")
    _, _, inter, union, _ = _overlap(pred, gt)
    return inter / union


def box_cost(pred: np.ndarray, gt: np.ndarray, l1_weight: float,
             giou_weight: float) -> np.ndarray:
    """Assignment cost mirroring the box loss: weighted L1 plus (1 - GIoU).
    `giou_matrix` validates both box arrays."""
    giou = giou_matrix(pred, gt)
    pred, gt = np.asarray(pred, dtype=np.float64), np.asarray(gt, dtype=np.float64)
    l1 = np.abs(pred[:, None, :] - gt[None, :, :]).sum(axis=2)
    return l1_weight * l1 + giou_weight * (1.0 - giou)


def giou_pairs(pred: Tensor, gt: np.ndarray) -> Tensor:
    """Row-wise GIoU between matched prediction rows and constant gt rows, (n, 1).

    One tape entry: the arithmetic of `giou_matrix`, row by row, and its chain
    rule. Where a predicted edge ties the gt edge, the prediction gets the
    gradient of the max (the intersection's low edge, the hull's high edge),
    not of the min.
    """
    gt = np.asarray(gt, dtype=np.float64)
    if pred.shape != gt.shape or pred.data.ndim != 2 or pred.shape[1] != 4:
        raise ShapeError(f"giou_pairs: shapes {pred.shape} vs {gt.shape}")
    with T.quiet():
        side, span, inter, union, hull = _overlap(pred.data, gt)
        out = (inter / union - (hull - union) / hull)[:, None]

    def backward(g):
        g = g[:, 0]
        g_union = g / hull - g * inter / (union * union)
        g_inter = g / union - g_union
        g_hull = -g * union / (hull * hull)
        (lo, hi), (gt_lo, gt_hi) = _corners(pred.data), _corners(gt)
        # each extent's gradient is the other axis's factor of its product
        g_side = g_inter[:, None] * np.maximum(side[:, ::-1], 0.0) * (side > 0)
        g_span = g_hull[:, None] * span[:, ::-1]
        g_ext = g_union[:, None] * (hi - lo)[:, ::-1]
        g_hi = np.where(hi < gt_hi, g_side, g_span) + g_ext
        g_lo = -np.where(lo < gt_lo, g_span, g_side) - g_ext
        return (np.concatenate([g_lo + g_hi, (g_hi - g_lo) / 2], axis=1),)

    return T.primitive(out, (pred,), backward, "giou_pairs")


@dataclass
class FrameTargets:
    """Per-frame supervision extracted from an annotation record."""

    boxes: np.ndarray        # (n_gt, 4) cxcywh, validated non-degenerate
    grid_masks: np.ndarray   # (n_gt, cells) binary, patch-grid resolution
    relevance: np.ndarray    # (n_gt,) 0/1
    instance_ids: list[str]


def match_frame(boxes: np.ndarray, targets: FrameTargets,
                cfg: RunConfig) -> list[tuple[int, int]]:
    """(slot, gt) pairs assigning one frame's gt objects to its slots, from
    the predicted boxes (one row per slot)."""
    if targets.boxes.shape[0] == 0:
        return []
    return hungarian_match(box_cost(boxes, targets.boxes, cfg.cost_l1, cfg.cost_giou))


def slot_attn_loss(preds: SlotPredictions, targets: Sequence[FrameTargets],
                   matches: Sequence[list[tuple[int, int]]],
                   cfg: RunConfig) -> tuple[Tensor, dict[str, float]]:
    """Box + objectness + mask supervision under fixed matches, for a group of
    frames whose slot predictions are stacked as equal row blocks, one per
    frame. Every term is the sum over frames of that frame's mean; the
    matched rows of all frames are gathered once, and per-row weights keep
    each frame's mean its own. A group of one frame is that frame's loss."""
    n_frames = len(targets)
    n_slots = preds.boxes.shape[0] // n_frames
    obj_target = np.zeros((preds.boxes.shape[0], 1))
    rows: list[int] = []
    frame_pairs: list[int] = []  # for each matched row, its frame's pair count
    gt_boxes, gt_masks = [], []
    for f, (frame, pairs) in enumerate(zip(targets, matches)):
        rows += [f * n_slots + s for s, _ in pairs]
        frame_pairs += [len(pairs)] * len(pairs)
        gt_idx = [g for _, g in pairs]
        gt_boxes.append(frame.boxes[gt_idx])
        gt_masks.append(frame.grid_masks[gt_idx])
    obj_target[rows, 0] = 1.0
    # bce_logits averages over every row; weighting each by the frame count
    # makes that the sum of the per-frame means
    loss_obj = T.bce_logits(preds.objectness, obj_target,
                            np.full(obj_target.shape, float(n_frames)))
    if rows:
        # a mean over all pairs, each pair weighted by (pairs / its frame's
        # pairs), is the sum over frames of the per-frame means
        pair_scale = len(rows) / np.array(frame_pairs, dtype=np.float64)
        pred_rows = T.gather_rows(preds.boxes, rows)
        gt_rows = np.concatenate(gt_boxes)
        l1 = T.mean(T.mul(T.sum_(T.abs_(T.sub(pred_rows, Tensor(gt_rows))), axis=1),
                          pair_scale))
        giou_term = T.mean(T.mul(T.sub(1.0, giou_pairs(pred_rows, gt_rows)),
                                 pair_scale[:, None]))
        loss_box = T.add(T.mul(l1, cfg.cost_l1), T.mul(giou_term, cfg.cost_giou))
        mask_rows = T.gather_rows(preds.mask_logits, rows)
        masks = np.concatenate(gt_masks)
        if mask_rows.shape != masks.shape:
            raise ShapeError(
                f"mask resolution mismatch: predicted {mask_rows.shape}, "
                f"target {masks.shape}")
        loss_seg = T.bce_logits(mask_rows, masks,
                                np.broadcast_to(pair_scale[:, None], masks.shape))
    else:
        loss_box = Tensor(0.0)
        loss_seg = Tensor(0.0)
    total = T.add(T.add(T.mul(loss_box, cfg.lambda_box), T.mul(loss_obj, cfg.lambda_obj)),
                  T.mul(loss_seg, cfg.lambda_seg))
    parts = {"box": loss_box.item(), "obj": loss_obj.item(), "seg": loss_seg.item()}
    return total, parts


def slot_relevance_labels(pairs: list[tuple[int, int]], gt_relevance: np.ndarray,
                          n_slots: int) -> np.ndarray:
    """Each slot inherits the relevance flag of its matched object, else 0."""
    labels = np.zeros(n_slots)
    for s, g in pairs:
        labels[s] = float(gt_relevance[g])
    return labels


def relevance_loss(logits: Tensor, labels: np.ndarray, w_pos: float,
                   w_neg: float, groups: int = 1) -> Tensor:
    """Class-weighted BCE on relevance logits: the mean over each frame's
    slots, summed over the `groups` frames stacked as equal row blocks."""
    labels = np.asarray(labels, dtype=np.float64).reshape(logits.shape)
    weights = np.where(labels > 0.5, w_pos, w_neg) * groups
    return T.bce_logits(logits, labels, weights)


def cosine_rows(x: Tensor) -> Tensor:
    sq = T.sum_(T.mul(x, x), axis=1, keepdims=True)
    return T.div(x, T.sqrt(T.add(sq, 1e-12)))


def track_loss(embeddings: Tensor, labels: np.ndarray, frames: np.ndarray,
               tau: float, window: int) -> tuple[Tensor, int, int]:
    """Multi-positive contrastive loss over slot embeddings.

    Positives share an instance label within `window` frames; negatives carry
    a different label (unmatched rows, label -1, are negatives only). Anchors
    without positives are skipped and counted. Returns (loss, anchors, skipped).

    After the cosine-similarity graph, the mean over anchors of
    lse(all pairs) - lse(positives) is one tape entry: both log-sum-exps run
    at once on the anchor rows, masked to their entries.
    """
    labels = np.asarray(labels)
    frames = np.asarray(frames)
    n = embeddings.shape[0]
    if labels.shape != (n,) or frames.shape != (n,):
        raise ShapeError(f"track_loss: {n} embeddings, {labels.shape} labels, "
                         f"{frames.shape} frames")
    same = labels[:, None] == labels[None, :]
    near = np.abs(frames[:, None] - frames[None, :]) <= window
    pos = same & near & (frames[:, None] != frames[None, :])
    candidates = labels >= 0
    has_pos = pos.any(axis=1)
    anchors = np.flatnonzero(candidates & has_pos)
    skipped = int(np.count_nonzero(candidates & ~has_pos))
    if not anchors.size:
        return Tensor(0.0), 0, skipped
    unit = cosine_rows(embeddings)
    sims = T.mul(T.matmul(unit, T.transpose(unit)), 1.0 / tau)
    rows = sims.data[anchors]
    # each anchor row's entries in lse(all pairs), then in lse(positives)
    masks = np.stack([pos[anchors] | ~same[anchors], pos[anchors]])
    peak = np.where(masks, rows, -np.inf).max(axis=2, keepdims=True)
    lse = peak + np.log(np.exp(np.where(masks, rows - peak, -np.inf))
                        .sum(axis=2, keepdims=True))
    soft = np.exp(np.where(masks, rows - lse, -np.inf))
    scale = 1.0 / anchors.size

    def backward(g):
        grad = np.zeros_like(sims.data)
        grad[anchors] = (g * scale) * (soft[0] - soft[1])
        return (grad,)

    loss = T.primitive((lse[0] - lse[1]).sum() * scale, (sims,), backward, "track_loss")
    return loss, int(anchors.size), skipped


class TrackProjection:
    """Optional linear head applied to slots before the similarity (d -> d/2)."""

    def __init__(self, rng: np.random.Generator, width: int):
        self.w = param(rng, width, max(width // 2, 1))

    def params(self) -> ParamGroup:
        return ParamGroup().collect("track_proj", self)

    def __call__(self, x: Tensor) -> Tensor:
        return T.matmul(x, self.w)


def stage1_total(slot_attn: Tensor, track: Tensor, relevance: Tensor,
                 cfg: RunConfig) -> Tensor:
    return T.add(T.add(T.mul(slot_attn, cfg.lambda_slot_attn),
                       T.mul(track, cfg.lambda_track)),
                 T.mul(relevance, cfg.lambda_int))


def action_ce(logits: Tensor, labels: np.ndarray) -> Tensor:
    """Mean over steps of the cross-entropy between logit rows and label bins."""
    return T.cross_entropy(logits, labels)
