"""Matching and loss contracts, checked against independent oracles."""

import itertools

import numpy as np
import pytest
from scipy.optimize import linear_sum_assignment

import slotforge.tensor as T
from slotforge import losses
from slotforge.config import ConfigError, RunConfig
from slotforge.losses import (FrameTargets, MatchAssignment, action_ce,
                              box_cost, giou_matrix, giou_pairs, hungarian_match,
                              relevance_loss, slot_attn_loss, slot_relevance_labels,
                              stage1_total, track_loss)
from slotforge.slots import SlotPredictions
from slotforge.tensor import Tensor
from test_tensor import assert_all_close


def brute_force_assignment(cost: np.ndarray) -> float:
    """Minimum total over every injection of gt columns into slot rows."""
    n_slots, n_gt = cost.shape
    best = np.inf
    for rows in itertools.permutations(range(n_slots), n_gt):
        best = min(best, sum(cost[r, c] for c, r in enumerate(rows)))
    return best


def random_boxes(rng, n):
    cx = rng.uniform(0.2, 0.8, n)
    cy = rng.uniform(0.2, 0.8, n)
    w = rng.uniform(0.05, 0.35, n)
    h = rng.uniform(0.05, 0.35, n)
    return np.stack([cx, cy, w, h], axis=1)


def rasterized_giou(box_a, box_b, res=256):
    """Pixel-counting GIoU oracle on a res x res raster."""
    def rasterize(b):
        x0, y0 = b[0] - b[2] / 2, b[1] - b[3] / 2
        x1, y1 = b[0] + b[2] / 2, b[1] + b[3] / 2
        ys, xs = np.mgrid[0:res, 0:res]
        cx = (xs + 0.5) / res
        cy = (ys + 0.5) / res
        return (cx >= x0) & (cx <= x1) & (cy >= y0) & (cy <= y1)

    a, b = rasterize(box_a), rasterize(box_b)
    inter = (a & b).sum()
    union = (a | b).sum()
    both = a | b
    ys, xs = np.nonzero(both)
    hull = (ys.max() - ys.min() + 1) * (xs.max() - xs.min() + 1)
    return inter / union - (hull - union) / hull


def total_cost(cost: np.ndarray, match: MatchAssignment) -> float:
    return float(sum(cost[i, j] for i, j in match.pairs))


def unmatched_slots(n_slots: int, match: MatchAssignment) -> list[int]:
    return sorted(set(range(n_slots)) - {i for i, _ in match.pairs})


def refined_match(cost: np.ndarray) -> MatchAssignment:
    """The lexicographic refinement alone: every column takes the lowest slot
    that still permits a completion within tol of the optimum."""
    def optimal(c):
        if c.shape[1] == 0:
            return 0.0
        rows, cols = linear_sum_assignment(c)
        return float(c[rows, cols].sum())

    best = optimal(cost)
    tol = 1e-12 * max(1.0, abs(best))
    pairs, free, spent = [], list(range(cost.shape[0])), 0.0
    for j in range(cost.shape[1]):
        for pos, i in enumerate(free):
            sub = np.delete(cost[:, j + 1:][free], pos, axis=0)
            if spent + cost[i, j] + optimal(sub) <= best + tol:
                pairs.append((i, j))
                spent += cost[i, j]
                free.pop(pos)
                break
    return MatchAssignment(pairs)


class TestHungarian:
    def test_two_by_two_enumerated(self):
        cost = np.array([[1.0, 2.0], [2.0, 1.0]])
        match = hungarian_match(cost)
        assert match.pairs == [(0, 0), (1, 1)]
        assert total_cost(cost, match) == pytest.approx(2.0)

    def test_dominant_zero_cell_always_selected(self):
        cost = np.array([[5.0, 9.0], [0.0, 7.0], [6.0, 8.0]])
        match = hungarian_match(cost)
        assert (1, 0) in match.pairs

    def test_matches_brute_force_on_random_rectangles(self):
        rng = np.random.default_rng(0)
        for _ in range(100):
            n_slots = int(rng.integers(5, 9))
            n_gt = int(rng.integers(1, min(n_slots, 6) + 1))
            cost = rng.uniform(0, 10, size=(n_slots, n_gt))
            match = hungarian_match(cost)
            assert len(match.pairs) == n_gt
            assert total_cost(cost, match) == pytest.approx(brute_force_assignment(cost))

    def test_lexicographic_tie_break(self):
        # both diagonals cost 5; lexicographic order prefers (0,0),(1,1)
        match = hungarian_match(np.array([[1.0, 2.0], [3.0, 4.0]]))
        assert match.pairs == [(0, 0), (1, 1)]

    def test_scale_invariance_of_pair_set(self):
        rng = np.random.default_rng(1)
        cost = rng.uniform(0, 3, size=(6, 4))
        base = hungarian_match(cost).pairs
        for c in (0.5, 2.0, 17.0):
            assert hungarian_match(c * cost).pairs == base

    def test_more_objects_than_slots_rejected(self):
        with pytest.raises(ValueError):
            hungarian_match(np.zeros((2, 3)))

    def test_unmatched_slots_reported(self):
        match = hungarian_match(np.array([[1.0], [0.0], [2.0]]))
        assert match.pairs == [(1, 0)]
        assert unmatched_slots(3, match) == [0, 2]

    @pytest.mark.parametrize("n_slots,n_gt", [(16, 7), (24, 13), (32, 30), (5, 5), (4, 0)])
    @pytest.mark.parametrize("kind", ["uniform", "integer", "equal", "box"])
    def test_same_result_as_the_refinement(self, n_slots, n_gt, kind):
        rng = np.random.default_rng(n_slots * 100 + n_gt)
        for _ in range(3):
            cost = {
                "uniform": lambda: rng.uniform(0, 10, (n_slots, n_gt)),
                "integer": lambda: rng.integers(0, 3, (n_slots, n_gt)).astype(float),
                "equal": lambda: np.full((n_slots, n_gt), 0.7),
                "box": lambda: box_cost(random_boxes(rng, n_slots), random_boxes(rng, n_gt)),
            }[kind]()
            fast, oracle = hungarian_match(cost), refined_match(cost)
            assert fast.pairs == oracle.pairs
            assert all(type(i) is int and type(j) is int for i, j in fast.pairs)
            assert unmatched_slots(n_slots, fast) == unmatched_slots(n_slots, oracle)
            assert total_cost(cost, fast).hex() == total_cost(cost, oracle).hex()

    @pytest.mark.parametrize("gap, pairs", [(0.2, [(0, 0), (1, 1)]), (0.9, [(0, 0), (1, 1)]),
                                            (1.5, [(1, 0), (0, 1)]), (3.0, [(1, 0), (0, 1)])])
    def test_near_ties_around_the_guard_band(self, gap, pairs):
        # the diagonal costs gap·tol more than the optimal anti-diagonal; within
        # tol the lexicographically smaller diagonal is returned
        tol = 1e-12 * 2.0
        cost = np.array([[1.0, 1.0], [1.0, 1.0 + gap * tol]])
        assert hungarian_match(cost).pairs == refined_match(cost).pairs == pairs


def graph_giou_pairs(pred, gt):
    """The former giou_pairs: relu min/max and column slices, 53 tape ops."""
    def minimum(a, b):
        return T.sub(b, T.relu(T.sub(b, a)))

    def maximum(a, b):
        return T.add(a, T.relu(T.sub(b, a)))

    def corners(boxes):
        cx, cy, w, h = (T.slice_cols(boxes, k, k + 1) for k in range(4))
        return (T.sub(cx, T.mul(w, 0.5)), T.sub(cy, T.mul(h, 0.5)),
                T.add(cx, T.mul(w, 0.5)), T.add(cy, T.mul(h, 0.5)))

    px0, py0, px1, py1 = corners(pred)
    gx0, gy0, gx1, gy1 = corners(Tensor(gt))
    iw = T.relu(T.sub(minimum(px1, gx1), maximum(px0, gx0)))
    ih = T.relu(T.sub(minimum(py1, gy1), maximum(py0, gy0)))
    inter = T.mul(iw, ih)
    area_p = T.mul(T.sub(px1, px0), T.sub(py1, py0))
    area_g = T.mul(T.sub(gx1, gx0), T.sub(gy1, gy0))
    union = T.sub(T.add(area_p, area_g), inter)
    hull = T.mul(T.sub(maximum(px1, gx1), minimum(px0, gx0)),
                 T.sub(maximum(py1, gy1), minimum(py0, gy0)))
    return T.sub(T.div(inter, union), T.div(T.sub(hull, union), hull))


def graph_track_loss(embeddings, labels, frames, tau=0.1, window=2):
    """The former track_loss: about ten tape ops per anchor."""
    unit = losses.cosine_rows(embeddings)
    sims = T.mul(T.matmul(unit, T.transpose(unit)), 1.0 / tau)
    per_anchor, skipped = [], 0
    for a in range(embeddings.shape[0]):
        if labels[a] < 0:
            continue
        same = labels == labels[a]
        pos = same & (np.abs(frames - frames[a]) <= window) & (frames != frames[a])
        if not pos.any():
            skipped += 1
            continue
        row = T.transpose(T.gather_rows(sims, [a]))
        lse_pos = T.logsumexp_rows(T.transpose(T.gather_rows(row, np.flatnonzero(pos))))
        lse_all = T.logsumexp_rows(
            T.transpose(T.gather_rows(row, np.flatnonzero(pos | ~same))))
        per_anchor.append(T.sub(lse_all, lse_pos))
    if not per_anchor:
        return Tensor(0.0), 0, skipped
    return (T.mul(T.sum_(T.add_all(per_anchor)), 1.0 / len(per_anchor)),
            len(per_anchor), skipped)


def outputs_and_grads(build, data, weight):
    """build(*leaves)'s value and each leaf's gradient after backward from
    sum(value · weight)."""
    leaves = [Tensor(x, requires_grad=True) for x in data]
    with T.fresh_tape() as tape:
        out = build(*leaves)
        tape.backward(T.sum_(T.mul(out, weight)))
    return [out.data] + [t.grad for t in leaves]


GIOU_CASES = {
    # (pred, gt) in cxcywh
    "overlapping": (np.array([[0.5, 0.5, 0.3, 0.2], [0.3, 0.6, 0.2, 0.25]]),
                    np.array([[0.55, 0.45, 0.25, 0.32], [0.35, 0.55, 0.2, 0.2]])),
    "disjoint": (np.array([[0.2, 0.2, 0.1, 0.1], [0.8, 0.3, 0.1, 0.2]]),
                 np.array([[0.7, 0.8, 0.2, 0.1], [0.2, 0.7, 0.1, 0.1]])),
    "contained": (np.array([[0.5, 0.5, 0.1, 0.1], [0.4, 0.4, 0.5, 0.5]]),
                  np.array([[0.5, 0.5, 0.4, 0.3], [0.45, 0.4, 0.1, 0.2]])),
    "one row": (np.array([[0.41, 0.37, 0.22, 0.3]]), np.array([[0.5, 0.4, 0.2, 0.2]])),
    # identical boxes, then a shared left and bottom edge (x0 and y1 equal)
    "shared edges": (np.array([[0.5, 0.5, 0.2, 0.2], [0.35, 0.45, 0.1, 0.3]]),
                     np.array([[0.5, 0.5, 0.2, 0.2], [0.4, 0.5, 0.2, 0.2]])),
}


class TestGiouPairsOp:
    @pytest.mark.parametrize("case", sorted(GIOU_CASES))
    @pytest.mark.parametrize("signs", ["positive", "mixed"])
    def test_bitwise_equal_to_the_graph(self, case, signs):
        pred, gt = GIOU_CASES[case]
        weight = np.linspace(1.0, 2.0, len(pred))[:, None]
        if signs == "mixed":  # a -0.0 and a negative upstream gradient
            weight = weight * np.array([[-0.0], [-1.0]])[:len(pred)]
        results = [outputs_and_grads(lambda p, f=f: f(p, gt), [pred], Tensor(weight))
                   for f in (graph_giou_pairs, giou_pairs)]
        assert_all_close(results[1], results[0])

    def test_bitwise_on_random_rows(self):
        # corners spread over the whole unit square, so the graph's
        # b - relu(b - a) often differs from min(a, b) in the last bit
        rng = np.random.default_rng(11)

        def boxes(n):
            return np.concatenate([rng.uniform(0.0, 1.0, (n, 2)),
                                   rng.uniform(0.01, 0.6, (n, 2))], axis=1)

        pred, gt = boxes(500), boxes(500)
        weight = Tensor(rng.standard_normal((500, 1)))
        assert_all_close(outputs_and_grads(lambda p: giou_pairs(p, gt), [pred], weight),
                         outputs_and_grads(lambda p: graph_giou_pairs(p, gt), [pred], weight))

    @pytest.mark.parametrize("case", ["overlapping", "disjoint", "contained"])
    def test_gradient_vs_finite_differences(self, case):
        pred, gt = GIOU_CASES[case]
        x = Tensor(pred.copy(), requires_grad=True)
        weight = Tensor(np.linspace(-1.0, 2.0, len(pred))[:, None])
        err = T.finite_diff_check(lambda: T.sum_(T.mul(giou_pairs(x, gt), weight)), [x])
        assert err <= 1e-4

    def test_one_tape_entry(self):
        pred, gt = GIOU_CASES["overlapping"]
        with T.fresh_tape() as tape:
            giou_pairs(Tensor(pred, requires_grad=True), gt)
        assert len(tape) == 1

    def test_shape_mismatch_rejected(self):
        with pytest.raises(T.ShapeError):
            giou_pairs(Tensor(np.zeros((2, 4))), np.zeros((3, 4)))


class TestBoxGeometry:
    def test_identical_boxes(self):
        b = np.array([[0.5, 0.5, 0.2, 0.3]])
        assert giou_matrix(b, b)[0, 0] == pytest.approx(1.0)
        assert box_cost(b, b)[0, 0] == pytest.approx(0.0)

    def test_disjoint_boxes_negative_giou(self):
        a = np.array([[0.2, 0.5, 0.1, 0.1]])
        b = np.array([[0.8, 0.5, 0.1, 0.1]])
        assert giou_matrix(a, b)[0, 0] < 0.0

    def test_giou_against_rasterization_oracle(self):
        rng = np.random.default_rng(2)
        for _ in range(40):
            a = random_boxes(rng, 1)[0]
            b = random_boxes(rng, 1)[0]
            analytic = giou_matrix(a[None], b[None])[0, 0]
            assert abs(analytic - rasterized_giou(a, b)) <= 2e-2

    def test_degenerate_gt_rejected(self):
        good = np.array([[0.5, 0.5, 0.2, 0.2]])
        bad = np.array([[0.5, 0.5, 0.0, 0.2]])
        with pytest.raises(ValueError):
            box_cost(good, bad)

    def test_giou_pairs_matches_matrix_diagonal(self):
        rng = np.random.default_rng(3)
        pred = random_boxes(rng, 5)
        gt = random_boxes(rng, 5)
        on_tape = giou_pairs(Tensor(pred), gt).data.reshape(-1)
        assert np.allclose(on_tape, np.diag(giou_matrix(pred, gt)), atol=1e-12)


def make_preds(rng, n_slots, cells, boxes=None, objectness=None, masks=None):
    return SlotPredictions(
        boxes=Tensor(boxes if boxes is not None else random_boxes(rng, n_slots),
                     requires_grad=True),
        objectness=Tensor(objectness if objectness is not None
                          else rng.standard_normal((n_slots, 1)), requires_grad=True),
        mask_logits=Tensor(masks if masks is not None
                           else rng.standard_normal((n_slots, cells)), requires_grad=True),
    )


def make_targets(rng, n_gt, cells):
    return FrameTargets(
        boxes=random_boxes(rng, n_gt),
        grid_masks=(rng.uniform(size=(n_gt, cells)) > 0.7).astype(float),
        relevance=rng.integers(0, 2, size=n_gt).astype(float),
        instance_ids=[f"obj{i}" for i in range(n_gt)],
    )


class TestSlotAttnLoss:
    def test_perfect_predictions_drive_all_terms_to_zero(self):
        rng = np.random.default_rng(4)
        cells = 16
        targets = make_targets(rng, 3, cells)
        boxes = np.concatenate([targets.boxes, random_boxes(rng, 2)])
        objectness = np.full((5, 1), -50.0)
        objectness[:3] = 50.0
        masks = np.where(np.concatenate([targets.grid_masks,
                                         np.zeros((2, cells))]) > 0.5, 50.0, -50.0)
        preds = make_preds(rng, 5, cells, boxes=boxes, objectness=objectness, masks=masks)
        match = MatchAssignment([(0, 0), (1, 1), (2, 2)])
        total, parts = slot_attn_loss(preds, [targets], [match], RunConfig())
        assert parts["box"] == pytest.approx(0.0, abs=1e-9)
        assert parts["obj"] == pytest.approx(0.0, abs=1e-3)
        assert parts["seg"] == pytest.approx(0.0, abs=1e-3)

    def test_empty_scene_reduces_to_objectness(self):
        rng = np.random.default_rng(5)
        preds = make_preds(rng, 4, 16)
        targets = FrameTargets(boxes=np.zeros((0, 4)), grid_masks=np.zeros((0, 16)),
                               relevance=np.zeros(0), instance_ids=[])
        match = MatchAssignment([])
        cfg = RunConfig()
        total, parts = slot_attn_loss(preds, [targets], [match], cfg)
        assert parts["box"] == 0.0 and parts["seg"] == 0.0
        expected = T.bce_logits(preds.objectness, np.zeros((4, 1))).item()
        assert total.item() == pytest.approx(cfg.lambda_obj * expected)

    def test_gradient_through_full_loss(self):
        rng = np.random.default_rng(6)
        cells = 9
        targets = make_targets(rng, 2, cells)
        preds = make_preds(rng, 4, cells)
        match = losses.match_frame(preds.boxes.data, targets, RunConfig())

        def f():
            return slot_attn_loss(preds, [targets], [match], RunConfig())[0]

        err = T.finite_diff_check(f, [preds.boxes, preds.objectness, preds.mask_logits])
        assert err <= 1e-4


class TestTrackLoss:
    def test_equal_similarity_closed_form(self):
        # identical embeddings: all pairwise sims equal; loss = -log(|P|/(|P|+|N|))
        emb = Tensor(np.tile([[1.0, 0.0, 0.0]], (6, 1)))
        labels = np.array([0, 0, 0, 1, 1, 1])
        frames = np.array([0, 1, 2, 0, 1, 2])
        loss, anchors, skipped = track_loss(emb, labels, frames, tau=0.5, window=2)
        assert anchors == 6 and skipped == 0
        assert loss.item() == pytest.approx(-np.log(2 / 5), rel=1e-12)

    def test_separation_limit_drives_loss_to_zero(self):
        emb = Tensor(np.array([[1.0, 0.0], [1.0, 0.0], [-1.0, 0.0], [-1.0, 0.0]]))
        labels = np.array([0, 0, 1, 1])
        frames = np.array([0, 1, 0, 1])
        loss, _, _ = track_loss(emb, labels, frames, tau=0.1, window=2)
        assert loss.item() == pytest.approx(0.0, abs=1e-8)

    def test_anchor_without_positive_skipped_not_nan(self):
        emb = Tensor(np.eye(3))
        labels = np.array([0, 1, 2])
        frames = np.array([0, 0, 0])
        loss, anchors, skipped = track_loss(emb, labels, frames)
        assert anchors == 0 and skipped == 3
        assert loss.item() == 0.0

    def test_window_excludes_far_positives_from_denominator(self):
        emb = Tensor(np.tile([[0.0, 1.0]], (3, 1)))
        labels = np.array([0, 0, 0])
        frames = np.array([0, 1, 10])
        # anchor 2 has no positive within the window; anchors 0/1 see one
        # positive each and no negatives, so their loss is exactly 0
        loss, anchors, skipped = track_loss(emb, labels, frames, window=2)
        assert anchors == 2 and skipped == 1
        assert loss.item() == pytest.approx(0.0, abs=1e-12)

    def test_monotone_in_positive_similarity(self):
        def loss_at(p_sim):
            emb = Tensor(np.array([
                [1.0, 0.0], [np.cos(np.arccos(p_sim)), np.sin(np.arccos(p_sim))],
                [-1.0, 0.3], [-0.9, -0.4]]), requires_grad=False)
            labels = np.array([0, 0, 1, 2])
            frames = np.array([0, 1, 0, 1])
            return track_loss(emb, labels, frames, tau=0.2)[0].item()

        values = [loss_at(s) for s in (0.1, 0.4, 0.7, 0.95)]
        assert all(a > b for a, b in zip(values, values[1:]))

    def test_gradient(self):
        rng = np.random.default_rng(7)
        emb = Tensor(rng.standard_normal((6, 4)), requires_grad=True)
        labels = np.array([0, 0, 1, 1, -1, 2])
        frames = np.array([0, 1, 0, 1, 0, 1])
        err = T.finite_diff_check(lambda: track_loss(emb, labels, frames)[0], [emb])
        assert err <= 1e-4


TRACK_CASES = {
    # name: (labels, frames, anchors, skipped); three frames of three slots
    "labeled": ([0, 1, 2, 0, 1, 2, 0, 1, 2], [0, 0, 0, 1, 1, 1, 2, 2, 2], 9, 0),
    # unmatched rows (-1) are negatives only
    "unlabeled rows": ([0, -1, 1, 0, -1, 1, -1, 0, 2], [0, 0, 0, 1, 1, 1, 2, 2, 2], 5, 1),
    # instances 2 and 3 have no partner within the window
    "skipped anchors": ([0, 2, 1, 0, 1, 3, 0, 1, 2], [0, 0, 0, 1, 1, 1, 2, 2, 9], 6, 3),
    # positives are symmetric, so the fewest anchors is one pair: rows 0 and 1
    "one positive pair": ([0, 0, -1, 1, 2, -1, 3, 4, 5], [0, 1, 0, 1, 0, 1, 0, 1, 0], 2, 5),
}


class TestTrackLossOp:
    @pytest.mark.parametrize("case", sorted(TRACK_CASES))
    @pytest.mark.parametrize("upstream", [0.5, -2.0, -0.0])
    def test_bitwise_equal_to_the_graph(self, case, upstream):
        labels, frames = map(np.array, TRACK_CASES[case][:2])
        anchors, skipped = TRACK_CASES[case][2:]
        rng = np.random.default_rng(len(case))
        emb = rng.standard_normal((len(labels), 5))
        results = []
        for track in (graph_track_loss, track_loss):
            x = Tensor(emb, requires_grad=True)
            with T.fresh_tape() as tape:
                loss, *counts = track(x, labels, frames, tau=0.2)
                tape.backward(T.mul(loss, upstream))
            results.append(([loss.data, x.grad], tuple(counts)))
        assert_all_close(results[1][0], results[0][0])
        assert results[0][1] == results[1][1] == (anchors, skipped)

    @pytest.mark.parametrize("seed", range(10, 18))
    def test_bitwise_on_a_crowded_batch(self, seed):
        # three frames of 16 slots: dozens of anchors, so rounding in their sum shows
        rng = np.random.default_rng(seed)
        labels = rng.integers(-1, 7, 48)
        frames = np.repeat(np.arange(3), 16)
        emb = rng.standard_normal((48, 8))
        results = []
        for track in (graph_track_loss, track_loss):
            x = Tensor(emb, requires_grad=True)
            with T.fresh_tape() as tape:
                loss, *counts = track(x, labels, frames)
                tape.backward(loss)
            results.append(([loss.data, x.grad], tuple(counts)))
        assert_all_close(results[1][0], results[0][0])
        assert results[0][1] == results[1][1]
        assert results[1][1][0] > 30

    @pytest.mark.parametrize("case", sorted(TRACK_CASES))
    def test_gradient_vs_finite_differences(self, case):
        labels, frames = map(np.array, TRACK_CASES[case][:2])
        x = Tensor(np.random.default_rng(3).standard_normal((len(labels), 4)),
                   requires_grad=True)
        err = T.finite_diff_check(lambda: track_loss(x, labels, frames)[0], [x])
        assert err <= 1e-4

    def test_one_entry_after_the_similarity_graph(self):
        labels, frames = map(np.array, TRACK_CASES["labeled"][:2])
        x = Tensor(np.random.default_rng(4).standard_normal((9, 4)), requires_grad=True)
        with T.fresh_tape() as sims_tape:
            unit = losses.cosine_rows(x)
            T.mul(T.matmul(unit, T.transpose(unit)), 10.0)
        with T.fresh_tape() as tape:
            track_loss(x, labels, frames)
        assert len(tape) == len(sims_tape) + 1


class TestRelevanceLoss:
    def test_perfect_fit(self):
        logits = Tensor(np.array([[40.0], [-40.0]]))
        assert relevance_loss(logits, np.array([1.0, 0.0])).item() == pytest.approx(0.0, abs=1e-9)

    def test_single_slot_closed_form(self):
        logits = Tensor(np.array([[0.0]]))
        loss = relevance_loss(logits, np.array([1.0]), w_pos=2.0, w_neg=1.0)
        assert loss.item() == pytest.approx(2.0 * np.log(2.0), rel=1e-12)

    def test_default_weights_up_weight_positives(self):
        logits = Tensor(np.array([[0.0], [0.0]]))
        mixed = relevance_loss(logits, np.array([1.0, 0.0])).item()
        assert mixed == pytest.approx(1.5 * np.log(2.0), rel=1e-12)

    def test_gradient(self):
        rng = np.random.default_rng(8)
        logits = Tensor(rng.uniform(-2.0, 2.0, size=(5, 1)), requires_grad=True)
        labels = rng.integers(0, 2, size=(5,)).astype(float)
        err = T.finite_diff_check(lambda: relevance_loss(logits, labels), [logits])
        assert err <= 1e-4

    def test_labels_inherited_through_match(self):
        match = MatchAssignment([(2, 0), (0, 1)])
        labels = slot_relevance_labels(match, np.array([1.0, 0.0]), 4)
        assert labels.tolist() == [0.0, 0.0, 1.0, 0.0]


class TestStageTotals:
    def test_zero_weights_give_zero(self):
        cfg = RunConfig(lambda_slot_attn=0.0, lambda_track=0.0, lambda_int=0.0)
        total = stage1_total(Tensor(3.0), Tensor(4.0), Tensor(5.0), cfg)
        assert total.item() == 0.0

    def test_single_weight_isolates_component(self):
        cfg = RunConfig(lambda_slot_attn=0.0, lambda_track=2.0, lambda_int=0.0)
        total = stage1_total(Tensor(3.0), Tensor(4.0), Tensor(5.0), cfg)
        assert total.item() == pytest.approx(8.0)

    def test_stage1_gradient(self):
        a = Tensor(1.3, requires_grad=True)
        b = Tensor(0.7, requires_grad=True)
        c = Tensor(2.1, requires_grad=True)
        err = T.finite_diff_check(
            lambda: stage1_total(T.mul(a, a), T.mul(b, b), T.mul(c, c), RunConfig()),
            [a, b, c])
        assert err <= 1e-4

    def test_invalid_config_rejected(self):
        with pytest.raises(ConfigError, match="temperature must be positive, got 0.0"):
            RunConfig(tau=0.0)
        with pytest.raises(ConfigError, match="loss weights must be finite and non-negative"):
            RunConfig(lambda_box=-1.0)


class TestActionCE:
    def test_one_hot_match_is_zero(self):
        logits = np.full((3, 8), -50.0)
        labels = np.array([1, 4, 7])
        for i, k in enumerate(labels):
            logits[i, k] = 50.0
        assert action_ce(Tensor(logits), labels).item() == pytest.approx(0.0, abs=1e-9)

    def test_uniform_logits_give_steps_times_log_bins(self):
        logits = Tensor(np.zeros((5, 16)))
        assert action_ce(logits, np.zeros(5, dtype=int)).item() == pytest.approx(5 * np.log(16))

    def test_gradient(self):
        rng = np.random.default_rng(9)
        logits = Tensor(rng.standard_normal((4, 6)), requires_grad=True)
        labels = rng.integers(0, 6, size=4)
        err = T.finite_diff_check(lambda: action_ce(logits, labels), [logits])
        assert err <= 1e-4
