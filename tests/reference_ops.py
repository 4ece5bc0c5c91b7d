"""Ops and utilities that only the tests use, built on `T.primitive`.

The reference ops are the pieces of the unfused graphs that the tests compare
the package's fused and batched ops against (`add_all`, `softmax`, `tanh`,
`slice_cols`, ...).
`plain_layer_norm`, `plain_attention_heads`, `plain_linear`, `plain_relu`,
`plain_concat`, `plain_slot_softmax` and `plain_adaptive_step` are the package's hot kernels in
their plain form, one fresh array per step, which the rewritten kernels must
match byte for byte. `finite_diff_check` compares a graph's analytic
gradients against central differences. `scipy_hungarian_match` is the
package's former matcher: scipy's assignment, proved unique by
`optimum_is_unique`'s n_gt forbidden-edge solves, else refined by one solve
per candidate slot to the lexicographically smallest optimum. `iou_matrix`
is every pred box's IoU with every gt box, which `losses.iou_pairs` must
match over the matched pairs.
"""

import functools
from typing import Callable, Iterable, Sequence

import numpy as np
from scipy.optimize import linear_sum_assignment

import slotforge.tensor as T
from slotforge.losses import _overlap, _validate_boxes
from slotforge.tensor import ShapeError, Tensor


def add_all(terms: Sequence[Tensor]) -> Tensor:
    """Left-to-right sum ((t0 + t1) + t2) + ...; a zero scalar when empty."""
    return functools.reduce(T.add, terms) if terms else Tensor(0.0)


def neg(a: Tensor) -> Tensor:
    return T.primitive(-a.data, (a,), lambda g: (-g,), "neg")


def tanh(a: Tensor) -> Tensor:
    out = np.tanh(a.data)
    return T.primitive(out, (a,), lambda g: (g * (1.0 - out * out),), "tanh")


def clip_min(a: Tensor, lo: float) -> Tensor:
    return T.primitive(np.maximum(a.data, lo), (a,), lambda g: (g * (a.data >= lo),),
                       "clip_min")


def softmax(a: Tensor, axis: int = -1) -> Tensor:
    """Max-shifted softmax along `axis`; rows sum to 1 within 1e-12."""
    shifted = a.data - a.data.max(axis=axis, keepdims=True)
    e = np.exp(shifted)
    out = e / e.sum(axis=axis, keepdims=True)

    def backward(g):
        dot = (g * out).sum(axis=axis, keepdims=True)
        return ((g - dot) * out,)

    return T.primitive(out, (a,), backward, "softmax")


def slice_cols(a: Tensor, lo: int, hi: int) -> Tensor:
    def backward(g):
        full = np.zeros_like(a.data)
        full[:, lo:hi] = g
        return (full,)

    return T.primitive(a.data[:, lo:hi].copy(), (a,), backward, "slice_cols")


def logsumexp_rows(a: Tensor) -> Tensor:
    """Row-wise log-sum-exp of a rank-2 tensor, returned as (n,1)."""
    m = a.data.max(axis=1, keepdims=True)
    out = m + np.log(np.exp(a.data - m).sum(axis=1, keepdims=True))
    soft = np.exp(a.data - out)
    return T.primitive(out, (a,), lambda g: (g * soft,), "logsumexp")


def plain_layer_norm(a: Tensor, affine: tuple[Tensor, Tensor] | None = None) -> Tensor:
    """`T.layer_norm` with `mean`/`var` moments; every parent gets a gradient."""
    mu = a.data.mean(axis=1, keepdims=True)
    var = a.data.var(axis=1, keepdims=True)
    inv = 1.0 / np.sqrt(var + 1e-5)
    xhat = (a.data - mu) * inv
    parents, out = (a,), xhat
    if affine is not None:
        gain, bias = affine
        parents, out = (a, gain, bias), xhat * gain.data + bias.data

    def backward(g):
        gy = g if affine is None else g * gain.data
        m1 = gy.mean(axis=1, keepdims=True)
        m2 = (gy * xhat).mean(axis=1, keepdims=True)
        dx = (gy - m1 - xhat * m2) * inv
        return (dx,) if affine is None else (dx, (g * xhat).sum(axis=0), g.sum(axis=0))

    return T.primitive(out, parents, backward, "layer_norm")


def plain_attention_heads(q: Tensor, k: Tensor, v: Tensor, heads: int,
                          groups: int = 1) -> Tensor:
    """`T.attention_heads` with a fresh array per softmax step; q, k and v all
    get a gradient."""
    def split(x):
        rows, d = x.shape
        return np.ascontiguousarray(
            x.reshape(groups, rows // groups, heads, d // heads).transpose(0, 2, 1, 3))

    def merge(x):
        n_groups, n_heads, n, dh = x.shape
        return x.transpose(0, 2, 1, 3).reshape(n_groups * n, n_heads * dh)

    scale = 1.0 / np.sqrt(k.shape[1] // heads)
    qh, vh = split(q.data), split(v.data)
    kt = np.ascontiguousarray(split(k.data).swapaxes(2, 3))
    logits = (qh @ kt) * scale
    e = np.exp(logits - logits.max(axis=3, keepdims=True))
    weights = e / e.sum(axis=3, keepdims=True)

    def backward(g):
        gh = split(g)
        dw = gh @ vh.swapaxes(2, 3)
        dot = (dw * weights).sum(axis=3, keepdims=True)
        dlogits = ((dw - dot) * weights) * scale
        return (merge(dlogits @ kt.swapaxes(2, 3)),
                merge((qh.swapaxes(2, 3) @ dlogits).swapaxes(2, 3)),
                merge(weights.swapaxes(2, 3) @ gh))

    return T.primitive(merge(weights @ vh), (q, k, v), backward, "attention_heads")


def plain_linear(x: Tensor, w: Tensor, b: Tensor) -> Tensor:
    """x @ w + b with the bias added into a new array."""
    y = x.data @ w.data

    def backward(g):
        gy = T.unbroadcast(g, y.shape)
        return gy @ w.data.T, x.data.T @ gy, T.unbroadcast(g, b.shape)

    return T.primitive(y + b.data, (x, w, b), backward, "linear")


def plain_relu(a: Tensor) -> Tensor:
    return T.primitive(np.maximum(a.data, 0.0), (a,), lambda g: (g * (a.data > 0),), "relu")


def plain_concat(parts: Sequence[Tensor], axis: int = 0) -> Tensor:
    """`T.concat` whose backward copies each part's gradient out with `np.take`."""
    offsets = np.cumsum([0] + [p.shape[axis] for p in parts])

    def backward(g):
        return tuple(np.take(g, np.arange(lo, hi), axis=axis)
                     for lo, hi in zip(offsets, offsets[1:]))

    return T.primitive(np.concatenate([p.data for p in parts], axis=axis), parts,
                       backward, "concat")


def plain_slot_softmax(keys: np.ndarray, slots: np.ndarray, wq: np.ndarray,
                       groups: int) -> np.ndarray:
    """The attention map of `slot_attention`, (groups, tokens, slots): a softmax
    over slots of the scaled logits, with a fresh array per step."""
    d = slots.shape[1]
    queries = (slots @ wq).reshape(groups, -1, d)
    logits = (keys.reshape(groups, -1, d) @ queries.transpose(0, 2, 1)) * (1.0 / np.sqrt(d))
    e = np.exp(logits - logits.max(axis=2, keepdims=True))
    return e / e.sum(axis=2, keepdims=True)


def plain_adaptive_step(params: dict[str, np.ndarray], grads: dict[str, np.ndarray],
                        moments: dict[str, np.ndarray], lr: float, step_count: int,
                        clip_norm: float, beta: float, eps: float) -> None:
    """One `AdaptiveOptimizer.step` on plain arrays, in place: clip by global
    norm, then v ← βv + (1-β)g² and p ← p - lr·g / (√(v/c) + ε), where
    step_count is the count after the step and c its bias correction."""
    total = 0.0
    for g in grads.values():
        total += float((g * g).sum())
    norm = np.sqrt(total)
    if norm > clip_norm:
        for g in grads.values():
            g *= clip_norm / norm
    correction = 1.0 - beta ** step_count
    for name, g in grads.items():
        v = moments[name]
        v *= beta
        v += (1.0 - beta) * g * g
        params[name] -= lr * g / (np.sqrt(v / correction) + eps)


def zero_grads(tensors: Iterable[Tensor]) -> None:
    for t in tensors:
        t.grad = None


def finite_diff_check(f: Callable[[], Tensor], wrt: Sequence[Tensor],
                      eps: float = 1e-5) -> float:
    """Compare analytic gradients of the scalar f() against central differences.

    f must be deterministic and rebuild its graph from the same `wrt` tensor
    objects on each call. Returns the max over coordinates of
    |analytic - numeric| / max(1, |analytic|, |numeric|).
    """
    if not (1e-6 <= eps <= 1e-4):
        raise ValueError(f"eps {eps} outside [1e-6, 1e-4]")
    wrt = list(wrt)
    zero_grads(wrt)
    with T.fresh_tape() as tape:
        loss = f()
        if loss.data.size != 1:
            raise ShapeError(f"finite_diff_check: f returned shape {loss.shape}")
        tape.backward(loss)
    analytic = [np.zeros_like(t.data) if t.grad is None else t.grad.copy() for t in wrt]
    worst = 0.0
    with T.no_grad():
        for t, an in zip(wrt, analytic):
            flat = t.data.reshape(-1)
            an_flat = an.reshape(-1)
            for i in range(flat.size):
                orig = flat[i]
                flat[i] = orig + eps
                hi = f().item()
                flat[i] = orig - eps
                lo = f().item()
                flat[i] = orig
                num = (hi - lo) / (2.0 * eps)
                denom = max(1.0, abs(an_flat[i]), abs(num))
                worst = max(worst, abs(an_flat[i] - num) / denom)
    zero_grads(wrt)
    return worst


def iou_matrix(pred: np.ndarray, gt: np.ndarray) -> np.ndarray:
    """Pairwise IoU of cxcywh boxes, (n_pred, n_gt)."""
    pred = _validate_boxes(pred, "pred boxes", reject_degenerate=False)
    gt = _validate_boxes(gt, "gt boxes", reject_degenerate=True)
    _, _, inter, union, _ = _overlap(pred[:, None], gt)
    return inter / union


def _optimal_cost(cost: np.ndarray) -> float:
    if cost.shape[1] == 0:
        return 0.0
    rows, cols = linear_sum_assignment(cost)
    return float(cost[rows, cols].sum())


def optimum_is_unique(cost: np.ndarray, rows: np.ndarray, cols: np.ndarray,
                      bound: float) -> bool:
    """True when every assignment that avoids one edge of (rows, cols) costs
    more than `bound`, or none exists."""
    trial = cost.copy()
    for i, j in zip(rows, cols):
        trial[i, j] = np.inf
        try:
            alt = trial[linear_sum_assignment(trial)].sum()
        except ValueError:  # infeasible: every assignment uses this edge
            alt = np.inf
        trial[i, j] = cost[i, j]
        if alt <= bound:
            return False
    return True


def scipy_hungarian_match(cost: np.ndarray) -> list[tuple[int, int]]:
    """The lexicographically smallest minimum-cost (slot, gt) pairs, in gt
    order, of a valid slots × objects cost matrix; totals within
    tol = 1e-12·max(1, |optimum|) of the optimum count as equal. The scipy
    optimum is returned when the n_gt solves that each forbid one of its
    edges all cost more than optimum + 2·tol; otherwise each column in turn
    takes the lowest slot that still permits a completion within tol."""
    cost = np.asarray(cost, dtype=np.float64)
    n_slots, n_gt = cost.shape
    rows, cols = linear_sum_assignment(cost)
    best = float(cost[rows, cols].sum())
    tol = 1e-12 * max(1.0, abs(best))
    if optimum_is_unique(cost, rows, cols, best + 2.0 * tol):
        return [(i, j) for j, i in sorted(zip(cols.tolist(), rows.tolist()))]
    pairs, free, spent = [], list(range(n_slots)), 0.0
    for j in range(n_gt):
        rest = cost[:, j + 1:]
        for pos, i in enumerate(free):
            sub = np.delete(rest[free], pos, axis=0)
            if spent + cost[i, j] + _optimal_cost(sub) <= best + tol:
                pairs.append((i, j))
                spent += cost[i, j]
                free.pop(pos)
                break
        else:
            raise RuntimeError("assignment refinement failed to complete")
    return pairs
