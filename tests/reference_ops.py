"""Ops and utilities that only the tests use, built on `T.primitive`.

The reference ops are the pieces of the unfused graphs that the tests compare
the package's fused ops against (`softmax`, `tanh`, `slice_cols`, ...).
`plain_layer_norm`, `plain_attention_heads`, `plain_linear`, `plain_relu`,
`plain_concat`, `plain_slot_softmax` and `plain_adaptive_step` are the package's hot kernels in
their plain form, one fresh array per step, which the rewritten kernels must
match byte for byte. `finite_diff_check` compares a graph's analytic
gradients against central differences.
"""

from typing import Callable, Iterable, Sequence

import numpy as np

import slotforge.tensor as T
from slotforge.tensor import ShapeError, Tensor


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


def plain_layer_norm(a: Tensor, gain: Tensor | None = None,
                     bias: Tensor | None = None) -> Tensor:
    """`T.layer_norm` with `mean`/`var` moments; every parent gets a gradient."""
    mu = a.data.mean(axis=-1, keepdims=True)
    var = a.data.var(axis=-1, keepdims=True)
    inv = 1.0 / np.sqrt(var + 1e-5)
    xhat = (a.data - mu) * inv
    parents, out = [a], xhat
    if gain is not None:
        out = out * gain.data
        parents.append(gain)
    if bias is not None:
        out = out + bias.data
        parents.append(bias)

    def backward(g):
        gy = g * gain.data if gain is not None else g
        m1 = gy.mean(axis=-1, keepdims=True)
        m2 = (gy * xhat).mean(axis=-1, keepdims=True)
        grads = [(gy - m1 - xhat * m2) * inv]
        if gain is not None:
            gg = g * xhat
            grads.append(gg.sum(axis=0) if gg.ndim == 2 else gg)
        if bias is not None:
            grads.append(g.sum(axis=0) if g.ndim == 2 else g)
        return tuple(grads)

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
