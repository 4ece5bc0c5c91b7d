"""Ops and utilities that only the tests use, built on `T.primitive`.

The reference ops are the pieces of the unfused graphs that the tests compare
the package's fused ops against (`softmax`, `tanh`, `slice_cols`, ...).
`finite_diff_check` compares a graph's analytic gradients against central
differences.
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
