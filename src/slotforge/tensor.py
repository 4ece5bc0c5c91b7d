"""Dense float64 tensors with reverse-mode automatic differentiation.

Values are contiguous row-major numpy arrays of rank 0..2. Every op that
receives a grad-requiring input records a tape entry (define-by-run). The
backward pass is one reverse sweep over the tape: an entry runs only when
its output has received a gradient, that gradient is dropped as the entry
runs (creation order is topological, so nothing adds to it afterwards), and
leaf gradients accumulate only into `.grad` on the requires_grad leaves.
Operands with requires_grad=False get no gradient at all: the elementwise
binary ops and `matmul`/`linear` return None for them. Forward outputs are
checked for NaN/Inf and raise NonFiniteError rather than propagating
silently.

Broadcasting is limited to: equal shapes, scalars, a trailing row vector
(n,d)op(d,) and a column (n,d)op(n,1). Anything else is a ShapeError.

Multi-head attention is one fused op, `attention_heads(q, k, v, heads,
groups)`: the heads are a reshape inside it, not separate graph nodes, so one
attention costs one tape entry whatever the head count. With groups=B it runs
B equal-sized attentions stacked as row blocks, `(B·L, d)`, so a batch stays
rank 2; `group_mean` pools each block in one entry. Likewise
`linear(x, w, b)` with a bias is one entry, not a matmul and an add, and
`abs_` is one entry. `primitive` records a numpy forward with a hand-written
backward as one entry for ops that live beside their callers: the GIoU of
matched box pairs `losses.giou_pairs`, the anchor term of
`losses.track_loss`, the GRU cell `nn.gru_cell` and slot-competitive
attention `slots.slot_attention`, which takes `groups` as `attention_heads`
does. The grouped ops, `attention_heads`, `group_mean` and `slot_attention`,
are what let a batch of frames be one graph of rank-2 tensors.
"""

from __future__ import annotations

import functools
import itertools
from contextlib import contextmanager
from typing import Callable, Iterable, Sequence

import numpy as np


class TensorError(Exception):
    pass


class ShapeError(TensorError):
    pass


class NonFiniteError(TensorError):
    pass


_UIDS = itertools.count()
_NO_GRAD = 0


def check_finite(arr: np.ndarray, op: str) -> np.ndarray:
    if not np.isfinite(arr).all():
        raise NonFiniteError(f"non-finite value produced by {op}")
    return arr


class Tensor:
    """A dense float64 value, optionally participating in the grad tape."""

    __slots__ = ("data", "requires_grad", "grad", "uid")

    def __init__(self, data, requires_grad: bool = False):
        arr = np.asarray(data, dtype=np.float64)
        if arr.ndim and not arr.flags["C_CONTIGUOUS"]:
            arr = np.ascontiguousarray(arr)
        if arr.ndim > 2:
            raise ShapeError(f"rank {arr.ndim} > 2 not supported (shape {arr.shape})")
        check_finite(arr, "tensor construction")
        self.data = arr
        self.requires_grad = bool(requires_grad)
        self.grad: np.ndarray | None = None
        self.uid = next(_UIDS)

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def size(self) -> int:
        return self.data.size

    def item(self) -> float:
        if self.data.size != 1:
            raise ShapeError(f"item() on tensor of shape {self.shape}")
        return float(self.data.reshape(()))

    def detach(self) -> "Tensor":
        return Tensor(self.data.copy())

    def zero_grad(self) -> None:
        self.grad = None

    def backward(self) -> None:
        active_tape().backward(self)

    def __repr__(self) -> str:
        return f"Tensor(shape={self.shape}, requires_grad={self.requires_grad})"

    # operator sugar; everything routes through the module-level ops
    def __add__(self, other):
        return add(self, other)

    __radd__ = __add__

    def __sub__(self, other):
        return sub(self, other)

    def __rsub__(self, other):
        return sub(other, self)

    def __mul__(self, other):
        return mul(self, other)

    __rmul__ = __mul__

    def __truediv__(self, other):
        return div(self, other)

    def __rtruediv__(self, other):
        return div(other, self)

    def __neg__(self):
        return neg(self)

    def __matmul__(self, other):
        return matmul(self, other)


class GradTape:
    """Ordered record of primitive ops; creation order is topological."""

    def __init__(self):
        # entry: (out_uid, parent tensors, fn(grad_out)->per-parent grads)
        self._entries: list[tuple[int, tuple[Tensor, ...], Callable]] = []
        self._produced: set[int] = set()

    def __len__(self) -> int:
        return len(self._entries)

    def record(self, out: Tensor, parents: Sequence[Tensor], fn: Callable) -> None:
        self._entries.append((out.uid, tuple(parents), fn))
        self._produced.add(out.uid)

    def backward(self, loss: Tensor) -> None:
        if loss.data.size != 1:
            raise ShapeError(f"backward from non-scalar of shape {loss.shape}")
        produced = self._produced
        grads: dict[int, np.ndarray] = {loss.uid: np.ones_like(loss.data)}
        for out_uid, parents, fn in reversed(self._entries):
            grad_out = grads.pop(out_uid, None)
            if grad_out is None:
                continue
            for p, g in zip(parents, fn(grad_out)):
                if g is None:
                    continue
                if p.uid in produced:
                    prev = grads.get(p.uid)
                    grads[p.uid] = g if prev is None else prev + g
                elif p.requires_grad:
                    p.grad = g.copy() if p.grad is None else p.grad + g


_TAPE = GradTape()


def active_tape() -> GradTape:
    return _TAPE


@contextmanager
def fresh_tape():
    """Swap in a new tape for the duration of the block (one training step)."""
    global _TAPE
    saved = _TAPE
    _TAPE = GradTape()
    try:
        yield _TAPE
    finally:
        _TAPE = saved


@contextmanager
def no_grad():
    """Disable tape recording; forward values (and NaN checks) still run."""
    global _NO_GRAD
    _NO_GRAD += 1
    try:
        yield
    finally:
        _NO_GRAD -= 1


def grad_enabled() -> bool:
    return _NO_GRAD == 0


def _coerce(x) -> Tensor:
    return x if isinstance(x, Tensor) else Tensor(np.asarray(x, dtype=np.float64))


def _make(data: np.ndarray, parents: Sequence[Tensor], fn: Callable, op: str) -> Tensor:
    data = np.asarray(data, dtype=np.float64)
    if data.ndim and not data.flags["C_CONTIGUOUS"]:
        data = np.ascontiguousarray(data)
    check_finite(data, op)
    track = grad_enabled() and any(p.requires_grad for p in parents)
    out = Tensor.__new__(Tensor)
    out.data = data
    out.requires_grad = track
    out.grad = None
    out.uid = next(_UIDS)
    if track:
        _TAPE.record(out, parents, fn)
    return out


def primitive(data: np.ndarray, parents: Sequence[Tensor], backward: Callable,
              op: str) -> Tensor:
    """One tape entry for a forward value computed in numpy.

    `backward(g)` returns one gradient array (or None) per parent, each of
    its parent's shape. The value is checked for NaN/Inf like every op's;
    `check_finite` names the op for intermediates that can be non-finite
    while the value is not.

    A tensor the op uses more than once is listed once, and the backward
    returns the sum of its gradients.
    """
    return _make(data, parents, backward, op)


def _broadcast_ok(a: tuple[int, ...], b: tuple[int, ...]) -> bool:
    if a == b or a == () or b == ():
        return True
    if len(a) == 2 and (b == (a[1],) or b == (a[0], 1) or b == (1, a[1])):
        return True
    if len(b) == 2 and (a == (b[1],) or a == (b[0], 1) or a == (1, b[1])):
        return True
    return False


def unbroadcast(grad: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Sum a gradient over the axes its operand of `shape` was broadcast along."""
    if grad.shape == shape:
        return grad
    g = grad
    while g.ndim > len(shape):
        g = g.sum(axis=0)
    for ax, n in enumerate(shape):
        if n == 1 and g.shape[ax] != 1:
            g = g.sum(axis=ax, keepdims=True)
    return g.reshape(shape)


def _binary(a, b, fwd, bwd_a, bwd_b, op: str) -> Tensor:
    a, b = _coerce(a), _coerce(b)
    if not _broadcast_ok(a.shape, b.shape):
        raise ShapeError(f"{op}: incompatible shapes {a.shape} and {b.shape}")
    with np.errstate(all="ignore"):
        out = fwd(a.data, b.data)

    def backward(g):
        return (
            unbroadcast(bwd_a(g, a.data, b.data), a.shape) if a.requires_grad else None,
            unbroadcast(bwd_b(g, a.data, b.data), b.shape) if b.requires_grad else None,
        )

    return _make(out, (a, b), backward, op)


def add(a, b) -> Tensor:
    return _binary(a, b, lambda x, y: x + y, lambda g, x, y: g, lambda g, x, y: g, "add")


def add_all(terms: Sequence[Tensor]) -> Tensor:
    """Left-to-right sum ((t0 + t1) + t2) + ...; a zero scalar when empty."""
    return functools.reduce(add, terms) if terms else Tensor(0.0)


def sub(a, b) -> Tensor:
    return _binary(a, b, lambda x, y: x - y, lambda g, x, y: g, lambda g, x, y: -g, "sub")


def mul(a, b) -> Tensor:
    return _binary(a, b, lambda x, y: x * y, lambda g, x, y: g * y, lambda g, x, y: g * x, "mul")


def div(a, b) -> Tensor:
    return _binary(
        a, b,
        lambda x, y: x / y,
        lambda g, x, y: g / y,
        lambda g, x, y: -g * x / (y * y),
        "div",
    )


def neg(a) -> Tensor:
    a = _coerce(a)
    return _make(-a.data, (a,), lambda g: (-g,), "neg")


def matmul(a: Tensor, b: Tensor) -> Tensor:
    a, b = _coerce(a), _coerce(b)
    if a.data.ndim != 2 or b.data.ndim != 2 or a.shape[1] != b.shape[0]:
        raise ShapeError(f"matmul: incompatible shapes {a.shape} and {b.shape}")
    out = a.data @ b.data

    def backward(g):
        return (g @ b.data.T if a.requires_grad else None,
                a.data.T @ g if b.requires_grad else None)

    return _make(out, (a, b), backward, "matmul")


def transpose(a: Tensor) -> Tensor:
    a = _coerce(a)
    if a.data.ndim != 2:
        raise ShapeError(f"transpose: rank-2 required, got shape {a.shape}")
    return _make(a.data.T.copy(), (a,), lambda g: (g.T,), "transpose")


def _unary(a, fwd, bwd, op: str) -> Tensor:
    a = _coerce(a)
    with np.errstate(all="ignore"):
        out = fwd(a.data)

    def backward(g, out=out):
        return (bwd(g, a.data, out),)

    return _make(out, (a,), backward, op)


def exp(a) -> Tensor:
    return _unary(a, np.exp, lambda g, x, y: g * y, "exp")


def log(a) -> Tensor:
    return _unary(a, np.log, lambda g, x, y: g / x, "log")


def sqrt(a) -> Tensor:
    return _unary(a, np.sqrt, lambda g, x, y: g * 0.5 / y, "sqrt")


def stable_sigmoid(x: np.ndarray) -> np.ndarray:
    """1 / (1 + exp(-x)) in numpy, never exponentiating a positive number:
    1 / (1 + e) where x >= 0 and e / (1 + e) elsewhere, with e = exp(-|x|)."""
    e = np.exp(-np.abs(x))
    return np.where(x >= 0, 1.0, e) / (1.0 + e)


def sigmoid(a) -> Tensor:
    return _unary(a, stable_sigmoid, lambda g, x, y: g * y * (1.0 - y), "sigmoid")


def tanh(a) -> Tensor:
    return _unary(a, np.tanh, lambda g, x, y: g * (1.0 - y * y), "tanh")


def relu(a) -> Tensor:
    return _unary(a, lambda x: np.maximum(x, 0.0), lambda g, x, y: g * (x > 0), "relu")


def abs_(a) -> Tensor:
    """|x|; the gradient is sign(x)·g, zero at x == 0."""
    return _unary(a, np.abs, lambda g, x, y: g * np.sign(x), "abs")


def clip_min(a, lo: float) -> Tensor:
    return _unary(a, lambda x: np.maximum(x, lo), lambda g, x, y: g * (x >= lo), "clip_min")


def _axis_check(a: Tensor, axis) -> None:
    if axis is not None and not (0 <= axis < a.data.ndim):
        raise ShapeError(f"axis {axis} out of range for shape {a.shape}")


def sum_(a, axis=None, keepdims: bool = False) -> Tensor:
    a = _coerce(a)
    _axis_check(a, axis)
    out = a.data.sum(axis=axis, keepdims=keepdims)

    def backward(g):
        if axis is None:
            return (np.broadcast_to(g, a.shape).copy(),)
        gg = g if keepdims else np.expand_dims(g, axis)
        return (np.broadcast_to(gg, a.shape).copy(),)

    return _make(out, (a,), backward, "sum")


def mean(a) -> Tensor:
    """Mean of every element, a scalar; `group_mean` pools row blocks."""
    a = _coerce(a)
    n = a.data.size
    return _make(a.data.mean(), (a,), lambda g: (np.broadcast_to(g / n, a.shape).copy(),),
                 "mean")


def softmax(a, axis: int = -1) -> Tensor:
    """Max-shifted softmax along `axis`; rows sum to 1 within 1e-12."""
    a = _coerce(a)
    ax = axis if axis >= 0 else a.data.ndim + axis
    _axis_check(a, ax)
    shifted = a.data - a.data.max(axis=ax, keepdims=True)
    e = np.exp(shifted)
    out = e / e.sum(axis=ax, keepdims=True)

    def backward(g, out=out):
        dot = (g * out).sum(axis=ax, keepdims=True)
        return ((g - dot) * out,)

    return _make(out, (a,), backward, "softmax")


def _split_heads(x: np.ndarray, heads: int, groups: int) -> np.ndarray:
    """(groups*n, heads*dh) -> contiguous (groups, heads, n, dh); blocks of n rows."""
    rows, d = x.shape
    return np.ascontiguousarray(
        x.reshape(groups, rows // groups, heads, d // heads).transpose(0, 2, 1, 3))


def _merge_heads(x: np.ndarray) -> np.ndarray:
    """(groups, heads, n, dh) -> (groups*n, heads*dh), the inverse of `_split_heads`."""
    groups, heads, n, dh = x.shape
    return x.transpose(0, 2, 1, 3).reshape(groups * n, heads * dh)


def _head_softmax(q: np.ndarray, k: np.ndarray, heads: int, groups: int):
    """The one head computation: (q split into groups and heads, k_hᵀ per group
    and head, scale, weights softmax(q_h k_hᵀ · scale) of shape (groups, heads, n, m))."""
    if q.ndim != 2 or k.ndim != 2 or q.shape[1] != k.shape[1]:
        raise ShapeError(f"attention: query shape {q.shape} and key shape {k.shape} "
                         "differ in width")
    if heads < 1 or q.shape[1] % heads:
        raise ShapeError(f"attention: width {q.shape[1]} not divisible by {heads} heads")
    if groups < 1 or q.shape[0] % groups or k.shape[0] % groups:
        raise ShapeError(f"attention: {q.shape[0]} query and {k.shape[0]} key rows "
                         f"do not split into {groups} groups")
    scale = 1.0 / np.sqrt(k.shape[1] // heads)
    qh = _split_heads(q, heads, groups)
    kt = np.ascontiguousarray(_split_heads(k, heads, groups).swapaxes(2, 3))
    with np.errstate(all="ignore"):
        logits = check_finite((qh @ kt) * scale, "attention logits")
    e = np.exp(logits - logits.max(axis=3, keepdims=True))
    return qh, kt, scale, e / e.sum(axis=3, keepdims=True)


def attention_head_weights(q: Tensor, k: Tensor, heads: int) -> np.ndarray:
    """Per-head attention weights of `attention_heads`, (heads, n, m); no tape."""
    return _head_softmax(_coerce(q).data, _coerce(k).data, heads, 1)[3][0]


def attention_heads(q, k, v, heads: int, groups: int = 1) -> Tensor:
    """concat_h softmax(q_h k_hᵀ / √dh) v_h as one tape entry.

    Head h owns columns h*dh:(h+1)*dh of q, k and v; the rows of each are
    `groups` equal blocks, and block g of q attends to block g of k and v only.
    Every group and head runs in one batched (groups, heads, n, ·) matmul.
    """
    q, k, v = _coerce(q), _coerce(k), _coerce(v)
    if v.shape != k.shape:
        raise ShapeError(f"attention: value shape {v.shape} != key shape {k.shape}")
    qh, kt, scale, weights = _head_softmax(q.data, k.data, heads, groups)
    vh = _split_heads(v.data, heads, groups)
    out = _merge_heads(weights @ vh)

    def backward(g):
        gh = _split_heads(g, heads, groups)
        dw = gh @ vh.swapaxes(2, 3)
        dot = (dw * weights).sum(axis=3, keepdims=True)
        dlogits = ((dw - dot) * weights) * scale
        return (_merge_heads(dlogits @ kt.swapaxes(2, 3)),
                _merge_heads((qh.swapaxes(2, 3) @ dlogits).swapaxes(2, 3)),
                _merge_heads(weights.swapaxes(2, 3) @ gh))

    return _make(out, (q, k, v), backward, "attention_heads")


def group_mean(a, groups: int) -> Tensor:
    """Row mean of each of `groups` equal row blocks: (groups*n, d) -> (groups, d)."""
    a = _coerce(a)
    if a.data.ndim != 2 or groups < 1 or a.shape[0] % groups:
        raise ShapeError(f"group_mean: shape {a.shape} does not split into {groups} groups")
    n = a.shape[0] // groups
    return _make(a.data.reshape(groups, n, a.shape[1]).mean(axis=1), (a,),
                 lambda g: (np.repeat(g / n, n, axis=0),), "group_mean")


def layer_norm(a, gain: Tensor | None = None, bias: Tensor | None = None,
               eps: float = 1e-5) -> Tensor:
    """Normalize each row (last axis) to zero mean / unit variance.

    Optional affine gain/bias of shape (d,). A constant row normalizes to
    zeros (the eps in the denominator keeps the zero-variance case finite).
    """
    a = _coerce(a)
    if a.data.ndim == 0:
        raise ShapeError("layer_norm: rank >= 1 required")
    d = a.shape[-1]
    mu = a.data.mean(axis=-1, keepdims=True)
    var = a.data.var(axis=-1, keepdims=True)
    inv = 1.0 / np.sqrt(var + eps)
    xhat = (a.data - mu) * inv
    parents: list[Tensor] = [a]
    out = xhat
    if gain is not None:
        if gain.shape != (d,):
            raise ShapeError(f"layer_norm: gain shape {gain.shape} != ({d},)")
        out = out * gain.data
        parents.append(gain)
    if bias is not None:
        if bias.shape != (d,):
            raise ShapeError(f"layer_norm: bias shape {bias.shape} != ({d},)")
        out = out + bias.data
        parents.append(bias)

    def backward(g):
        gy = g * gain.data if gain is not None else g
        m1 = gy.mean(axis=-1, keepdims=True)
        m2 = (gy * xhat).mean(axis=-1, keepdims=True)
        dx = (gy - m1 - xhat * m2) * inv
        grads: list[np.ndarray] = [dx]
        if gain is not None:
            gg = g * xhat
            grads.append(gg.sum(axis=0) if gg.ndim == 2 else gg)
        if bias is not None:
            grads.append(g.sum(axis=0) if g.ndim == 2 else g)
        return tuple(grads)

    return _make(out, parents, backward, "layer_norm")


def linear(x: Tensor, w: Tensor, b: Tensor | None = None) -> Tensor:
    """x @ w (+ b): the standard affine map over row vectors.

    With a bias it is one tape entry whose values and gradients are bitwise
    those of `add(matmul(x, w), b)`; without one it is `matmul(x, w)`.
    """
    if b is None:
        return matmul(x, w)
    x, w, b = _coerce(x), _coerce(w), _coerce(b)
    if x.data.ndim != 2 or w.data.ndim != 2 or x.shape[1] != w.shape[0]:
        raise ShapeError(f"linear: incompatible shapes {x.shape} and {w.shape}")
    y = x.data @ w.data
    if not _broadcast_ok(y.shape, b.shape):
        raise ShapeError(f"linear: incompatible shapes {y.shape} and {b.shape}")
    with np.errstate(all="ignore"):
        out = y + b.data

    def backward(g):
        gy = unbroadcast(g, y.shape)
        return (gy @ w.data.T if x.requires_grad else None,
                x.data.T @ gy if w.requires_grad else None,
                unbroadcast(g, b.shape) if b.requires_grad else None)

    return _make(out, (x, w, b), backward, "linear")


def concat(parts: Iterable[Tensor], axis: int = 0) -> Tensor:
    parts = [_coerce(p) for p in parts]
    if not parts:
        raise ShapeError("concat: empty input list")
    ndim = parts[0].data.ndim
    if any(p.data.ndim != ndim for p in parts):
        raise ShapeError(f"concat: mixed ranks {[p.shape for p in parts]}")
    if not (0 <= axis < ndim):
        raise ShapeError(f"concat: axis {axis} out of range for rank {ndim}")
    out = np.concatenate([p.data for p in parts], axis=axis)
    sizes = [p.shape[axis] for p in parts]
    offsets = np.cumsum([0] + sizes)

    def backward(g):
        return tuple(
            np.take(g, np.arange(offsets[i], offsets[i + 1]), axis=axis)
            for i in range(len(parts))
        )

    return _make(out, parts, backward, "concat")


def scatter_rows(g: np.ndarray, idx: np.ndarray, rows: int) -> np.ndarray:
    """`rows` zero rows with row k of g added into row idx[k], in k order:
    bitwise `np.add.at`. A tile of range(rows) sums its blocks in one
    reduction and unique indices write in one assignment; only other indices
    pay for `np.add.at`."""
    width = g.shape[1]
    if (idx.size and rows * width > 1 and idx.size % rows == 0
            and (idx.reshape(-1, rows) == np.arange(rows)).all()):
        # numpy sums the leading axis of a C-order matrix block after block,
        # from +0.0; a single column it would sum pairwise instead
        blocks = np.ascontiguousarray(g).reshape(-1, rows * width)
        return blocks.sum(axis=0).reshape(rows, width)
    full = np.zeros((rows, width), dtype=g.dtype)
    if idx.size == 0 or np.bincount(idx).max() == 1:
        full[idx] += g
    else:
        np.add.at(full, idx, g)
    return full


def gather_rows(a: Tensor, idx) -> Tensor:
    """Select rows by integer index; backward scatter-adds into the source."""
    a = _coerce(a)
    if a.data.ndim != 2:
        raise ShapeError(f"gather_rows: rank-2 required, got {a.shape}")
    idx = np.asarray(idx, dtype=np.int64)
    if idx.ndim != 1:
        raise ShapeError("gather_rows: index must be 1-D")
    if idx.size and (idx.min() < 0 or idx.max() >= a.shape[0]):
        raise ShapeError(f"gather_rows: index out of range for {a.shape[0]} rows")
    out = a.data[idx]

    def backward(g):
        return (scatter_rows(g, idx, a.shape[0]),)

    return _make(out, (a,), backward, "gather_rows")


def slice_cols(a: Tensor, lo: int, hi: int) -> Tensor:
    a = _coerce(a)
    if a.data.ndim != 2 or not (0 <= lo < hi <= a.shape[1]):
        raise ShapeError(f"slice_cols: bad range [{lo},{hi}) for shape {a.shape}")
    out = a.data[:, lo:hi].copy()

    def backward(g):
        full = np.zeros_like(a.data)
        full[:, lo:hi] = g
        return (full,)

    return _make(out, (a,), backward, "slice_cols")


def bce_logits(x, targets, weights=None) -> Tensor:
    """Mean (optionally weighted) BCE on logits, the numerically safe form."""
    x = _coerce(x)
    t = np.asarray(targets, dtype=np.float64)
    if t.shape != x.shape:
        raise ShapeError(f"bce_logits: target shape {t.shape} != input shape {x.shape}")
    w = np.ones_like(t) if weights is None else np.asarray(weights, dtype=np.float64)
    n = max(x.data.size, 1)
    z = x.data
    elem = np.maximum(z, 0.0) - z * t + np.log1p(np.exp(-np.abs(z)))
    out = np.asarray((w * elem).sum() / n)
    sig = stable_sigmoid(z)

    def backward(g):
        return (g * w * (sig - t) / n,)

    return _make(out, (x,), backward, "bce_logits")


def cross_entropy(logits: Tensor, labels, reduce: str = "mean") -> Tensor:
    """Softmax cross-entropy of integer class labels against logit rows."""
    logits = _coerce(logits)
    if logits.data.ndim != 2:
        raise ShapeError(f"cross_entropy: rank-2 logits required, got {logits.shape}")
    labels = np.asarray(labels, dtype=np.int64)
    n, k = logits.shape
    if labels.shape != (n,):
        raise ShapeError(f"cross_entropy: labels shape {labels.shape} != ({n},)")
    if labels.size and (labels.min() < 0 or labels.max() >= k):
        raise ShapeError(f"cross_entropy: label out of range for {k} classes")
    if reduce not in ("mean", "sum"):
        raise ValueError(f"cross_entropy: unknown reduce '{reduce}'")
    shifted = logits.data - logits.data.max(axis=1, keepdims=True)
    logz = np.log(np.exp(shifted).sum(axis=1))
    per_row = logz - shifted[np.arange(n), labels]
    scale = 1.0 / n if reduce == "mean" else 1.0
    out = np.asarray(per_row.sum() * scale)
    probs = np.exp(shifted - logz[:, None])

    def backward(g):
        d = probs.copy()
        d[np.arange(n), labels] -= 1.0
        return (g * scale * d,)

    return _make(out, (logits,), backward, "cross_entropy")


def logsumexp_rows(a: Tensor) -> Tensor:
    """Row-wise log-sum-exp of a rank-2 tensor, returned as (n,1)."""
    a = _coerce(a)
    if a.data.ndim != 2:
        raise ShapeError(f"logsumexp_rows: rank-2 required, got {a.shape}")
    m = a.data.max(axis=1, keepdims=True)
    out = m + np.log(np.exp(a.data - m).sum(axis=1, keepdims=True))
    soft = np.exp(a.data - out)

    def backward(g):
        return (g * soft,)

    return _make(out, (a,), backward, "logsumexp")


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
    with fresh_tape() as tape:
        loss = f()
        if loss.data.size != 1:
            raise ShapeError(f"finite_diff_check: f returned shape {loss.shape}")
        tape.backward(loss)
    analytic = [np.zeros_like(t.data) if t.grad is None else t.grad.copy() for t in wrt]
    worst = 0.0
    with no_grad():
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
