"""Dense float64 tensors with reverse-mode automatic differentiation.

The core holds only the ops, options and methods the package calls. The ops
that only tests use as references (`softmax`, `tanh`, `slice_cols`,
`logsumexp_rows`, `clip_min`, `neg`), built on `primitive`, and the test
utilities `finite_diff_check` and `zero_grads` live in `tests/reference_ops.py`.

Values are contiguous row-major numpy arrays of rank 0..2. An op records an
entry only onto the open tape (define-by-run), and only if it receives a
grad-requiring input; outside `fresh_tape` no tape is open, so no graph
outlives the caller's tensors. An entry holds its output, and the backward
pass keys gradients by the identity of the tensors the tape holds. It is one
reverse sweep over the tape: an entry runs only when its output has received
a gradient, that gradient is dropped as the entry runs (creation order is
topological, so nothing adds to it afterwards), and leaf gradients accumulate
only into `.grad` on the requires_grad leaves.
Operands with requires_grad=False get no gradient at all: the elementwise
binary ops, `matmul`, `linear`, `layer_norm` and `attention_heads` return
None for them and skip the work. Forward outputs are checked for NaN/Inf and
raise NonFiniteError rather than propagating silently: every op checks its
value, on the tape and off it, except inside an `inference_pass`.
Such a pass checks only what it reads out or decides on; `relu` and
`sigmoid`, which map an infinite input to a finite output, check their input
there instead, and the fused kernels keep their checks on intermediates. If
the pass raises, it runs once more with every op checked, so the error names
the op as it would have without the pass.

numpy's floating-point warnings are off, through `quiet()`, around the
arithmetic of the elementwise binary and unary ops, `linear`, the attention
logits, `nn.gru_cell`, `slots.slot_attention` and `losses.giou_pairs`: a
non-finite value is the finite checks' to report, not numpy's. A
`fresh_tape` block (a training step, its backward included) and an
`inference_pass`'s first run each sit whole under one `np.errstate`, so
`quiet` is a no-op there; outside both, as in `no_grad` or a pass's checked
replay, each op enters its own.

An op writes in place only into arrays it allocated itself, such as a
matmul's fresh product. It never writes into the gradient `g` its backward
receives, into a parent's `.data`, or into an array that it returns and has
also saved for its backward. So a backward may return `g` itself or a view
of it (`add`, `concat`), and one array may be the gradient of several
parents.

Broadcasting is limited to: equal shapes, scalars, a trailing row vector
(n,d)op(d,) and a column (n,d)op(n,1). Anything else is a ShapeError.

Multi-head attention is one fused op, `attention_heads(q, k, v, heads,
groups)`: the heads are a reshape inside it, not separate graph nodes, so one
attention costs one tape entry whatever the head count. With groups=B it runs
B equal-sized attentions stacked as row blocks, `(B·L, d)`, so a batch stays
rank 2; `group_mean` pools each block in one entry. Likewise
`linear(x, w, b)` is one entry, not a matmul and an add, and `abs_` is one
entry. `layer_norm(a, affine=None)` normalizes the rows of a rank-2 tensor in
the package's two modes: no affine, or `affine=(gain, bias)`. Every op records its entry through `primitive`, which callers also use
for ops that live beside them: the GIoU of matched box pairs
`losses.giou_pairs`, the anchor term of `losses.track_loss`, the GRU cell
`nn.gru_cell` and slot-competitive attention `slots.slot_attention`, which
takes `groups` as `attention_heads` does. The grouped ops, `attention_heads`,
`group_mean` and `slot_attention`, are what let a batch of frames be one
graph of rank-2 tensors.
"""

from __future__ import annotations

import functools
import itertools
from contextlib import contextmanager, nullcontext
from typing import Callable, Iterable, Sequence

import numpy as np


class TensorError(Exception):
    pass


class ShapeError(TensorError):
    pass


class NonFiniteError(TensorError):
    pass


_OP_CHECKS = True  # off only inside an `inference_pass`
_QUIET = False  # on while a block runs under one `np.errstate(all="ignore")`


def check_finite(arr: np.ndarray, op: str) -> np.ndarray:
    if not np.logical_and.reduce(np.isfinite(arr), axis=None):
        raise NonFiniteError(f"non-finite value produced by {op}")
    return arr


class Tensor:
    """A dense float64 value, optionally participating in the grad tape."""

    __slots__ = ("data", "requires_grad", "grad")

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

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    def item(self) -> float:
        if self.data.size != 1:
            raise ShapeError(f"item() on tensor of shape {self.shape}")
        return float(self.data.reshape(()))

    def detach(self) -> "Tensor":
        return Tensor(self.data.copy())

    def __repr__(self) -> str:
        return f"Tensor(shape={self.shape}, requires_grad={self.requires_grad})"


class GradTape:
    """Ordered record of primitive ops; creation order is topological."""

    def __init__(self):
        # entry: (output tensor, parent tensors, fn(grad_out)->per-parent grads)
        self._entries: list[tuple[Tensor, tuple[Tensor, ...], Callable]] = []

    def __len__(self) -> int:
        return len(self._entries)

    def record(self, out: Tensor, parents: Sequence[Tensor], fn: Callable) -> None:
        self._entries.append((out, tuple(parents), fn))

    def backward(self, loss: Tensor) -> None:
        if loss.data.size != 1:
            raise ShapeError(f"backward from non-scalar of shape {loss.shape}")
        produced = {id(out) for out, _, _ in self._entries}
        grads: dict[int, np.ndarray] = {id(loss): np.ones_like(loss.data)}
        for out, parents, fn in reversed(self._entries):
            grad_out = grads.pop(id(out), None)
            if grad_out is None:
                continue
            for p, g in zip(parents, fn(grad_out)):
                if g is None:
                    continue
                if id(p) in produced:
                    prev = grads.get(id(p))
                    grads[id(p)] = g if prev is None else prev + g
                elif p.requires_grad:
                    p.grad = g.copy() if p.grad is None else p.grad + g


_TAPE: GradTape | None = None  # the open tape; ops record only while one is open


@contextmanager
def _open(tape: GradTape | None):
    global _TAPE
    saved, _TAPE = _TAPE, tape
    try:
        yield tape
    finally:
        _TAPE = saved


@contextmanager
def _silenced():
    """numpy's floating-point warnings off for the whole block, where `quiet`
    is a no-op."""
    global _QUIET
    saved, _QUIET = _QUIET, True
    try:
        with np.errstate(all="ignore"):
            yield
    finally:
        _QUIET = saved


@contextmanager
def fresh_tape():
    """Open a new tape for the block (one training step), under one
    `np.errstate`; the innermost `fresh_tape` or `no_grad` block decides
    whether ops record."""
    with _open(GradTape()) as tape, _silenced():
        yield tape


def no_grad():
    """Close the tape for the block; the innermost such block decides. Values
    and every op's NaN check still run (`inference_pass` checks read-outs only)."""
    return _open(None)


def grad_enabled() -> bool:
    return _TAPE is not None


def inference_pass(fn: Callable) -> Callable:
    """Run `fn` under `no_grad` without per-op finite checks.

    The function checks what it reads out or decides on itself, with
    `check_finite`. If it raises NonFiniteError, it runs once more with every
    op checked, so the error names the op that made the first non-finite
    value. That replay is exact only for a pure function of its arguments and
    the parameters, and only for a whole call: a generator would run its body
    after the wrapper returned. numpy's floating-point warnings are off in the
    unchecked run, where non-finite values may travel on to a read-out.
    """
    @functools.wraps(fn)
    def run(*args, **kwargs):
        global _OP_CHECKS
        with no_grad():
            saved, _OP_CHECKS = _OP_CHECKS, False
            try:
                with _silenced():
                    return fn(*args, **kwargs)
            except NonFiniteError:
                pass
            finally:
                _OP_CHECKS = saved
            return fn(*args, **kwargs)
    return run


_SILENT = nullcontext()


def quiet():
    """numpy's floating-point warnings off for one op's arithmetic: a fresh
    `np.errstate(all="ignore")`, or a no-op inside a `fresh_tape` block or an
    `inference_pass`'s first run, which each run whole under one."""
    return _SILENT if _QUIET else np.errstate(all="ignore")


def _coerce(x) -> Tensor:
    return x if isinstance(x, Tensor) else Tensor(np.asarray(x, dtype=np.float64))


def primitive(data: np.ndarray, parents: Sequence[Tensor], backward: Callable,
              op: str) -> Tensor:
    """One tape entry for a forward value computed in numpy; every op records
    through it.

    `backward(g)` returns one gradient array (or None) per parent, each of
    its parent's shape. The value is made contiguous and checked for NaN/Inf,
    except inside an `inference_pass`, whose first run checks only what it
    reads out; `check_finite` names the op for intermediates that can be
    non-finite while the value is not. No entry is recorded when no tape is
    open or when no parent requires a gradient.

    A tensor the op uses more than once is listed once, and the backward
    returns the sum of its gradients.
    """
    data = np.asarray(data, dtype=np.float64)
    if data.ndim and not data.flags["C_CONTIGUOUS"]:
        data = np.ascontiguousarray(data)
    if _OP_CHECKS:
        check_finite(data, op)
    track = grad_enabled() and any(p.requires_grad for p in parents)
    out = Tensor.__new__(Tensor)
    out.data = data
    out.requires_grad = track
    out.grad = None
    if track:
        _TAPE.record(out, parents, backward)
    return out


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
    with quiet():
        out = fwd(a.data, b.data)

    def backward(g):
        return (
            unbroadcast(bwd_a(g, a.data, b.data), a.shape) if a.requires_grad else None,
            unbroadcast(bwd_b(g, a.data, b.data), b.shape) if b.requires_grad else None,
        )

    return primitive(out, (a, b), backward, op)


def add(a, b) -> Tensor:
    return _binary(a, b, lambda x, y: x + y, lambda g, x, y: g, lambda g, x, y: g, "add")


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


def matmul(a: Tensor, b: Tensor) -> Tensor:
    a, b = _coerce(a), _coerce(b)
    if a.data.ndim != 2 or b.data.ndim != 2 or a.shape[1] != b.shape[0]:
        raise ShapeError(f"matmul: incompatible shapes {a.shape} and {b.shape}")
    out = a.data @ b.data

    def backward(g):
        return (g @ b.data.T if a.requires_grad else None,
                a.data.T @ g if b.requires_grad else None)

    return primitive(out, (a, b), backward, "matmul")


def transpose(a: Tensor) -> Tensor:
    a = _coerce(a)
    if a.data.ndim != 2:
        raise ShapeError(f"transpose: rank-2 required, got shape {a.shape}")
    return primitive(a.data.T.copy(), (a,), lambda g: (g.T,), "transpose")


def _unary(a, fwd, bwd, op: str, saturates: bool = False) -> Tensor:
    """An elementwise op. One that `saturates` maps an infinite input to a
    finite output, which no read-out would see, so it checks its input where
    ops go unchecked. `exp` maps -inf to 0 too, but reads only a parameter."""
    a = _coerce(a)
    if saturates and not _OP_CHECKS:
        check_finite(a.data, op)
    with quiet():
        out = fwd(a.data)

    def backward(g, out=out):
        return (bwd(g, a.data, out),)

    return primitive(out, (a,), backward, op)


def exp(a) -> Tensor:
    return _unary(a, np.exp, lambda g, x, y: g * y, "exp")


def sqrt(a) -> Tensor:
    return _unary(a, np.sqrt, lambda g, x, y: g * 0.5 / y, "sqrt")


def stable_sigmoid(x: np.ndarray) -> np.ndarray:
    """1 / (1 + exp(-x)) in numpy, never exponentiating a positive number:
    1 / (1 + e) where x >= 0 and e / (1 + e) elsewhere, with e = exp(-|x|)."""
    e = np.exp(-np.abs(x))
    return np.where(x >= 0, 1.0, e) / (1.0 + e)


def sigmoid(a) -> Tensor:
    return _unary(a, stable_sigmoid, lambda g, x, y: g * y * (1.0 - y), "sigmoid",
                  saturates=True)


def relu(a) -> Tensor:
    # bitwise g * (x > 0), in one float64 loop
    return _unary(a, lambda x: np.maximum(x, 0.0),
                  lambda g, x, y: np.multiply(g, x > 0, dtype=np.float64), "relu",
                  saturates=True)


def abs_(a) -> Tensor:
    """|x|; the gradient is sign(x)·g, zero at x == 0."""
    return _unary(a, np.abs, lambda g, x, y: g * np.sign(x), "abs")


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

    return primitive(out, (a,), backward, "sum")


def mean(a) -> Tensor:
    """Mean of every element, a scalar; `group_mean` pools row blocks."""
    a = _coerce(a)
    n = a.data.size
    return primitive(a.data.mean(), (a,),
                     lambda g: (np.broadcast_to(g / n, a.shape).copy(),), "mean")


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
    and head, scale, weights softmax(q_h k_hᵀ · scale) of shape (groups, heads, n, m)).
    The softmax runs in the buffer the logits matmul allocated."""
    if q.ndim != 2 or k.ndim != 2 or q.shape[1] != k.shape[1]:
        raise ShapeError(f"attention: query shape {q.shape} and key shape {k.shape} "
                         "differ in width")
    if heads < 1 or q.shape[1] % heads:
        raise ShapeError(f"attention: width {q.shape[1]} not divisible by {heads} heads")
    if groups < 1 or q.shape[0] % groups or k.shape[0] % groups:
        raise ShapeError(f"attention: {q.shape[0]} query and {k.shape[0]} key rows "
                         f"do not split into {groups} groups")
    dh = k.shape[1] // heads
    scale = 1.0 / np.sqrt(dh)
    qh = _split_heads(q, heads, groups)
    kt = np.ascontiguousarray(
        k.reshape(groups, k.shape[0] // groups, heads, dh).transpose(0, 2, 3, 1))
    with quiet():
        weights = qh @ kt
        weights *= scale
    check_finite(weights, "attention logits")
    weights -= np.maximum.reduce(weights, axis=3, keepdims=True)
    np.exp(weights, out=weights)
    weights /= np.add.reduce(weights, axis=3, keepdims=True)
    return qh, kt, scale, weights


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
        dq = dk = None
        if q.requires_grad or k.requires_grad:
            dlogits = gh @ vh.swapaxes(2, 3)
            dot = np.add.reduce(dlogits * weights, axis=3, keepdims=True)
            dlogits -= dot
            dlogits *= weights
            dlogits *= scale
            if q.requires_grad:
                dq = _merge_heads(dlogits @ kt.swapaxes(2, 3))
            if k.requires_grad:
                dk = _merge_heads((qh.swapaxes(2, 3) @ dlogits).swapaxes(2, 3))
        dv = _merge_heads(weights.swapaxes(2, 3) @ gh) if v.requires_grad else None
        return dq, dk, dv

    return primitive(out, (q, k, v), backward, "attention_heads")


def group_mean(a, groups: int) -> Tensor:
    """Row mean of each of `groups` equal row blocks: (groups*n, d) -> (groups, d)."""
    a = _coerce(a)
    if a.data.ndim != 2 or groups < 1 or a.shape[0] % groups:
        raise ShapeError(f"group_mean: shape {a.shape} does not split into {groups} groups")
    n = a.shape[0] // groups
    return primitive(a.data.reshape(groups, n, a.shape[1]).mean(axis=1), (a,),
                     lambda g: (np.repeat(g / n, n, axis=0),), "group_mean")


def layer_norm(a, affine: tuple[Tensor, Tensor] | None = None) -> Tensor:
    """Normalize each row of a rank-2 tensor to zero mean / unit variance.

    Two modes: no affine, or `affine=(gain, bias)`, each of shape (d,), which
    gives xhat·gain + bias. A constant row normalizes to zeros (the 1e-5 added
    to the variance keeps the zero-variance case finite). The moments are
    `np.add.reduce(...) / d`, bitwise what `mean` and `var` compute.
    """
    a = _coerce(a)
    if a.data.ndim != 2:
        raise ShapeError(f"layer_norm: rank-2 input required, got shape {a.shape}")
    d = a.shape[1]
    xhat = a.data - np.add.reduce(a.data, axis=1, keepdims=True) / d
    var = np.add.reduce(np.square(xhat), axis=1, keepdims=True) / d
    inv = 1.0 / np.sqrt(var + 1e-5)
    xhat *= inv
    parents, out = (a,), xhat
    if affine is not None:
        gain, bias = affine
        if gain.shape != (d,) or bias.shape != (d,):
            raise ShapeError(f"layer_norm: gain {gain.shape} and bias {bias.shape} "
                             f"must be ({d},)")
        # xhat is saved for the backward, so the bias goes into the gain's product
        out = xhat * gain.data
        out += bias.data
        parents = (a, gain, bias)

    def backward(g):
        dx = None
        if a.requires_grad:
            gy = g if affine is None else g * gain.data
            prod = gy * xhat
            m2 = np.add.reduce(prod, axis=1, keepdims=True) / d
            dx = gy - np.add.reduce(gy, axis=1, keepdims=True) / d
            dx -= np.multiply(xhat, m2, out=prod)
            dx *= inv
        if affine is None:
            return (dx,)
        return (dx, (g * xhat).sum(axis=0) if gain.requires_grad else None,
                g.sum(axis=0) if bias.requires_grad else None)

    return primitive(out, parents, backward, "layer_norm")


def linear(x: Tensor, w: Tensor, b: Tensor) -> Tensor:
    """x @ w + b: the standard affine map over row vectors.

    One tape entry whose values and gradients are bitwise those of
    `add(matmul(x, w), b)`; the bias-free map is `matmul(x, w)`. A bias that
    broadcasts into the product is added in place into it.
    """
    x, w, b = _coerce(x), _coerce(w), _coerce(b)
    if x.data.ndim != 2 or w.data.ndim != 2 or x.shape[1] != w.shape[0]:
        raise ShapeError(f"linear: incompatible shapes {x.shape} and {w.shape}")
    y = x.data @ w.data
    if not _broadcast_ok(y.shape, b.shape):
        raise ShapeError(f"linear: incompatible shapes {y.shape} and {b.shape}")
    with quiet():
        # of two shapes `_broadcast_ok` accepts, the larger is the result's
        out = np.add(y, b.data, out=y if b.data.size <= y.size else None)

    def backward(g):
        gy = unbroadcast(g, y.shape)
        return (gy @ w.data.T if x.requires_grad else None,
                x.data.T @ gy if w.requires_grad else None,
                unbroadcast(g, b.shape) if b.requires_grad else None)

    return primitive(out, (x, w, b), backward, "linear")


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
    offsets = list(itertools.accumulate([p.shape[axis] for p in parts], initial=0))
    lead = (slice(None),) * axis

    def backward(g):
        # a contiguous slice is a view, other slices are copied
        return tuple(np.ascontiguousarray(g[lead + (slice(lo, hi),)])
                     for lo, hi in zip(offsets, offsets[1:]))

    return primitive(out, parts, backward, "concat")


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
    """Select rows by integer index; backward scatter-adds into the source.
    The identity index, such as a one-frame tile, returns `a` itself."""
    a = _coerce(a)
    if a.data.ndim != 2:
        raise ShapeError(f"gather_rows: rank-2 required, got {a.shape}")
    idx = np.asarray(idx, dtype=np.int64)
    if idx.ndim != 1:
        raise ShapeError("gather_rows: index must be 1-D")
    if idx.size and (idx.min() < 0 or idx.max() >= a.shape[0]):
        raise ShapeError(f"gather_rows: index out of range for {a.shape[0]} rows")
    if idx.size == a.shape[0] and (idx == np.arange(idx.size)).all():
        return a
    out = a.data[idx]

    def backward(g):
        return (scatter_rows(g, idx, a.shape[0]),)

    return primitive(out, (a,), backward, "gather_rows")


def bce_logits(x, targets, weights) -> Tensor:
    """Mean weighted BCE on logits, the numerically safe form."""
    x = _coerce(x)
    t = np.asarray(targets, dtype=np.float64)
    if t.shape != x.shape:
        raise ShapeError(f"bce_logits: target shape {t.shape} != input shape {x.shape}")
    w = np.asarray(weights, dtype=np.float64)
    n = max(x.data.size, 1)
    z = x.data
    elem = np.maximum(z, 0.0) - z * t + np.log1p(np.exp(-np.abs(z)))
    out = np.asarray((w * elem).sum() / n)
    sig = stable_sigmoid(z)

    def backward(g):
        return (g * w * (sig - t) / n,)

    return primitive(out, (x,), backward, "bce_logits")


def cross_entropy(logits: Tensor, labels) -> Tensor:
    """Mean softmax cross-entropy of integer class labels against logit rows."""
    logits = _coerce(logits)
    if logits.data.ndim != 2:
        raise ShapeError(f"cross_entropy: rank-2 logits required, got {logits.shape}")
    labels = np.asarray(labels, dtype=np.int64)
    n, k = logits.shape
    if labels.shape != (n,):
        raise ShapeError(f"cross_entropy: labels shape {labels.shape} != ({n},)")
    if labels.size and (labels.min() < 0 or labels.max() >= k):
        raise ShapeError(f"cross_entropy: label out of range for {k} classes")
    shifted = logits.data - logits.data.max(axis=1, keepdims=True)
    logz = np.log(np.exp(shifted).sum(axis=1))
    per_row = logz - shifted[np.arange(n), labels]
    scale = 1.0 / n
    out = np.asarray(per_row.sum() * scale)
    probs = np.exp(shifted - logz[:, None])

    def backward(g):
        d = probs.copy()
        d[np.arange(n), labels] -= 1.0
        return (g * scale * d,)

    return primitive(out, (logits,), backward, "cross_entropy")
