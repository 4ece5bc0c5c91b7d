"""Recurrent and attention building blocks shared across the encoders.

All blocks are plain containers of named parameter Tensors plus pure forward
functions. Residual branches are pre-normalized, so zeroing a branch's output
projection makes the whole block an exact identity. Multi-head attention is
three projections, one `tensor.attention_heads` op that holds every head,
and the output projection: five tape entries per call. With `groups=B` the
attention blocks take B sequences of equal length stacked as row blocks; each
attends within its own block, and every other op is row-wise. Stage 1 calls
them so in the task filter, once per batch with one group per frame; stage 2
in the relation encoder and the decoder, likewise once per batch.

Parameters name themselves: `ParamGroup.collect` keys each trainable Tensor
by its attribute path (`filter.bca_slots.attn.wq`), so renaming an attribute
renames its checkpoint record. Attributes are walked in declaration order,
which is also the order in which the optimizer sums gradients for clipping,
so reordering them changes training bitwise.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass

import numpy as np

from . import tensor as T
from .checkpoint import CheckpointError
from .tensor import ShapeError, Tensor


def param(rng: np.random.Generator, *shape: int, scale: float | None = None) -> Tensor:
    """Glorot-uniform parameter; pass scale to override the implied range."""
    if scale is None:
        fan_in = shape[0] if shape else 1
        fan_out = shape[-1] if shape else 1
        scale = float(np.sqrt(6.0 / (fan_in + fan_out)))
    return Tensor(rng.uniform(-scale, scale, size=shape), requires_grad=True)


def zeros_param(*shape: int) -> Tensor:
    return Tensor(np.zeros(shape), requires_grad=True)


def ones_param(*shape: int) -> Tensor:
    return Tensor(np.ones(shape), requires_grad=True)


class ParamGroup:
    """Named parameter registry; names become checkpoint record keys."""

    def __init__(self, prefix: str = ""):
        self.prefix = prefix
        self._params: dict[str, Tensor] = {}

    def add(self, name: str, t: Tensor) -> Tensor:
        key = f"{self.prefix}.{name}" if self.prefix else name
        if key in self._params:
            raise ValueError(f"duplicate parameter name {key}")
        self._params[key] = t
        return t

    def collect(self, prefix: str, owner) -> "ParamGroup":
        """Add every trainable Tensor of `owner` as `prefix.attr`, recursing into
        dataclass values; dataclass fields go in declaration order, other
        objects in `vars()` order. Returns self."""
        names = ([f.name for f in dataclasses.fields(owner)]
                 if dataclasses.is_dataclass(owner) else list(vars(owner)))
        for name in names:
            value = getattr(owner, name)
            if isinstance(value, Tensor) and value.requires_grad:
                self.add(f"{prefix}.{name}", value)
            elif dataclasses.is_dataclass(value):
                self.collect(f"{prefix}.{name}", value)
        return self

    def merge(self, other: "ParamGroup") -> None:
        for k, v in other._params.items():
            if k in self._params:
                raise ValueError(f"duplicate parameter name {k}")
            self._params[k] = v

    def items(self):
        return self._params.items()

    def names(self):
        return self._params.keys()

    def tensors(self) -> list[Tensor]:
        return list(self._params.values())

    def state(self) -> dict[str, np.ndarray]:
        return {k: v.data for k, v in self._params.items()}

    def load_state(self, state: dict[str, np.ndarray]) -> None:
        """Load every parameter; a missing one, a shape mismatch or a NaN or Inf
        value is a CheckpointError."""
        missing = sorted(set(self._params) - set(state))
        if missing:
            raise CheckpointError(f"checkpoint missing parameters: {missing}")
        for k, v in self._params.items():
            arr = np.asarray(state[k], dtype=np.float64)
            if arr.shape != v.data.shape:
                raise CheckpointError(
                    f"parameter {k}: checkpoint shape {arr.shape} != model shape {v.data.shape}"
                )
            if not np.isfinite(arr).all():
                raise CheckpointError(f"parameter {k}: checkpoint holds non-finite values")
            v.data = np.ascontiguousarray(arr)
            v.grad = None


@dataclass
class GRUParams:
    """Gate weights for a row-wise GRU cell: x-weights, state-weights, bias."""

    w_update: Tensor
    u_update: Tensor
    b_update: Tensor
    w_reset: Tensor
    u_reset: Tensor
    b_reset: Tensor
    w_cand: Tensor
    u_cand: Tensor
    b_cand: Tensor

    @staticmethod
    def create(rng: np.random.Generator, d: int) -> "GRUParams":
        return GRUParams(
            w_update=param(rng, d, d), u_update=param(rng, d, d), b_update=zeros_param(d),
            w_reset=param(rng, d, d), u_reset=param(rng, d, d), b_reset=zeros_param(d),
            w_cand=param(rng, d, d), u_cand=param(rng, d, d), b_cand=zeros_param(d),
        )


def gru_cell(inputs: Tensor, states: Tensor, p: GRUParams) -> Tensor:
    """One GRU step applied to each row independently, as one tape entry.

    z = σ(x W_z + s U_z + b_z), r = σ(x W_r + s U_r + b_r),
    cand = tanh(x W_c + (r ⊙ s) U_c + b_c) and out = z ⊙ s + (1 - z) ⊙ cand.
    The update gate multiplies the previous state, so a saturated gate
    (large positive bias) passes the state through unchanged.
    """
    if inputs.shape != states.shape:
        raise ShapeError(f"gru_cell: inputs {inputs.shape} != states {states.shape}")
    x, s = inputs.data, states.data
    # a gate saturates to a finite value on an infinite pre-activation
    pre_z = T.check_finite(x @ p.w_update.data + s @ p.u_update.data + p.b_update.data,
                           "gru_cell")
    z = T.stable_sigmoid(pre_z)
    pre_r = T.check_finite(x @ p.w_reset.data + s @ p.u_reset.data + p.b_reset.data,
                           "gru_cell")
    r = T.stable_sigmoid(pre_r)
    rs = r * s
    pre_c = T.check_finite(x @ p.w_cand.data + rs @ p.u_cand.data + p.b_cand.data,
                           "gru_cell")
    cand = np.tanh(pre_c)
    out = z * s + (1.0 - z) * cand
    parents = (inputs, states, p.w_update, p.u_update, p.b_update, p.w_reset, p.u_reset,
               p.b_reset, p.w_cand, p.u_cand, p.b_cand)

    def backward(g):
        g_pre_z = g * (s - cand) * z * (1.0 - z)
        g_pre_c = g * (1.0 - z) * (1.0 - cand * cand)
        g_rs = g_pre_c @ p.u_cand.data.T
        g_pre_r = g_rs * s * r * (1.0 - r)
        g_x = (g_pre_z @ p.w_update.data.T + g_pre_r @ p.w_reset.data.T
               + g_pre_c @ p.w_cand.data.T)
        g_s = g * z + g_rs * r + g_pre_z @ p.u_update.data.T + g_pre_r @ p.u_reset.data.T
        grads = (g_x, g_s, x.T @ g_pre_z, s.T @ g_pre_z, g_pre_z.sum(axis=0),
                 x.T @ g_pre_r, s.T @ g_pre_r, g_pre_r.sum(axis=0),
                 x.T @ g_pre_c, rs.T @ g_pre_c, g_pre_c.sum(axis=0))
        return tuple(grad if t.requires_grad else None for t, grad in zip(parents, grads))

    return T.primitive(out, parents, backward, "gru_cell")


@dataclass
class MhaParams:
    heads: int
    wq: Tensor
    wk: Tensor
    wv: Tensor
    wo: Tensor

    @staticmethod
    def create(rng: np.random.Generator, d: int, heads: int) -> "MhaParams":
        if d % heads:
            raise ValueError(f"width {d} not divisible by {heads} heads")
        return MhaParams(heads=heads, wq=param(rng, d, d), wk=param(rng, d, d),
                         wv=param(rng, d, d), wo=param(rng, d, d))


def multi_head_attention(queries: Tensor, context: Tensor, p: MhaParams,
                         groups: int = 1) -> Tensor:
    """Scaled dot-product cross-attention; rows of `queries` attend to `context`."""
    heads = T.attention_heads(T.matmul(queries, p.wq), T.matmul(context, p.wk),
                              T.matmul(context, p.wv), p.heads, groups)
    return T.matmul(heads, p.wo)


def attention_weights(queries: Tensor, context: Tensor, p: MhaParams) -> np.ndarray:
    """Head-averaged attention matrix (queries x context), for reports only."""
    q, k = T.matmul(queries, p.wq), T.matmul(context, p.wk)
    return T.attention_head_weights(q, k, p.heads).sum(axis=0) / p.heads


@dataclass
class NormParams:
    gain: Tensor
    bias: Tensor

    @staticmethod
    def create(d: int) -> "NormParams":
        return NormParams(gain=ones_param(d), bias=zeros_param(d))


def norm(x: Tensor, p: NormParams) -> Tensor:
    return T.layer_norm(x, (p.gain, p.bias))


@dataclass
class MlpParams:
    w1: Tensor
    b1: Tensor
    w2: Tensor
    b2: Tensor

    @staticmethod
    def create(rng: np.random.Generator, d_in: int, d_hidden: int, d_out: int) -> "MlpParams":
        return MlpParams(w1=param(rng, d_in, d_hidden), b1=zeros_param(d_hidden),
                         w2=param(rng, d_hidden, d_out), b2=zeros_param(d_out))


def mlp(x: Tensor, p: MlpParams) -> Tensor:
    return T.linear(T.relu(T.linear(x, p.w1, p.b1)), p.w2, p.b2)


@dataclass
class CrossAttentionBlockParams:
    """Pre-norm cross-attention + feed-forward block ("CAB")."""

    attn: MhaParams
    ff: MlpParams
    norm_q: NormParams
    norm_ctx: NormParams
    norm_ff: NormParams

    @staticmethod
    def create(rng: np.random.Generator, d: int, heads: int) -> "CrossAttentionBlockParams":
        return CrossAttentionBlockParams(
            attn=MhaParams.create(rng, d, heads),
            ff=MlpParams.create(rng, d, 4 * d, d),
            norm_q=NormParams.create(d),
            norm_ctx=NormParams.create(d),
            norm_ff=NormParams.create(d),
        )


def cross_attention_block(queries: Tensor, context: Tensor,
                          p: CrossAttentionBlockParams, groups: int = 1) -> Tensor:
    x = T.add(queries, multi_head_attention(norm(queries, p.norm_q),
                                            norm(context, p.norm_ctx), p.attn, groups))
    return T.add(x, mlp(norm(x, p.norm_ff), p.ff))


@dataclass
class SelfAttentionBlockParams:
    """Pre-norm self-attention + feed-forward transformer layer."""

    attn: MhaParams
    ff: MlpParams
    norm_attn: NormParams
    norm_ff: NormParams

    @staticmethod
    def create(rng: np.random.Generator, d: int, heads: int) -> "SelfAttentionBlockParams":
        return SelfAttentionBlockParams(
            attn=MhaParams.create(rng, d, heads),
            ff=MlpParams.create(rng, d, 4 * d, d),
            norm_attn=NormParams.create(d),
            norm_ff=NormParams.create(d),
        )


def self_attention_block(x: Tensor, p: SelfAttentionBlockParams,
                         groups: int = 1) -> Tensor:
    h = norm(x, p.norm_attn)
    x = T.add(x, multi_head_attention(h, h, p.attn, groups))
    return T.add(x, mlp(norm(x, p.norm_ff), p.ff))
