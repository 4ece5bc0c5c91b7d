"""The core's hot kernels match their plain forms byte for byte.

Each kernel runs beside its plain form from `reference_ops` on the same
random inputs and the same upstream gradient; the value and every gradient
must have the same bytes. `layer_norm` and `attention_heads` return None for
a parent that needs no gradient, and the others' gradients stay as they were.
"""

import numpy as np
import pytest

import slotforge.tensor as T
from slotforge.nn import ParamGroup, param
from slotforge.optim import BETA, EPS, AdaptiveOptimizer
from slotforge.slots import slot_attention
from slotforge.tensor import NonFiniteError, Tensor

from reference_ops import (plain_adaptive_step, plain_attention_heads, plain_concat,
                           plain_layer_norm, plain_linear, plain_relu, plain_slot_softmax)


def run(op, arrays, upstream, constant=()):
    """(value bytes, per-parent gradients) of op on fresh tensors of `arrays`;
    the tensors at the `constant` positions need no gradient. The op must not
    write into its parents or into the upstream gradient."""
    saved = [a.tobytes() for a in arrays + [upstream]]
    tensors = [Tensor(a, requires_grad=i not in constant) for i, a in enumerate(arrays)]
    with T.fresh_tape() as tape:
        out = op(*tensors)
        grads = tape._entries[-1][2](upstream)
    assert [a.tobytes() for a in arrays + [upstream]] == saved
    return out.data.tobytes(), grads


def assert_same_bytes(new, plain, constant=()):
    (value, grads), (plain_value, plain_grads) = new, plain
    assert value == plain_value
    assert len(grads) == len(plain_grads)
    for i, (grad, plain_grad) in enumerate(zip(grads, plain_grads)):
        if i in constant:
            assert grad is None
        else:
            assert grad.tobytes() == plain_grad.tobytes()


def layer_norm_inputs(affine):
    """Inputs of one of the two modes: no affine, or gain and bias."""
    rng = np.random.default_rng(22 if affine else 20)
    x = rng.standard_normal((6, 8)) * 3.0 + 1.5
    x[2] = 0.75  # a constant row: zero variance
    arrays = [x] + [rng.standard_normal(8) for _ in range(2 if affine else 0)]
    upstream = rng.standard_normal((6, 8))

    def op(layer_norm):
        return lambda a, *params: layer_norm(a, params or None)

    return arrays, upstream, op


class TestLayerNorm:
    @pytest.mark.parametrize("affine", [False, True], ids=["plain", "gain-bias"])
    def test_value_and_gradients_match_the_plain_form(self, affine):
        arrays, upstream, op = layer_norm_inputs(affine)
        assert_same_bytes(run(op(T.layer_norm), arrays, upstream),
                          run(op(plain_layer_norm), arrays, upstream))

    def test_a_constant_input_gets_no_gradient(self):
        arrays, upstream, op = layer_norm_inputs(True)
        assert_same_bytes(run(op(T.layer_norm), arrays, upstream, constant=(0,)),
                          run(op(plain_layer_norm), arrays, upstream), constant=(0,))

    def test_constant_gain_and_bias_get_no_gradient(self):
        arrays, upstream, op = layer_norm_inputs(True)
        assert_same_bytes(run(op(T.layer_norm), arrays, upstream, constant=(1, 2)),
                          run(op(plain_layer_norm), arrays, upstream), constant=(1, 2))

    @pytest.mark.parametrize("shape", [(8,), ()], ids=["rank-1", "rank-0"])
    def test_input_of_another_rank_is_a_shape_error(self, shape):
        with pytest.raises(T.ShapeError, match="rank-2 input required"):
            T.layer_norm(Tensor(np.ones(shape)))


def attention_inputs(groups, heads):
    rng = np.random.default_rng(groups * 10 + heads)
    n, m, d = 3 * groups, 5 * groups, 8
    arrays = [rng.standard_normal(shape) * 2.0 for shape in ((n, d), (m, d), (m, d))]
    return arrays, rng.standard_normal((n, d))


def heads_op(attend, heads, groups):
    return lambda q, k, v: attend(q, k, v, heads, groups)


class TestAttentionHeads:
    @pytest.mark.parametrize("heads", [1, 2, 4])
    @pytest.mark.parametrize("groups", [1, 3])
    def test_value_and_gradients_match_the_plain_form(self, groups, heads):
        arrays, upstream = attention_inputs(groups, heads)
        assert_same_bytes(run(heads_op(T.attention_heads, heads, groups), arrays, upstream),
                          run(heads_op(plain_attention_heads, heads, groups), arrays,
                              upstream))

    @pytest.mark.parametrize("constant", [(0,), (1,), (2,), (0, 1), (1, 2), (0, 2)])
    @pytest.mark.parametrize("groups", [1, 3])
    def test_constant_parents_get_no_gradient(self, groups, constant):
        arrays, upstream = attention_inputs(groups, 2)
        assert_same_bytes(run(heads_op(T.attention_heads, 2, groups), arrays, upstream,
                              constant),
                          run(heads_op(plain_attention_heads, 2, groups), arrays, upstream),
                          constant)


class TestLinear:
    @pytest.mark.parametrize("bias", [(5,), (4, 1), (1, 5), (), (4, 5)])
    def test_value_and_gradients_match_the_plain_form(self, bias):
        rng = np.random.default_rng(len(bias) * 7 + sum(bias))
        arrays = [rng.standard_normal((4, 3)), rng.standard_normal((3, 5)),
                  rng.standard_normal(bias)]
        upstream = rng.standard_normal((4, 5))
        assert_same_bytes(run(T.linear, arrays, upstream),
                          run(plain_linear, arrays, upstream))


class TestRelu:
    def test_gradient_matches_the_plain_form_with_signed_zeros_and_nan(self):
        rng = np.random.default_rng(5)
        x = rng.standard_normal((6, 7))
        x[0, :3] = (0.0, -0.0, 1e-300)
        upstream = rng.standard_normal((6, 7))
        upstream[1, :4] = (np.nan, -np.inf, np.inf, -0.0)
        x[1, :4] = (-1.0, -2.0, 3.0, 4.0)
        with np.errstate(invalid="ignore"):
            assert_same_bytes(run(T.relu, [x], upstream), run(plain_relu, [x], upstream))


class TestConcat:
    @pytest.mark.parametrize("axis", [0, 1])
    def test_value_and_gradients_match_the_plain_form(self, axis):
        rng = np.random.default_rng(axis)
        shapes = [(2, 3), (4, 3), (1, 3)] if axis == 0 else [(3, 2), (3, 4), (3, 1)]
        arrays = [rng.standard_normal(shape) for shape in shapes]
        upstream = rng.standard_normal((7, 3) if axis == 0 else (3, 7))
        new = run(lambda *p: T.concat(p, axis=axis), arrays, upstream)
        assert_same_bytes(new, run(lambda *p: plain_concat(p, axis=axis), arrays, upstream))
        assert all(grad.flags["C_CONTIGUOUS"] for grad in new[1])


class TestSlotAttention:
    @pytest.mark.parametrize("groups", [1, 3])
    def test_attention_map_matches_the_plain_softmax(self, groups):
        rng = np.random.default_rng(groups)
        keys, values = (rng.standard_normal((7 * groups, 6)) * 2.0 for _ in range(2))
        slots, wq = rng.standard_normal((4 * groups, 6)), rng.standard_normal((6, 6))
        _, weights = slot_attention(Tensor(keys), Tensor(values), Tensor(slots),
                                    Tensor(wq), groups)
        plain = plain_slot_softmax(keys, slots, wq, groups)
        assert weights.tobytes() == (plain / np.maximum(plain.sum(axis=1, keepdims=True),
                                                        1e-8)).tobytes()


def make_optimizer(clip_norm):
    group = ParamGroup("m")
    rng = np.random.default_rng(0)
    group.add("w", param(rng, 5, 4))
    group.add("b", param(rng, 4))
    group.add("s", param(rng, 1))
    return AdaptiveOptimizer(group, lr=3e-2, total_steps=10, clip_norm=clip_norm)


class TestAdaptiveOptimizer:
    @pytest.mark.parametrize("clip_norm", [0.5, 1e6])
    def test_updates_match_the_plain_step(self, clip_norm):
        opt = make_optimizer(clip_norm)
        params = {name: t.data.copy() for name, t in opt.params.items()}
        moments = {name: np.zeros_like(a) for name, a in params.items()}
        rng = np.random.default_rng(1)
        for _ in range(4):
            grads = {name: rng.standard_normal(a.shape) for name, a in params.items()}
            for name, t in opt.params.items():
                t.grad = grads[name].copy()
            lr = opt.current_lr()
            opt.step()
            plain_adaptive_step(params, grads, moments, lr, opt.step_count, clip_norm,
                                BETA, EPS)
            state = opt.state()
            for name, t in opt.params.items():
                assert t.data.tobytes() == params[name].tobytes()
                assert t.grad.tobytes() == grads[name].tobytes()
                assert state[f"opt.{name}.v"].tobytes() == moments[name].tobytes()

    def test_a_non_finite_gradient_raises_before_anything_changes(self):
        opt = make_optimizer(10.0)
        tensors = dict(opt.params.items())
        tensors["m.w"].grad = np.full((5, 4), 0.5)
        tensors["m.b"].grad = np.array([1.0, np.nan, 0.0, 0.0])
        tensors["m.s"].grad = np.array([np.inf])
        before = {k: v.tobytes() for k, v in (opt.params.state() | opt.state()).items()}
        grads = {name: t.grad.tobytes() for name, t in tensors.items()}
        with pytest.raises(NonFiniteError, match=r"gradient for parameter m\.b$"), \
                np.errstate(invalid="ignore"):
            opt.step()
        assert {k: v.tobytes() for k, v in (opt.params.state() | opt.state()).items()} == before
        assert {name: t.grad.tobytes() for name, t in tensors.items()} == grads

    def test_finite_gradients_whose_squared_sum_overflows_raise_before_anything_changes(self):
        # clip_norm / inf would zero every gradient, and the step would still count
        opt = make_optimizer(10.0)
        for t in opt.params.tensors():
            t.grad = np.full(t.data.shape, 1e200)
        before = {k: v.tobytes() for k, v in (opt.params.state() | opt.state()).items()}
        with pytest.raises(NonFiniteError, match="^global gradient norm overflows float64$"), \
                np.errstate(over="ignore"):
            opt.step()
        assert {k: v.tobytes() for k, v in (opt.params.state() | opt.state()).items()} == before
        assert all((t.grad == 1e200).all() for t in opt.params.tensors())
