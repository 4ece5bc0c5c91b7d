"""Tensor core: forward contracts, gradient checks, tape determinism."""

import weakref

import numpy as np
import pytest

import slotforge.tensor as T
from slotforge import nn
from slotforge.tensor import NonFiniteError, ShapeError, Tensor
from reference_ops import finite_diff_check, logsumexp_rows, neg, slice_cols, softmax, tanh


def rand_tensor(rng, *shape, requires_grad=True):
    return Tensor(rng.standard_normal(shape), requires_grad=requires_grad)


def assert_all_close(actual, expected):
    """Pairwise within 1e-12, relative or absolute; None exactly where None."""
    assert len(actual) == len(expected)
    for a, e in zip(actual, expected):
        assert (a is None) == (e is None)
        if a is not None:
            np.testing.assert_allclose(a, e, rtol=1e-12, atol=1e-12)


class TestMatmul:
    def test_identity(self):
        eye = Tensor(np.eye(2))
        m = Tensor([[1.0, 2.0], [3.0, 4.0]])
        assert np.array_equal(T.matmul(eye, m).data, m.data)

    def test_projector_row_select(self):
        proj = Tensor([[1.0, 0.0], [0.0, 0.0]])
        m = Tensor([[5.0, 6.0], [7.0, 8.0]])
        assert np.array_equal(T.matmul(proj, m).data, [[5.0, 6.0], [0.0, 0.0]])

    def test_gradient_vs_finite_differences(self):
        rng = np.random.default_rng(0)
        a = rand_tensor(rng, 3, 4)
        b = rand_tensor(rng, 4, 2)
        err = finite_diff_check(lambda: T.sum_(T.matmul(a, b)), [a, b])
        assert err <= 1e-4

    def test_shape_mismatch_mentions_both_shapes(self):
        with pytest.raises(ShapeError, match=r"\(2, 3\).*\(2, 3\)"):
            T.matmul(Tensor(np.zeros((2, 3))), Tensor(np.zeros((2, 3))))


class TestSoftmax:
    def test_uniform_input(self):
        out = softmax(Tensor([0.0, 0.0, 0.0]), axis=0)
        assert np.allclose(out.data, 1.0 / 3.0, atol=1e-15)

    def test_extreme_input_no_overflow(self):
        out = softmax(Tensor([1000.0, 0.0, 0.0]), axis=0)
        assert out.data[0] == pytest.approx(1.0)
        assert out.data[1] < 1e-300

    def test_rows_sum_to_one_at_extremes(self):
        rng = np.random.default_rng(1)
        for _ in range(50):
            x = Tensor(rng.uniform(-1e3, 1e3, size=(4, 6)))
            out = softmax(x, axis=1)
            assert np.all(np.abs(out.data.sum(axis=1) - 1.0) <= 1e-12)

    def test_gradient(self):
        rng = np.random.default_rng(2)
        x = rand_tensor(rng, 5)
        w = Tensor(rng.standard_normal(5))
        err = finite_diff_check(lambda: T.sum_(T.mul(softmax(x, axis=0), w)), [x])
        assert err <= 1e-4


def unfused_heads(q, k, v, heads):
    """The per-head slice/transpose/matmul/mul/softmax/matmul/concat graph
    that `attention_heads` replaces, op for op."""
    dh = q.shape[1] // heads
    outs = []
    for h in range(heads):
        qh = slice_cols(q, h * dh, (h + 1) * dh)
        kh = slice_cols(k, h * dh, (h + 1) * dh)
        vh = slice_cols(v, h * dh, (h + 1) * dh)
        logits = T.mul(T.matmul(qh, T.transpose(kh)), 1.0 / np.sqrt(dh))
        outs.append(T.matmul(softmax(logits, axis=1), vh))
    return T.concat(outs, axis=1)


class TestAttentionHeads:
    @pytest.mark.parametrize("heads", [1, 2, 4])
    def test_gradient_vs_finite_differences(self, heads):
        rng = np.random.default_rng(20 + heads)
        q = rand_tensor(rng, 3, 8)
        k = rand_tensor(rng, 5, 8)
        v = rand_tensor(rng, 5, 8)
        w = Tensor(rng.standard_normal((3, 8)))
        err = finite_diff_check(
            lambda: T.sum_(T.mul(T.attention_heads(q, k, v, heads), w)), [q, k, v])
        assert err <= 1e-4

    @pytest.mark.parametrize("n,m,d,heads", [(3, 5, 8, 1), (3, 5, 8, 2), (4, 7, 16, 4),
                                             (1, 6, 8, 4), (5, 1, 8, 2), (16, 9, 64, 4)])
    def test_bitwise_equal_to_unfused_graph(self, n, m, d, heads):
        rng = np.random.default_rng(n * 100 + m * 10 + heads)
        data = [rng.standard_normal(shape) for shape in ((n, d), (m, d), (m, d))]
        wo = Tensor(rng.standard_normal((d, d)))
        weight = Tensor(rng.standard_normal((n, d)))
        results = []
        for attend in (unfused_heads, T.attention_heads):
            q, k, v = (Tensor(x, requires_grad=True) for x in data)
            with T.fresh_tape() as tape:
                out = attend(q, k, v, heads)
                tape.backward(T.sum_(T.mul(T.matmul(out, wo), weight)))
            results.append([out.data] + [t.grad for t in (q, k, v)])
        assert_all_close(results[1], results[0])

    def test_head_weights_match_unfused_softmax(self):
        rng = np.random.default_rng(30)
        q, k = rng.standard_normal((4, 8)), rng.standard_normal((6, 8))
        weights = T.attention_head_weights(Tensor(q), Tensor(k), 2)
        assert weights.shape == (2, 4, 6)
        for h in range(2):
            logits = T.mul(T.matmul(Tensor(q[:, 4 * h:4 * h + 4]),
                                    Tensor(k[:, 4 * h:4 * h + 4].T)), 1.0 / np.sqrt(4))
            assert weights[h].tobytes() == softmax(logits, axis=1).data.tobytes()

    def test_one_tape_entry_per_multi_head_attention(self):
        rng = np.random.default_rng(31)
        p = nn.MhaParams.create(rng, 8, 4)
        with T.fresh_tape() as tape:
            nn.multi_head_attention(rand_tensor(rng, 3, 8), rand_tensor(rng, 5, 8), p)
        assert len(tape) == 5

    def test_overflowing_logits_raise(self):
        big = Tensor(np.full((2, 4), 1e160), requires_grad=True)
        with pytest.raises(NonFiniteError, match="attention logits"):
            T.attention_heads(big, big, big, 2)

    def test_width_not_divisible_by_heads(self):
        x = Tensor(np.zeros((2, 6)))
        with pytest.raises(ShapeError, match="not divisible"):
            T.attention_heads(x, x, x, 4)

    def test_query_and_key_widths_differ(self):
        with pytest.raises(ShapeError, match="differ in width"):
            T.attention_heads(Tensor(np.zeros((2, 8))), Tensor(np.zeros((3, 4))),
                              Tensor(np.zeros((3, 4))), 2)


class TestGroupedRows:
    """`attention_heads(..., groups)` and `group_mean` on row-stacked blocks."""

    def test_grouped_attention_gradient_vs_finite_differences(self):
        rng = np.random.default_rng(40)
        q = rand_tensor(rng, 3 * 2, 8)
        k, v = rand_tensor(rng, 3 * 4, 8), rand_tensor(rng, 3 * 4, 8)
        w = Tensor(rng.standard_normal((6, 8)))
        err = finite_diff_check(
            lambda: T.sum_(T.mul(T.attention_heads(q, k, v, 2, groups=3), w)), [q, k, v])
        assert err <= 1e-4

    def test_grouped_attention_matches_each_group_alone(self):
        rng = np.random.default_rng(41)
        data = [rng.standard_normal(shape) for shape in ((3 * 2, 8), (3 * 5, 8), (3 * 5, 8))]
        weight = Tensor(rng.standard_normal((6, 8)))

        def one_graph(q, k, v):
            return T.attention_heads(q, k, v, 2, groups=3)

        def per_group(q, k, v):
            return T.concat([T.attention_heads(T.gather_rows(q, range(2 * g, 2 * g + 2)),
                                               T.gather_rows(k, range(5 * g, 5 * g + 5)),
                                               T.gather_rows(v, range(5 * g, 5 * g + 5)), 2)
                             for g in range(3)], axis=0)

        results = []
        for attend in (per_group, one_graph):
            q, k, v = (Tensor(x, requires_grad=True) for x in data)
            with T.fresh_tape() as tape:
                out = attend(q, k, v)
                tape.backward(T.sum_(T.mul(out, weight)))
            results.append([out.data] + [t.grad for t in (q, k, v)])
        assert_all_close(results[1], results[0])

    def test_group_mean_gradient_vs_finite_differences(self):
        rng = np.random.default_rng(42)
        x = rand_tensor(rng, 4 * 3, 5)
        w = Tensor(rng.standard_normal((4, 5)))
        assert finite_diff_check(lambda: T.sum_(T.mul(T.group_mean(x, 4), w)), [x]) <= 1e-4

    def test_group_mean_is_the_mean_of_each_block(self):
        x = np.random.default_rng(43).standard_normal((4 * 3, 5))
        out = T.group_mean(Tensor(x), 4).data
        assert out.shape == (4, 5)
        np.testing.assert_allclose(out, x.reshape(4, 3, 5).mean(axis=1), rtol=0, atol=1e-15)

    def test_one_tape_entry_each(self):
        rng = np.random.default_rng(44)
        x = rand_tensor(rng, 6, 8)
        with T.fresh_tape() as tape:
            T.group_mean(T.attention_heads(x, x, x, 2, groups=3), 3)
        assert len(tape) == 2

    def test_rows_that_do_not_split_into_groups_raise(self):
        x = Tensor(np.zeros((4, 8)))
        with pytest.raises(ShapeError, match="do not split into 3 groups"):
            T.attention_heads(x, x, x, 2, groups=3)
        with pytest.raises(ShapeError, match="does not split into 3 groups"):
            T.group_mean(x, 3)


def graph_gru_cell(inputs, states, p):
    """The 20-entry graph that the fused `nn.gru_cell` replaced, op for op."""
    z = T.sigmoid(T.add(T.add(T.matmul(inputs, p.w_update), T.matmul(states, p.u_update)),
                        p.b_update))
    r = T.sigmoid(T.add(T.add(T.matmul(inputs, p.w_reset), T.matmul(states, p.u_reset)),
                        p.b_reset))
    cand = tanh(T.add(T.add(T.matmul(inputs, p.w_cand), T.matmul(T.mul(r, states), p.u_cand)),
                      p.b_cand))
    return T.add(T.mul(z, states), T.mul(T.sub(1.0, z), cand))


def gru_run(cell, n, d, states_kind, seed, upstream="normal"):
    """Value and every leaf gradient after one cell call.

    The inputs are produced by an op; the states are a leaf, a produced
    tensor or a constant. Both are used again after the cell, so the cell's
    gradients add onto ones that arrived before them."""
    rng = np.random.default_rng(seed)
    p = nn.GRUParams.create(np.random.default_rng(seed + 1), d)
    for b in (p.b_update, p.b_reset, p.b_cand):
        b.data[...] = rng.standard_normal(d)
    x_leaf = rand_tensor(rng, n, d)
    s_leaf = rand_tensor(rng, n, d, requires_grad=states_kind != "constant")
    weight = rng.standard_normal((n, d))
    if upstream == "sparse":
        weight[::2] = 0.0
        weight[1::3] = -0.0
    with T.fresh_tape() as tape:
        inputs = T.mul(x_leaf, 0.75)
        states = T.mul(s_leaf, 1.5) if states_kind == "produced" else s_leaf
        out = cell(inputs, states, p)
        loss = T.add(T.sum_(T.mul(tanh(out), Tensor(weight))),
                     T.sum_(T.mul(T.add(inputs, states), 0.5)))
        tape.backward(loss)
    leaves = [x_leaf, s_leaf] + [getattr(p, name) for name in vars(p)]
    return [out.data] + [t.grad for t in leaves]


class TestGruCell:
    @pytest.mark.parametrize("states_kind", ["leaf", "produced", "constant"])
    @pytest.mark.parametrize("n,d", [(16, 64), (1, 8), (3, 8), (5, 16)])
    def test_bitwise_equal_to_the_unfused_graph(self, n, d, states_kind):
        for upstream in ("normal", "sparse"):
            fused = gru_run(nn.gru_cell, n, d, states_kind, n * 100 + d, upstream)
            graph = gru_run(graph_gru_cell, n, d, states_kind, n * 100 + d, upstream)
            assert_all_close(fused, graph)
        assert (fused[2] is None) == (states_kind == "constant")

    def test_one_tape_entry_against_twenty(self):
        rng = np.random.default_rng(1)
        p = nn.GRUParams.create(rng, 8)
        x, s = rand_tensor(rng, 3, 8), rand_tensor(rng, 3, 8)
        for cell, entries in ((nn.gru_cell, 1), (graph_gru_cell, 20)):
            with T.fresh_tape() as tape:
                cell(x, s, p)
            assert len(tape) == entries

    def test_infinite_gate_pre_activation_raises_naming_the_cell(self):
        # z saturates to exactly 1, so the output alone would look finite
        rng = np.random.default_rng(2)
        p = nn.GRUParams.create(rng, 4)
        p.u_update.data[...] = 1e300
        states = Tensor(np.full((2, 4), 1e10), requires_grad=True)
        with pytest.raises(NonFiniteError, match="gru_cell"):
            nn.gru_cell(Tensor(np.zeros((2, 4))), states, p)

    def test_zero_everything_gives_zero(self):
        rng = np.random.default_rng(0)
        p = nn.GRUParams.create(rng, 4)
        for name in vars(p):
            getattr(p, name).data[...] = 0.0
        out = nn.gru_cell(Tensor(np.zeros((2, 4))), Tensor(np.zeros((2, 4))), p)
        assert np.array_equal(out.data, np.zeros((2, 4)))

    def test_saturated_update_gate_passes_state(self):
        rng = np.random.default_rng(0)
        p = nn.GRUParams.create(rng, 4)
        p.b_update.data[...] = 50.0
        states = Tensor(rng.standard_normal((3, 4)))
        out = nn.gru_cell(Tensor(rng.standard_normal((3, 4))), states, p)
        assert np.allclose(out.data, states.data, atol=1e-12)

    def test_all_parameter_gradient(self):
        rng = np.random.default_rng(3)
        p = nn.GRUParams.create(rng, 8)
        inputs = rand_tensor(rng, 4, 8)
        states = rand_tensor(rng, 4, 8)
        wrt = [inputs, states] + [getattr(p, n) for n in vars(p)]
        err = finite_diff_check(lambda: T.sum_(nn.gru_cell(inputs, states, p)), wrt)
        assert err <= 1e-4

    def test_shape_mismatch(self):
        rng = np.random.default_rng(0)
        p = nn.GRUParams.create(rng, 4)
        with pytest.raises(ShapeError):
            nn.gru_cell(Tensor(np.zeros((2, 4))), Tensor(np.zeros((3, 4))), p)


class TestLayerNorm:
    def test_zero_variance_row_is_finite_zero(self):
        out = T.layer_norm(Tensor([[3.0, 3.0, 3.0]]))
        assert np.allclose(out.data, 0.0)

    def test_affine_gradient(self):
        rng = np.random.default_rng(4)
        x = rand_tensor(rng, 3, 6)
        g = Tensor(rng.standard_normal(6), requires_grad=True)
        b = Tensor(rng.standard_normal(6), requires_grad=True)
        err = finite_diff_check(lambda: T.sum_(T.mul(T.layer_norm(x, (g, b)),
                                                     T.layer_norm(x, (g, b)))), [x, g, b])
        assert err <= 1e-4


class TestReductionsAndElementwise:
    @pytest.mark.parametrize("op", ["add", "sub", "mul", "div", "sigmoid", "tanh",
                                    "exp", "sqrt", "concat", "mean", "linear", "abs"])
    def test_gradients(self, op):
        rng = np.random.default_rng(hash(op) % 2**32)
        a = rand_tensor(rng, 3, 4)
        b = rand_tensor(rng, 3, 4)
        pos = Tensor(rng.uniform(0.5, 2.0, size=(3, 4)), requires_grad=True)
        w = Tensor(rng.standard_normal((4, 2)), requires_grad=True)
        bias = Tensor(rng.standard_normal(2), requires_grad=True)
        funcs = {
            "add": (lambda: T.sum_(T.add(a, b)), [a, b]),
            "sub": (lambda: T.sum_(T.sub(a, b)), [a, b]),
            "mul": (lambda: T.sum_(T.mul(a, b)), [a, b]),
            "div": (lambda: T.sum_(T.div(a, pos)), [a, pos]),
            "sigmoid": (lambda: T.sum_(T.mul(T.sigmoid(a), T.sigmoid(a))), [a]),
            "tanh": (lambda: T.sum_(T.mul(tanh(a), b)), [a, b]),
            "exp": (lambda: T.sum_(T.exp(T.mul(a, 0.3))), [a]),
            "sqrt": (lambda: T.sum_(T.sqrt(pos)), [pos]),
            "concat": (lambda: T.sum_(T.mul(T.concat([a, b], axis=1),
                                            T.concat([b, a], axis=1))), [a, b]),
            "mean": (lambda: T.mean(T.mul(a, a)), [a]),
            "linear": (lambda: T.sum_(tanh(T.linear(a, w, bias))), [a, w, bias]),
            "abs": (lambda: T.sum_(T.mul(T.abs_(a), b)), [a]),
        }
        f, wrt = funcs[op]
        assert finite_diff_check(f, wrt) <= 1e-4

    def test_row_and_column_broadcast(self):
        rng = np.random.default_rng(7)
        x = rand_tensor(rng, 3, 4)
        row = Tensor(rng.standard_normal(4), requires_grad=True)
        col = Tensor(rng.standard_normal((3, 1)), requires_grad=True)
        err = finite_diff_check(lambda: T.sum_(T.mul(T.add(x, row), col)), [x, row, col])
        assert err <= 1e-4

    def test_disallowed_broadcast(self):
        with pytest.raises(ShapeError):
            T.add(Tensor(np.zeros((3, 4))), Tensor(np.zeros((4, 3))))

    def test_gather_scatter_gradient(self):
        rng = np.random.default_rng(8)
        x = rand_tensor(rng, 5, 3)
        idx = [0, 2, 2, 4]
        err = finite_diff_check(lambda: T.sum_(T.mul(T.gather_rows(x, idx),
                                                     T.gather_rows(x, idx))), [x])
        assert err <= 1e-4

    def test_slice_cols_gradient(self):
        rng = np.random.default_rng(9)
        x = rand_tensor(rng, 4, 6)
        err = finite_diff_check(lambda: T.sum_(T.mul(slice_cols(x, 1, 4),
                                                     slice_cols(x, 2, 5))), [x])
        assert err <= 1e-4


class TestScatterRows:
    """gather_rows' backward, on each of its three paths, is bitwise np.add.at."""

    INDICES = {
        "tile": lambda rng, rows: np.tile(np.arange(rows), 20),
        "one tile": lambda rng, rows: np.arange(rows),
        "unique": lambda rng, rows: rng.permutation(rows)[:max(rows - 2, 1)],
        "repeated": lambda rng, rows: np.tile(rng.integers(0, rows, 3 * rows), 10),
        "tile out of order": lambda rng, rows: np.tile(rng.permutation(rows), 3),
        "empty": lambda rng, rows: np.zeros(0, dtype=np.int64),
    }

    @staticmethod
    def add_at(g, idx, rows):
        full = np.zeros((rows, g.shape[1]))
        np.add.at(full, idx, g)
        return full

    @pytest.mark.parametrize("kind", sorted(INDICES))
    @pytest.mark.parametrize("grad", ["normal", "wide", "zero", "negative zero", "mixed zero",
                                      "transposed"])
    @pytest.mark.parametrize("rows, d", [(7, 5), (1, 1), (1, 6), (6, 1)])
    def test_bitwise_add_at(self, kind, grad, rows, d):
        rng = np.random.default_rng(11)
        idx = self.INDICES[kind](rng, rows).astype(np.int64)
        shape = (idx.size, d)
        g = {"transposed": lambda: rng.standard_normal(shape[::-1]).T,
             "normal": lambda: rng.standard_normal(shape),
             "wide": lambda: rng.standard_normal(shape) * 10.0 ** rng.integers(-9, 9, shape),
             "zero": lambda: np.zeros(shape),
             "negative zero": lambda: -np.zeros(shape),
             "mixed zero": lambda: np.where(rng.random(shape) < 0.5, -0.0, 0.0)}[grad]()
        out = T.scatter_rows(g, idx, rows)
        ref = self.add_at(g, idx, rows)
        assert out.shape == ref.shape and out.dtype == ref.dtype
        assert out.tobytes() == ref.tobytes()

    def test_gradient_reaches_the_source_rows(self):
        rng = np.random.default_rng(12)
        x = rand_tensor(rng, 4, 3)
        idx = np.tile(np.arange(4), 3)
        upstream = rng.standard_normal((12, 3))
        with T.fresh_tape() as tape:
            out = T.sum_(T.mul(T.gather_rows(x, idx), Tensor(upstream)))
            tape.backward(out)
        assert x.grad.tobytes() == self.add_at(upstream, idx, 4).tobytes()


class TestAbs:
    @pytest.mark.parametrize("upstream", [1.5, -2.0, 0.0, -0.0])
    def test_bitwise_equal_to_the_relu_pair(self, upstream):
        data = np.array([[-1.5, -0.0, 0.0, 2.25], [1e-300, -1e-300, 3.0, -7.0]])
        weight = Tensor(np.array([[1.0, -1.0, 2.0, -0.5], [0.0, 1.0, -3.0, 1.0]]) * upstream)
        results = []
        for absolute in (lambda x: T.add(T.relu(x), T.relu(neg(x))), T.abs_):
            x = Tensor(data, requires_grad=True)
            with T.fresh_tape() as tape:
                out = absolute(x)
                tape.backward(T.sum_(T.mul(out, weight)))
            results.append([out.data, x.grad])
        assert_all_close(results[1], results[0])

    def test_gradient_at_zero_is_zero(self):
        x = Tensor(np.array([[0.0, -0.0]]), requires_grad=True)
        with T.fresh_tape() as tape:
            tape.backward(T.sum_(T.mul(T.abs_(x), -1.0)))
        assert x.grad.tolist() == [[0.0, 0.0]]

    def test_one_tape_entry(self):
        with T.fresh_tape() as tape:
            T.abs_(Tensor(np.ones((2, 3)), requires_grad=True))
        assert len(tape) == 1


class TestPrimitive:
    def test_records_one_entry_with_its_backward(self):
        x = Tensor(np.array([[1.0, 2.0]]), requires_grad=True)
        with T.fresh_tape() as tape:
            out = T.primitive(x.data * 3.0, (x,), lambda g: (g * 3.0,), "triple")
            tape.backward(T.sum_(out))
        assert len(tape) == 2 and x.grad.tolist() == [[3.0, 3.0]]

    def test_non_finite_value_names_the_op(self):
        x = Tensor(np.ones(2), requires_grad=True)
        with pytest.raises(NonFiniteError, match="triple"):
            T.primitive(np.array([1.0, np.inf]), (x,), lambda g: (g,), "triple")


class TestLossPrimitives:
    def test_bce_gradient(self):
        rng = np.random.default_rng(10)
        x = Tensor(rng.uniform(-2.0, 2.0, size=(6,)), requires_grad=True)
        targets = rng.integers(0, 2, size=6).astype(float)
        weights = rng.uniform(0.5, 2.0, size=6)
        err = finite_diff_check(lambda: T.bce_logits(x, targets, weights), [x])
        assert err <= 1e-4

    def test_bce_logits_matches_probability_form(self):
        rng = np.random.default_rng(11)
        x = Tensor(rng.standard_normal(8))
        t = rng.integers(0, 2, size=8).astype(float)
        weights = rng.uniform(0.5, 2.0, size=8)
        p = 1.0 / (1.0 + np.exp(-x.data))
        via_probs = np.mean(-weights * (t * np.log(p) + (1.0 - t) * np.log(1.0 - p)))
        assert T.bce_logits(x, t, weights).item() == pytest.approx(via_probs, rel=1e-12)

    def test_bce_logits_extreme_logits_stay_finite(self):
        x = Tensor([800.0, -800.0])
        assert np.isfinite(T.bce_logits(x, np.array([1.0, 0.0]), np.ones(2)).item())

    def test_cross_entropy_gradient(self):
        rng = np.random.default_rng(12)
        logits = rand_tensor(rng, 4, 5)
        labels = rng.integers(0, 5, size=4)
        err = finite_diff_check(lambda: T.cross_entropy(logits, labels), [logits])
        assert err <= 1e-4

    def test_cross_entropy_uniform_logits(self):
        logits = Tensor(np.zeros((3, 7)))
        assert T.cross_entropy(logits, [0, 3, 6]).item() == pytest.approx(np.log(7))

    def test_logsumexp_gradient(self):
        rng = np.random.default_rng(13)
        x = rand_tensor(rng, 3, 5)
        err = finite_diff_check(lambda: T.sum_(logsumexp_rows(x)), [x])
        assert err <= 1e-4


class TestFiniteDiffOracle:
    def test_quadratic_closed_form(self):
        x = Tensor([1.0, 2.0], requires_grad=True)
        with T.fresh_tape() as tape:
            loss = T.sum_(T.mul(x, x))
            tape.backward(loss)
        assert np.allclose(x.grad, [2.0, 4.0])
        x.grad = None
        assert finite_diff_check(lambda: T.sum_(T.mul(x, x)), [x]) <= 1e-8

    def test_softmax_cross_entropy_self_test(self):
        rng = np.random.default_rng(14)
        logits = rand_tensor(rng, 1, 3)
        err = finite_diff_check(lambda: T.cross_entropy(logits, [1]), [logits])
        assert err <= 1e-6

    def test_eps_out_of_range(self):
        x = Tensor([1.0], requires_grad=True)
        with pytest.raises(ValueError):
            finite_diff_check(lambda: T.sum_(x), [x], eps=1e-2)


class TestNanPolicy:
    def test_construction_rejects_nan(self):
        with pytest.raises(NonFiniteError):
            Tensor([np.nan])

    def test_forward_overflow_raises(self):
        with pytest.raises(NonFiniteError):
            T.exp(Tensor([1000.0]))

    def test_division_by_zero_raises(self):
        with pytest.raises(NonFiniteError):
            T.div(Tensor([1.0]), Tensor([0.0]))


class TestTapeSemantics:
    def test_backward_deterministic_bitwise(self):
        def run():
            rng = np.random.default_rng(99)
            a = rand_tensor(rng, 6, 6)
            b = rand_tensor(rng, 6, 6)
            with T.fresh_tape() as tape:
                loss = T.mean(T.mul(tanh(T.matmul(a, b)), T.sigmoid(T.add(a, b))))
                tape.backward(loss)
            return a.grad.tobytes(), b.grad.tobytes()

        assert run() == run()

    def test_grad_accumulates_for_shared_input(self):
        x = Tensor([3.0], requires_grad=True)
        with T.fresh_tape() as tape:
            loss = T.sum_(T.mul(x, x))
            tape.backward(loss)
        assert np.allclose(x.grad, [6.0])

    def test_no_grad_skips_recording(self):
        x = Tensor([1.0], requires_grad=True)
        with T.fresh_tape() as tape:
            with T.no_grad():
                y = T.mul(x, x)
            assert len(tape) == 0
            assert not y.requires_grad

    def test_ops_outside_a_tape_record_nothing_and_hold_nothing(self):
        w = Tensor([[0.5, -1.0], [2.0, 0.25]], requires_grad=True)
        x = Tensor([[1.0, 2.0]])

        def chain():
            hidden = T.matmul(x, w)
            return hidden, T.sum_(T.mul(hidden, hidden))

        hidden, loss = chain()
        assert not hidden.requires_grad and not loss.requires_grad
        alive = weakref.ref(hidden.data)
        del hidden
        assert alive() is None  # no tape holds the graph once the caller lets go
        with T.fresh_tape() as tape:
            hidden, loss = chain()
            assert hidden.requires_grad and loss.requires_grad and len(tape) == 3
            tape.backward(loss)
        np.testing.assert_allclose(w.grad, x.data.T @ (2 * hidden.data), rtol=1e-12)

    def test_detach_breaks_history(self):
        x = Tensor([2.0], requires_grad=True)
        with T.fresh_tape() as tape:
            y = T.mul(x, x).detach()
            loss = T.sum_(T.mul(y, y))
            tape.backward(loss)
        assert x.grad is None

    def test_randomized_shapes_property(self):
        rng = np.random.default_rng(1234)
        for _ in range(50):
            m, k, n = rng.integers(1, 5, size=3)
            a = rand_tensor(rng, m, k)
            b = rand_tensor(rng, k, n)
            err = finite_diff_check(
                lambda: T.mean(tanh(T.matmul(a, b))), [a, b])
            assert err <= 1e-4


def parent_grads(tape, g):
    """The per-parent gradients of the tape's last entry for output gradient g."""
    return tape._entries[-1][2](g)


class TestLinear:
    @pytest.mark.parametrize("n,k,d,bias", [(3, 4, 5, (5,)), (1, 3, 4, (4,)),
                                            (2, 6, 1, (1,)), (4, 3, 1, (1,)),
                                            (3, 4, 5, (3, 1)), (3, 4, 1, (3, 5))])
    def test_bitwise_equal_to_matmul_plus_add(self, n, k, d, bias):
        rng = np.random.default_rng(n * 100 + k * 10 + d)
        data = [rng.standard_normal((n, k)), rng.standard_normal((k, d)),
                rng.standard_normal(bias)]
        weight = Tensor(rng.standard_normal(np.broadcast_shapes((n, d), bias)))
        results = []
        for affine in (lambda x, w, b: T.add(T.matmul(x, w), b), T.linear):
            x, w, b = (Tensor(a, requires_grad=True) for a in data)
            with T.fresh_tape() as tape:
                out = affine(x, w, b)
                tape.backward(T.sum_(T.mul(tanh(out), weight)))
            results.append([out.data.tobytes()] + [t.grad.tobytes() for t in (x, w, b)])
        assert results[0] == results[1]

    def test_gradient_vs_finite_differences(self):
        rng = np.random.default_rng(40)
        x, w, b = rand_tensor(rng, 3, 4), rand_tensor(rng, 4, 2), rand_tensor(rng, 2)
        err = finite_diff_check(lambda: T.sum_(tanh(T.linear(x, w, b))), [x, w, b])
        assert err <= 1e-4

    def test_one_tape_entry(self):
        rng = np.random.default_rng(41)
        x, w, b = rand_tensor(rng, 3, 4), rand_tensor(rng, 4, 2), rand_tensor(rng, 2)
        with T.fresh_tape() as tape:
            T.linear(x, w, b)
        assert len(tape) == 1 and tape._entries[0][1] == (x, w, b)

    def test_mismatched_widths(self):
        x, w = Tensor(np.zeros((2, 3))), Tensor(np.zeros((4, 5)))
        with pytest.raises(ShapeError, match=r"linear: .*\(2, 3\).*\(4, 5\)"):
            T.linear(x, w, Tensor(np.zeros(5)))
        with pytest.raises(ShapeError, match=r"linear: .*\(2, 5\).*\(4,\)"):
            T.linear(Tensor(np.zeros((2, 4))), w, Tensor(np.zeros(4)))

    def test_overflow_in_the_product_raises(self):
        x = Tensor(np.full((2, 2), 1e200), requires_grad=True)
        with pytest.raises(NonFiniteError, match="linear"), np.errstate(over="ignore"):
            T.linear(x, x, Tensor(np.zeros(2)))


class TestConstantOperands:
    def test_constant_operands_get_no_gradient(self):
        rng = np.random.default_rng(42)
        x, c = rand_tensor(rng, 3, 3), rand_tensor(rng, 3, 3, requires_grad=False)
        g = np.ones((3, 3))
        for op, args in ((T.matmul, (x, c)), (T.matmul, (c, x)), (T.mul, (x, c)),
                         (T.mul, (c, x)), (T.mul, (x, 0.5)),
                         (T.linear, (x, c, Tensor(np.zeros(3)))),
                         (T.linear, (c, x, Tensor(np.zeros(3))))):
            with T.fresh_tape() as tape:
                op(*args)
                grads = parent_grads(tape, g)
            for arg, grad in zip(tape._entries[-1][1], grads):
                assert (grad is None) == (not arg.requires_grad)

    def test_constant_keeps_no_grad_after_backward(self):
        rng = np.random.default_rng(43)
        x, c = rand_tensor(rng, 2, 2), rand_tensor(rng, 2, 2, requires_grad=False)
        with T.fresh_tape() as tape:
            tape.backward(T.sum_(T.mul(T.matmul(x, c), c)))
        assert c.grad is None
        assert x.grad is not None


class TestOnePassBackward:
    def test_leaf_in_three_entries_gets_the_reverse_tape_left_fold(self):
        rng = np.random.default_rng(44)
        x = rand_tensor(rng, 8, 8)
        c1, c2, c3 = (rng.standard_normal((8, 8)) for _ in range(3))
        with T.fresh_tape() as tape:
            y = T.add(T.add(T.mul(x, c1), T.mul(x, c2)), T.mul(x, c3))
            tape.backward(T.sum_(y))
        # each entry hands x its constant (1.0 * c); the last entry adds first
        expected = (c3 + c2) + c1
        assert x.grad.tobytes() == expected.tobytes()
        assert expected.tobytes() != ((c1 + c2) + c3).tobytes()

    def test_a_parent_listed_twice_sums_in_list_order_like_two_entries(self):
        rng = np.random.default_rng(46)
        c1, c2, c3 = (rng.standard_normal((8, 8)) for _ in range(3))

        def separate(x):
            return T.add(T.mul(x, c1), T.mul(x, c2))

        def listed_twice(x):
            return T.primitive(x.data * c1 + x.data * c2, (x, x),
                               lambda g: (g * c2, g * c1), "pair")

        grads = []
        for pair in (separate, listed_twice):
            x = rand_tensor(np.random.default_rng(47), 8, 8)
            with T.fresh_tape() as tape:
                tape.backward(T.sum_(T.add(pair(x), T.mul(x, c3))))
            grads.append(x.grad.tobytes())
        assert grads[0] == grads[1] == ((c3 + c2) + c1).tobytes()
        assert grads[1] != ((c3 + c1) + c2).tobytes()

    def test_branch_off_the_loss_leaves_its_leaf_without_grad(self):
        rng = np.random.default_rng(45)
        x, z = rand_tensor(rng, 3), rand_tensor(rng, 3)
        with T.fresh_tape() as tape:
            T.exp(T.mul(x, 2.0))
            loss = T.sum_(T.mul(z, z))
            T.mul(loss, x)
            entries = len(tape)
            tape.backward(loss)
        assert x.grad is None
        assert z.grad.tobytes() == (z.data + z.data).tobytes()
        assert len(tape) == entries
