"""Slot refinement: attention normalizations, starting slots, equivariance."""

import numpy as np
import pytest

import slotforge.tensor as T
from slotforge import pipeline as pipeline_module
from slotforge.config import RunConfig
from slotforge.nn import mlp
from slotforge.pipeline import Pipeline
from slotforge.slots import COLUMN_EPS, SlotAttention, SlotHeads, slot_attention
from slotforge.tensor import NonFiniteError, Tensor
from reference_ops import clip_min, finite_diff_check, softmax, tanh, zero_grads
from test_tensor import assert_all_close, graph_gru_cell


def dense_from(rng, n=12, d=16):
    return Tensor(rng.standard_normal((n, d)))


def make_attn(seed=0, d=16, slots=4, steps=3, residual_mlp=True):
    return SlotAttention(np.random.default_rng(seed), width=d, num_slots=slots,
                         refine_steps=steps, residual_mlp=residual_mlp)


def project(attn, tokens):
    """The keys and values that `SlotAttention.encode_frame` projects once per frame."""
    return T.matmul(tokens, attn.wk), T.matmul(tokens, attn.wv)


class TestStartingSlots:
    def test_sigma_zero_limit_collapses_to_mu(self):
        attn = make_attn()
        attn.init_log_sigma.data[...] = -40.0
        slots = attn.fresh_slots([5])
        assert np.allclose(slots.data, np.tile(attn.init_mu.data, (4, 1)), atol=1e-15)

    def test_carryover_is_bitwise_copy(self, monkeypatch):
        """`Pipeline.encode_frame` starts handed slots, whatever the frame's t,
        as a detached bitwise copy, and draws no seed for them."""
        pipe = Pipeline(RunConfig())
        handed, seeds = [], []
        refine = pipe.slot_attn.encode_frame

        def recording_refine(tokens, slots):
            handed.append(slots)
            return refine(tokens, slots)

        def recording_seed(*args):
            seeds.append(args)
            return 0

        monkeypatch.setattr(pipe.slot_attn, "encode_frame", recording_refine)
        monkeypatch.setattr(pipeline_module, "init_seed", recording_seed)
        prev = Tensor(np.random.default_rng(1).standard_normal((16, 64)), requires_grad=True)
        rgb = np.random.default_rng(2).integers(0, 256, (64, 64, 3), dtype=np.uint8)
        pipe.encode_frame([rgb], prev, [3], [0])
        [start] = handed
        assert start.data.tobytes() == prev.data.tobytes()
        assert not np.shares_memory(start.data, prev.data)
        assert not start.requires_grad  # values cross the frame boundary, not history
        assert seeds == []

    def test_seeded_init_reproducible_bitwise(self):
        attn = SlotAttention(np.random.default_rng(7), width=4, num_slots=2, refine_steps=3,
                             residual_mlp=True)
        a = attn.fresh_slots([42]).data
        b = attn.fresh_slots([42]).data
        assert a.tobytes() == b.tobytes()
        c = attn.fresh_slots([43]).data
        assert a.tobytes() != c.tobytes()


def graph_slot_attention(tokens, slots, wq, wk, wv):
    """The 12-entry graph that the fused `slot_attention` replaced, op for op."""
    scale = 1.0 / np.sqrt(slots.shape[1])
    logits = T.mul(T.matmul(T.matmul(tokens, wk), T.transpose(T.matmul(slots, wq))), scale)
    attn = softmax(logits, axis=1)
    col_norm = clip_min(T.sum_(attn, axis=0, keepdims=True), COLUMN_EPS)
    weights = T.div(attn, col_norm)
    update = T.matmul(T.transpose(weights), T.matmul(tokens, wv))
    return update, weights.data


def fused_attention(tokens, slots, wq, wk, wv):
    """`slot_attention` after the key and value projections."""
    return slot_attention(T.matmul(tokens, wk), T.matmul(tokens, wv), slots, wq)


def graph_refine_steps(attn, slots, tokens, steps):
    """`SlotAttention.refine_step` as it was built from the unfused graphs,
    which project the tokens again in every step."""
    for _ in range(steps):
        update, _ = graph_slot_attention(tokens, slots, attn.wq, attn.wk, attn.wv)
        new_slots = graph_gru_cell(update, slots, attn.gru)
        slots = T.add(new_slots, mlp(T.layer_norm(new_slots), attn.mlp))
    return slots


def fused_refine_steps(attn, slots, tokens, steps):
    keys, values = project(attn, tokens)
    for _ in range(steps):
        slots = attn.refine_step(slots, keys, values)[0]
    return slots


def attention_run(attend, n, k, d, slots_kind, seed):
    """Value, weights and every leaf gradient after one attention.

    The tokens are produced by an op and used again afterwards; the slots
    are a leaf, a produced tensor or a constant."""
    rng = np.random.default_rng(seed)
    wq, wk, wv = (Tensor(rng.standard_normal((d, d)) * 0.5, requires_grad=True)
                  for _ in range(3))
    tok_leaf = Tensor(rng.standard_normal((n, d)), requires_grad=True)
    slot_leaf = Tensor(rng.standard_normal((k, d)), requires_grad=slots_kind != "constant")
    weight = Tensor(rng.standard_normal((k, d)))
    with T.fresh_tape() as tape:
        tokens = T.mul(tok_leaf, 1.25)
        slots = T.mul(slot_leaf, 0.5) if slots_kind == "produced" else slot_leaf
        out, weights = attend(tokens, slots, wq, wk, wv)
        loss = T.add(T.sum_(T.mul(tanh(out), weight)), T.sum_(T.mul(tokens, tokens)))
        tape.backward(loss)
    leaves = (tok_leaf, slot_leaf, wq, wk, wv)
    return [out.data, weights] + [t.grad for t in leaves]


class TestSlotAttentionOp:
    @pytest.mark.parametrize("slots_kind", ["leaf", "produced", "constant"])
    @pytest.mark.parametrize("n,k,d", [(64, 16, 64), (1, 4, 8), (12, 1, 8), (7, 3, 6)])
    def test_bitwise_equal_to_the_unfused_graph(self, n, k, d, slots_kind):
        fused = attention_run(fused_attention, n, k, d, slots_kind, n * 100 + k)
        graph = attention_run(graph_slot_attention, n, k, d, slots_kind, n * 100 + k)
        assert_all_close(fused, graph)
        assert (fused[3] is None) == (slots_kind == "constant")

    @pytest.mark.parametrize("carried", [False, True])
    def test_three_refine_steps_bitwise_equal_to_the_unfused_graph(self, carried):
        # carried slots are a constant in step 1 and a produced tensor after it
        results = []
        for refine in (graph_refine_steps, fused_refine_steps):
            attn = make_attn(seed=12)
            rng = np.random.default_rng(13)
            tok_leaf = Tensor(rng.standard_normal((12, 16)), requires_grad=True)
            weight = Tensor(rng.standard_normal((4, 16)))
            with T.fresh_tape() as tape:
                tokens = T.mul(tok_leaf, 1.0)
                slots = (Tensor(rng.standard_normal((4, 16))) if carried
                         else attn.fresh_slots([3]))
                slots = refine(attn, slots, tokens, 3)
                tape.backward(T.sum_(T.mul(slots, weight)))
            results.append([slots.data, tok_leaf.grad]
                           + [t.grad for t in attn.params().tensors()])
        assert_all_close(results[1], results[0])

    def test_gradient_vs_finite_differences(self):
        rng = np.random.default_rng(14)
        tokens, slots = (Tensor(rng.standard_normal(shape), requires_grad=True)
                         for shape in ((5, 6), (3, 6)))
        ws = [Tensor(rng.standard_normal((6, 6)), requires_grad=True) for _ in range(3)]
        weight = Tensor(rng.standard_normal((3, 6)))
        err = finite_diff_check(
            lambda: T.sum_(T.mul(fused_attention(tokens, slots, *ws)[0], weight)),
            [tokens, slots] + ws)
        assert err <= 1e-4

    @pytest.mark.parametrize("residual_mlp, entries", [(True, 7), (False, 2)])
    def test_tape_entries_per_refine_step(self, residual_mlp, entries):
        attn = make_attn(residual_mlp=residual_mlp)
        slots = attn.fresh_slots([1])
        dense = dense_from(np.random.default_rng(15))
        with T.fresh_tape():
            keys, values = project(attn, dense)
        with T.fresh_tape() as tape:
            attn.refine_step(slots.detach(), keys, values)
        assert len(tape) == entries

    def test_negative_infinite_logit_raises_naming_the_op(self):
        # softmax would turn the -inf logit into a finite 0 weight
        eye = Tensor(np.eye(2), requires_grad=True)
        tokens = Tensor([[1e200, 0.0], [0.0, 1.0]])
        slots = Tensor([[-1e200, 0.0], [0.0, 1.0]])
        with pytest.raises(NonFiniteError, match="slot_attention"):
            fused_attention(tokens, slots, eye, eye, eye)


def grouped_attention_run(groups, n=5, k=3, d=6, seed=21):
    """Value, weights and every leaf gradient of `groups` frames' attention, as one
    grouped call and as one call per row block on the same tape."""
    rng = np.random.default_rng(seed)
    keys, values, slots = (Tensor(rng.standard_normal((groups * rows, d)), requires_grad=True)
                           for rows in (n, n, k))
    wq = Tensor(rng.standard_normal((d, d)) * 0.5, requires_grad=True)
    weight = Tensor(rng.standard_normal((groups * k, d)))
    leaves = (keys, values, slots, wq)
    results = []
    for grouped in (True, False):
        zero_grads(leaves)
        with T.fresh_tape() as tape:
            if grouped:
                out, weights = slot_attention(keys, values, slots, wq, groups)
            else:
                blocks = [slot_attention(T.gather_rows(keys, range(g * n, (g + 1) * n)),
                                         T.gather_rows(values, range(g * n, (g + 1) * n)),
                                         T.gather_rows(slots, range(g * k, (g + 1) * k)), wq)
                          for g in range(groups)]
                out = T.concat([b[0] for b in blocks])
                weights = np.concatenate([b[1] for b in blocks])
            tape.backward(T.sum_(T.mul(tanh(out), weight)))
        results.append([out.data, weights] + [t.grad for t in leaves])
    return results


class TestGroupedSlotAttention:
    @pytest.mark.parametrize("groups", [1, 2, 4])
    def test_grouped_equals_per_block_calls(self, groups):
        grouped, per_block = grouped_attention_run(groups)
        assert_all_close(grouped, per_block)

    def test_gradient_vs_finite_differences_with_three_groups(self):
        rng = np.random.default_rng(22)
        keys, values = (Tensor(rng.standard_normal((3 * 5, 6)), requires_grad=True)
                        for _ in range(2))
        slots = Tensor(rng.standard_normal((3 * 2, 6)), requires_grad=True)
        wq = Tensor(rng.standard_normal((6, 6)), requires_grad=True)
        weight = Tensor(rng.standard_normal((3 * 2, 6)))
        err = finite_diff_check(
            lambda: T.sum_(T.mul(slot_attention(keys, values, slots, wq, 3)[0], weight)),
            [keys, values, slots, wq])
        assert err <= 1e-4

    @pytest.mark.parametrize("groups", [1, 3, 8])
    def test_one_tape_entry_whatever_the_group_size(self, groups):
        rng = np.random.default_rng(23)
        keys, values = (Tensor(rng.standard_normal((groups * 4, 6)), requires_grad=True)
                        for _ in range(2))
        slots = Tensor(rng.standard_normal((groups * 2, 6)), requires_grad=True)
        with T.fresh_tape() as tape:
            slot_attention(keys, values, slots, Tensor(np.eye(6), requires_grad=True), groups)
        assert len(tape) == 1

    @pytest.mark.parametrize("token_rows, slot_rows, groups", [(9, 4, 2), (8, 3, 2), (8, 4, 0)])
    def test_rows_that_do_not_split_into_the_groups_are_a_shape_error(
            self, token_rows, slot_rows, groups):
        tokens, slots = Tensor(np.zeros((token_rows, 4))), Tensor(np.zeros((slot_rows, 4)))
        with pytest.raises(T.ShapeError, match="do not split into"):
            slot_attention(tokens, tokens, slots, Tensor(np.eye(4)), groups)

    def test_encode_frame_of_a_group_equals_one_frame_at_a_time(self):
        attn = make_attn(seed=24)
        rng = np.random.default_rng(25)
        frames = [dense_from(rng) for _ in range(3)]
        stacked = T.concat(frames)
        seeds = [40, 41, 42]
        fresh, weights = attn.encode_frame(stacked, attn.fresh_slots(seeds))
        carried, _ = attn.encode_frame(stacked, fresh.detach())
        assert fresh.shape == (3 * 4, 16) and weights.shape == (3 * 12, 4)
        for g, (dense, seed) in enumerate(zip(frames, seeds)):
            one, one_weights = attn.encode_frame(dense, attn.fresh_slots([seed]))
            rows = slice(4 * g, 4 * (g + 1))
            np.testing.assert_allclose(fresh.data[rows], one.data, rtol=1e-12, atol=1e-12)
            np.testing.assert_allclose(weights[12 * g:12 * (g + 1)], one_weights,
                                       rtol=1e-12, atol=1e-12)
            # a frame's start does not depend on its group
            assert (attn.fresh_slots(seeds).data[rows].tobytes()
                    == attn.fresh_slots([seed]).data.tobytes())
            again, _ = attn.encode_frame(dense, Tensor(fresh.data[rows]))
            np.testing.assert_allclose(carried.data[rows], again.data, rtol=1e-12, atol=1e-12)


class TestRefineStep:
    def test_identical_slots_symmetric_input_uniform_attention(self):
        attn = make_attn()
        slots = Tensor(np.tile([1.0] * 16, (4, 1)))
        dense = dense_from(np.random.default_rng(2))
        _, weights = attn.refine_step(slots, *project(attn, dense))
        # each token splits evenly over 4 slots, so each slot takes 1/12 of 12 tokens
        assert np.allclose(weights, 1.0 / 12, atol=1e-12)

    def test_single_input_token(self):
        attn = make_attn()
        rng = np.random.default_rng(3)
        dense = Tensor(rng.standard_normal((1, 16)))
        slots = attn.fresh_slots([1])
        _, weights = attn.refine_step(slots, *project(attn, dense))
        assert np.allclose(weights, 1.0, atol=1e-12)

    def test_normalizations_hold_each_step(self):
        attn = make_attn(steps=4)
        rng = np.random.default_rng(4)
        dense = dense_from(rng)
        slots = attn.fresh_slots([2])
        for _ in range(4):
            slots, weights = attn.refine_step(slots, *project(attn, dense))
            assert np.all(np.abs(weights.sum(axis=0) - 1.0) <= 1e-9)

    def test_maps_are_read_only(self):
        # they are the arrays the backward of the step reads, not copies
        attn = make_attn()
        dense = dense_from(np.random.default_rng(6))
        _, weights = attn.refine_step(attn.fresh_slots([3]), *project(attn, dense))
        with pytest.raises(ValueError, match="read-only"):
            weights[0, 0] = 0.0

    def test_full_step_gradient_all_params(self):
        attn = make_attn(d=6, slots=3, steps=1)
        rng = np.random.default_rng(5)
        dense = Tensor(rng.standard_normal((5, 6)), requires_grad=True)
        slots0 = Tensor(rng.standard_normal((3, 6)), requires_grad=True)
        params = attn.params().tensors() + [slots0, dense]

        def f():
            out, _ = attn.refine_step(slots0, *project(attn, dense))
            return T.mean(T.mul(out, out))

        assert finite_diff_check(f, params) <= 1e-4

    def test_slot_permutation_equivariance_zero_mlp(self):
        attn = make_attn(residual_mlp=False)
        rng = np.random.default_rng(6)
        dense = dense_from(rng)
        slots = rng.standard_normal((4, 16))
        perm = [2, 0, 3, 1]
        out_a, _ = attn.refine_step(Tensor(slots), *project(attn, dense))
        out_b, _ = attn.refine_step(Tensor(slots[perm]), *project(attn, dense))
        assert np.allclose(out_a.data[perm], out_b.data, atol=1e-12)


class TestEncodeFrame:
    def test_t1_equals_single_refine_after_init(self):
        attn = make_attn(steps=1)
        rng = np.random.default_rng(7)
        dense = dense_from(rng)
        slots, _ = attn.encode_frame(dense, attn.fresh_slots([11]))
        manual = attn.fresh_slots([11])
        manual, _ = attn.refine_step(manual, *project(attn, dense))
        assert np.array_equal(slots.data, manual.data)

    def test_carryover_disabled_rerandomizes_each_frame(self):
        attn = make_attn()
        rng = np.random.default_rng(8)
        dense = dense_from(rng)
        slots_a, _ = attn.encode_frame(dense, attn.fresh_slots([20]))
        slots_b, _ = attn.encode_frame(dense, attn.fresh_slots([21]))
        assert not np.array_equal(slots_a.data, slots_b.data)

    def test_carryover_enabled_chains_states(self):
        attn = make_attn()
        rng = np.random.default_rng(9)
        dense = dense_from(rng)
        slots0, _ = attn.encode_frame(dense, attn.fresh_slots([30]))
        slots1, _ = attn.encode_frame(dense, slots0.detach())
        manual = slots0.detach()
        for _ in range(attn.refine_steps):
            manual, _ = attn.refine_step(manual, *project(attn, dense))
        assert slots1.data.tobytes() == manual.data.tobytes()

    @pytest.mark.parametrize("residual_mlp, entries", [(True, 2 + 3 * 7), (False, 2 + 3 * 2)])
    def test_tape_entries_per_frame(self, residual_mlp, entries):
        # two projections, then three refine steps; handed slots add no draw
        attn = make_attn(residual_mlp=residual_mlp)
        prev = attn.fresh_slots([1])
        dense = dense_from(np.random.default_rng(15))
        with T.fresh_tape() as tape:
            attn.encode_frame(dense, prev.detach())
        assert len(tape) == entries

    def test_whole_frame_gradient_vs_finite_differences(self):
        attn = make_attn(d=6, slots=3, steps=3, residual_mlp=True)
        rng = np.random.default_rng(16)
        dense = Tensor(rng.standard_normal((5, 6)))
        weight = Tensor(rng.standard_normal((3, 6)))
        wrt = [attn.wq, attn.wk, attn.wv] + [getattr(attn.gru, n) for n in vars(attn.gru)]
        err = finite_diff_check(
            lambda: T.sum_(T.mul(attn.encode_frame(dense, attn.fresh_slots([4]))[0], weight)),
            wrt)
        assert err <= 1e-4

    def test_refine_steps_validated(self):
        with pytest.raises(ValueError):
            make_attn(steps=0)

    def test_without_the_mlp_no_mlp_parameter_exists_and_no_other_moves(self):
        """The MLP's weights are the last draws from the slots' rng, so turning
        it off drops `slots.mlp.*` from the checkpoint and keeps every other
        tensor byte for byte."""
        default = Pipeline(RunConfig()).stage1_params().state()
        plain = Pipeline(RunConfig(residual_mlp=False)).stage1_params().state()
        mlp_names = [name for name in default if name.startswith("slots.mlp.")]
        assert len(mlp_names) == 4
        assert list(plain) == [name for name in default if name not in mlp_names]
        assert all(plain[name].tobytes() == default[name].tobytes() for name in plain)


class TestSlotHeads:
    def test_output_contracts(self):
        rng = np.random.default_rng(10)
        heads = SlotHeads(np.random.default_rng(11), width=16, grid_cells=9)
        preds = heads(Tensor(rng.standard_normal((5, 16))))
        assert preds.boxes.shape == (5, 4)
        assert np.all((preds.boxes.data > 0) & (preds.boxes.data < 1))
        assert preds.objectness.shape == (5, 1)
        assert preds.mask_logits.shape == (5, 9)
