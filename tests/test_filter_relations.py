"""Task filter and relation encoder contracts."""

import numpy as np
import pytest

import slotforge.tensor as T
from slotforge.language import EmbeddingTable, UnknownWordError, tokenize
from slotforge.nn import cross_attention_block, multi_head_attention, norm
from slotforge.relations import RelationEncoder
from slotforge.task_filter import TaskFilter, top_k_rows
from slotforge.tensor import Tensor
from reference_ops import finite_diff_check, zero_grads


def zero_params(group):
    for _, t in group.items():
        t.data[...] = 0.0


class TestLanguage:
    def test_template_tokenizes(self):
        ids = tokenize("robot put the red square on the blue circle")
        assert len(ids) == 9

    def test_unknown_word_rejected(self):
        with pytest.raises(UnknownWordError):
            tokenize("launch the rocket")

    def test_embedding_lookup_shape_and_gradient(self):
        table = EmbeddingTable(np.random.default_rng(0), width=8, prefix="lang")
        out = table("put the red square")
        assert out.shape == (4, 8)
        err = finite_diff_check(lambda: T.mean(T.mul(table("put the red square"),
                                                     table("put the red square"))),
                                [table.table])
        assert err <= 1e-4


class TestBca:
    """The one cross-attention block: the slots attend to the task tokens."""

    def test_zero_weights_keep_the_slots(self):
        filt = TaskFilter(np.random.default_rng(1), width=16, heads=4)
        zero_params(filt.params())
        rng = np.random.default_rng(2)
        slots = Tensor(rng.standard_normal((5, 16)))
        lang = Tensor(rng.standard_normal((3, 16)))
        out = cross_attention_block(slots, lang, filt.bca_slots)
        assert np.array_equal(out.data, slots.data)

    def test_single_language_token_shifts_all_slots_equally(self):
        filt = TaskFilter(np.random.default_rng(3), width=16, heads=4)
        rng = np.random.default_rng(4)
        slots = rng.standard_normal((6, 16))
        lang = Tensor(rng.standard_normal((1, 16)))
        # attention over one key returns the same value row for every slot
        h = filt.bca_slots
        attn_only = multi_head_attention(norm(Tensor(slots), h.norm_q),
                                         norm(lang, h.norm_ctx), h.attn)
        assert np.allclose(attn_only.data - attn_only.data[0], 0.0, atol=1e-12)

    def test_gradient(self):
        """Through the block, the transformer layer and the head: every
        filter parameter is read."""
        filt = TaskFilter(np.random.default_rng(5), width=8, heads=2)
        rng = np.random.default_rng(6)
        slots = Tensor(rng.standard_normal((3, 8)), requires_grad=True)
        lang = Tensor(rng.standard_normal((2, 8)), requires_grad=True)
        weight = Tensor(rng.standard_normal((3, 1)))

        def f():
            return T.sum_(T.mul(filt(slots, lang, k=2)[1], weight))

        wrt = [slots, lang] + filt.params().tensors()
        assert finite_diff_check(f, wrt) <= 1e-4


class TestScoreSlots:
    def test_zero_head_gives_half(self):
        filt = TaskFilter(np.random.default_rng(7), width=16, heads=4)
        filt.head_w.data[...] = 0.0
        filt.head_b.data[...] = 0.0
        logits = filt.score_slots(Tensor(np.random.default_rng(8).standard_normal((5, 16))))
        assert np.array_equal(logits.data, np.zeros((5, 1)))
        assert np.array_equal(T.stable_sigmoid(logits.data), np.full((5, 1), 0.5))

    def test_head_logit_monotonicity(self):
        base = np.zeros((4, 1))
        bumped = base.copy()
        bumped[2, 0] = 1.0
        pi_base = T.sigmoid(Tensor(base)).data
        pi_bumped = T.sigmoid(Tensor(bumped)).data
        assert pi_bumped[2, 0] > pi_base[2, 0]
        mask = np.ones(4, dtype=bool)
        mask[2] = False
        assert np.array_equal(pi_bumped[mask], pi_base[mask])


class TestTopK:
    def test_direct_ordering(self):
        assert top_k_rows(np.array([0.9, 0.1, 0.8, 0.2]), 2) == [0, 2]

    def test_tie_break_prefers_lower_index(self):
        assert top_k_rows(np.full(4, 0.5), 2) == [0, 1]

    def test_invariant_under_strictly_increasing_transforms(self):
        rng = np.random.default_rng(9)
        transforms = [np.exp, np.tanh, lambda x: 3 * x + 7, lambda x: x ** 3,
                      lambda x: np.arctan(10 * x)]
        for _ in range(50):
            scores = rng.standard_normal(8)
            base = top_k_rows(scores, 3)
            for f in transforms:
                assert top_k_rows(f(scores), 3) == base

    def test_k_out_of_range(self):
        with pytest.raises(ValueError):
            top_k_rows(np.zeros(3), 0)
        with pytest.raises(ValueError):
            top_k_rows(np.zeros(3), 4)

    def test_disabled_filter_is_identity(self):
        # with the filter off, `RunConfig.object_tokens` keeps every slot
        filt = TaskFilter(np.random.default_rng(10), width=16, heads=4)
        rng = np.random.default_rng(11)
        slots = Tensor(rng.standard_normal((6, 16)))
        lang = Tensor(rng.standard_normal((3, 16)))
        scores, _ = filt(slots, lang, k=6)
        assert scores.selected == list(range(6))

    def test_gradient_flows_through_selected_rows_only(self):
        slots = Tensor(np.random.default_rng(12).standard_normal((4, 3)),
                       requires_grad=True)
        with T.fresh_tape() as tape:
            kept = T.gather_rows(slots, top_k_rows(np.array([0.9, 0.1, 0.8, 0.2]), 2))
            loss = T.sum_(T.mul(kept, kept))
            tape.backward(loss)
        assert np.all(slots.grad[[1, 3]] == 0.0)
        assert np.any(slots.grad[[0, 2]] != 0.0)


class TestGroupedFilter:
    """Frames stacked as row blocks are filtered as if each were called alone."""

    @pytest.mark.parametrize("k", [2, 5], ids=["top-2", "every-slot"])
    def test_grouped_equals_per_block_calls(self, k):
        filt = TaskFilter(np.random.default_rng(30), width=8, heads=2)
        rng = np.random.default_rng(31)
        groups, n_slots, words = 3, 5, 4
        slots = Tensor(rng.standard_normal((groups * n_slots, 8)), requires_grad=True)
        lang = Tensor(rng.standard_normal((groups * words, 8)), requires_grad=True)
        weight = Tensor(rng.standard_normal((groups * n_slots, 1)))
        leaves = [slots, lang] + filt.params().tensors()
        results = []
        for grouped in (True, False):
            zero_grads(leaves)
            with T.fresh_tape() as tape:
                if grouped:
                    scores, logits = filt(slots, lang, k, groups)
                    selected = scores.selected
                else:
                    calls = [filt(T.gather_rows(slots, range(g * n_slots, (g + 1) * n_slots)),
                                  T.gather_rows(lang, range(g * words, (g + 1) * words)),
                                  k) for g in range(groups)]
                    logits = T.concat([c[1] for c in calls])
                    selected = [g * n_slots + s for g, c in enumerate(calls)
                                for s in c[0].selected]
                kept = T.gather_rows(slots, selected)
                tape.backward(T.add(T.sum_(T.mul(logits, weight)), T.sum_(T.mul(kept, kept))))
            results.append([kept.data, logits.data, np.array(selected)]
                           + [t.grad for t in leaves])
        grouped, per_block = results
        assert len(grouped[2]) == groups * k
        for a, b in zip(grouped, per_block):
            np.testing.assert_allclose(a, b, rtol=1e-12, atol=1e-12)

    def test_top_k_picks_k_rows_per_block(self):
        scores = np.array([0.1, 0.9, 0.5, 0.5, 0.3, 0.2, 0.8, 0.7])
        assert top_k_rows(scores, 2, groups=2) == [1, 2, 6, 7]
        with pytest.raises(ValueError, match=r"k=5 out of range \[1, 4\]"):
            top_k_rows(scores, 5, groups=2)
        with pytest.raises(T.ShapeError, match="do not split into 3 groups"):
            top_k_rows(scores, 1, groups=3)


class TestRelationEncoder:
    def test_zero_second_cab_returns_first_cab_output(self):
        enc = RelationEncoder(np.random.default_rng(13), width=16, num_relations=4, heads=4)
        for _, t in _cab_params(enc.slot_cab):
            t.data[...] = 0.0
        rng = np.random.default_rng(14)
        dense = Tensor(rng.standard_normal((9, 16)))
        slots = Tensor(rng.standard_normal((2, 16)))
        from slotforge.nn import cross_attention_block
        first = cross_attention_block(enc.queries, dense, enc.visual_cab)
        out = enc(dense, slots)
        assert np.array_equal(out.data, first.data)

    def test_slot_permutation_invariance(self):
        enc = RelationEncoder(np.random.default_rng(15), width=16, num_relations=5, heads=4)
        rng = np.random.default_rng(16)
        dense = Tensor(rng.standard_normal((9, 16)))
        slots = rng.standard_normal((4, 16))
        out_a = enc(dense, Tensor(slots))
        out_b = enc(dense, Tensor(slots[[3, 1, 0, 2]]))
        assert np.allclose(out_a.data, out_b.data, atol=1e-12)

    def test_patch_permutation_invariance(self):
        enc = RelationEncoder(np.random.default_rng(17), width=16, num_relations=3, heads=4)
        rng = np.random.default_rng(18)
        tokens = rng.standard_normal((6, 16))
        slots = Tensor(rng.standard_normal((2, 16)))
        perm = rng.permutation(6)
        out_a = enc(Tensor(tokens), slots)
        out_b = enc(Tensor(tokens[perm]), slots)
        assert np.allclose(out_a.data, out_b.data, atol=1e-12)

    def test_single_key_context_ignores_attention_weights(self):
        rng = np.random.default_rng(19)
        from slotforge.nn import MhaParams, multi_head_attention
        queries = Tensor(rng.standard_normal((3, 8)))
        context = Tensor(rng.standard_normal((1, 8)))
        p1 = MhaParams.create(np.random.default_rng(20), 8, 2)
        p2 = MhaParams.create(np.random.default_rng(21), 8, 2)
        p2.wv, p2.wo = p1.wv, p1.wo  # same value path, different q/k
        out1 = multi_head_attention(queries, context, p1)
        out2 = multi_head_attention(queries, context, p2)
        assert np.allclose(out1.data, out2.data, atol=1e-12)

    def test_gradient(self):
        enc = RelationEncoder(np.random.default_rng(22), width=8, num_relations=2, heads=2)
        rng = np.random.default_rng(23)
        dense = Tensor(rng.standard_normal((4, 8)))
        slots = Tensor(rng.standard_normal((2, 8)), requires_grad=True)

        def f():
            out = enc(dense, slots)
            return T.mean(T.mul(out, out))

        wrt = [slots] + enc.params().tensors()
        assert finite_diff_check(f, wrt) <= 1e-4

    def test_empty_slots_rejected(self):
        enc = RelationEncoder(np.random.default_rng(24), width=8, num_relations=2, heads=2)
        dense = Tensor(np.zeros((4, 8)))
        with pytest.raises(T.ShapeError):
            enc(dense, Tensor(np.zeros((0, 8))))


def _cab_params(cab):
    from slotforge.nn import ParamGroup
    g = ParamGroup("tmp")
    g.collect("cab", cab)
    return list(g.items())
