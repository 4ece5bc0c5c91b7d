"""Action binning, greedy decoding and the decoder's token bundle."""

import numpy as np
import pytest

from slotforge.decoder import (ACTION_DIMS, ActionDecoder, action_to_bins, bin_centers,
                               snap_action)
from slotforge.tensor import ShapeError, Tensor

WIDTH = 8


def make_decoder(bins=16):
    return ActionDecoder(np.random.default_rng(0), width=WIDTH, bins=bins, heads=2)


def test_action_range_ends_land_in_the_outer_bins():
    assert action_to_bins(np.array([-1.0, 1.0]), 16).tolist() == [0, 15]


def test_snap_maps_each_bin_center_to_itself():
    for bins in (2, 7, 256):
        for center in bin_centers(bins):
            assert snap_action(center, bins) == center


def test_greedy_action_breaks_ties_toward_the_lower_bin():
    decoder = make_decoder()
    logits = np.zeros((ACTION_DIMS, 16))
    logits[:, [3, 9]] = 1.0
    action = decoder.greedy_action(Tensor(logits))
    assert action.tolist() == [bin_centers(16)[3]] * ACTION_DIMS


def test_greedy_action_rejects_a_wrong_logits_shape():
    with pytest.raises(ShapeError):
        make_decoder().greedy_action(np.zeros((ACTION_DIMS, 15)))


def test_bundle_rows_carry_their_segment_embedding():
    decoder = make_decoder()
    k, r, n_lang = 3, 2, 4
    rng = np.random.default_rng(1)
    objects, relations, language = (Tensor(rng.standard_normal((n, WIDTH)))
                                    for n in (k, r, n_lang))
    proprio = rng.standard_normal(4)
    bundle = decoder.assemble_bundle(objects, relations, language, proprio).data
    assert bundle.shape == (k + r + n_lang + 1, WIDTH)
    seg = decoder.segments.data
    assert np.array_equal(bundle[:k], objects.data + seg[0])
    assert np.array_equal(bundle[k:k + r], relations.data + seg[1])
    assert np.array_equal(bundle[k + r:k + r + n_lang], language.data + seg[2])
    o_token = proprio @ decoder.proprio_w.data + decoder.proprio_b.data
    assert np.allclose(bundle[-1], o_token + seg[3], rtol=0, atol=1e-12)


def test_proprio_width_mismatch_is_a_shape_error():
    decoder = make_decoder()
    tokens = Tensor(np.zeros((2, WIDTH)))
    with pytest.raises(ShapeError):
        decoder.assemble_bundle(tokens, None, tokens, np.zeros(5))


def test_fewer_than_two_bins_is_rejected():
    with pytest.raises(ValueError):
        make_decoder(bins=1)
