"""Patch frontend contracts."""

import numpy as np
import pytest

import slotforge.tensor as T
from slotforge.frontend import PatchEmbedder
from slotforge.tensor import ShapeError, Tensor


def zero_frame(size=64):
    return np.zeros((size, size, 3))


class TestPatchEmbed:
    def test_grid_arithmetic(self):
        emb = PatchEmbedder(np.random.default_rng(0), patch_size=8, width=64, image_size=64)
        dense = emb([zero_frame()])
        assert dense.tokens.shape == (64, 64)
        assert dense.grid_h == dense.grid_w == 8
        assert dense.count == 64

    def test_non_divisible_dimensions_rejected(self):
        with pytest.raises(ShapeError):
            PatchEmbedder(np.random.default_rng(0), patch_size=7, image_size=64)

    def test_zero_frame_zero_projection_yields_positional_rows(self):
        emb = PatchEmbedder(np.random.default_rng(1), patch_size=8, width=32, image_size=32)
        emb.proj_w.data[...] = 0.0
        emb.proj_b.data[...] = 0.0
        dense = emb([zero_frame(32)])
        assert np.array_equal(dense.tokens.data, emb.pos.data)

    def test_deterministic(self):
        rng = np.random.default_rng(2)
        emb = PatchEmbedder(np.random.default_rng(3), patch_size=8, width=32, image_size=32)
        frame = rng.uniform(size=(32, 32, 3))
        assert np.array_equal(emb([frame]).tokens.data, emb([frame]).tokens.data)

    def test_gradient_through_scalar_loss(self):
        rng = np.random.default_rng(4)
        emb = PatchEmbedder(np.random.default_rng(5), patch_size=4, width=8, image_size=8)
        frame = rng.uniform(size=(8, 8, 3))
        wrt = [emb.proj_w, emb.proj_b, emb.pos]
        err = T.finite_diff_check(lambda: T.mean(T.mul(emb([frame]).tokens,
                                                       emb([frame]).tokens)), wrt)
        assert err <= 1e-4

    def test_patch_translation_permutes_tokens(self):
        """A sprite shifted by exactly one patch moves its token to the new
        cell when positional embeddings are zeroed."""
        rng = np.random.default_rng(9)
        emb = PatchEmbedder(np.random.default_rng(10), patch_size=8, width=16, image_size=32)
        emb.pos.data[...] = 0.0
        img = np.zeros((32, 32, 3))
        sprite = rng.uniform(size=(8, 8, 3))
        img[0:8, 0:8] = sprite
        shifted = np.zeros((32, 32, 3))
        shifted[0:8, 8:16] = sprite
        tokens_a = emb([img]).tokens.data
        tokens_b = emb([shifted]).tokens.data
        assert np.allclose(tokens_a[0], tokens_b[1], atol=1e-12)
        assert np.allclose(tokens_a[1], tokens_b[0], atol=1e-12)  # both background
