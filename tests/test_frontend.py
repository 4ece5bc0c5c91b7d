"""Patch frontend contracts."""

import numpy as np
import pytest

import slotforge.tensor as T
from slotforge.frontend import PatchEmbedder
from slotforge.tensor import ShapeError, Tensor
from reference_ops import finite_diff_check


def zero_frame(size=64):
    return np.zeros((size, size, 3), dtype=np.uint8)


def random_frame(rng, size):
    return rng.integers(0, 256, size=(size, size, 3), dtype=np.uint8)


class TestPatchEmbed:
    def test_grid_arithmetic(self):
        emb = PatchEmbedder(np.random.default_rng(0), patch_size=8, width=64, image_size=64)
        assert emb.grid == 8
        assert emb([zero_frame()]).shape == (64, 64)
        assert emb([zero_frame(), zero_frame()]).shape == (2 * 64, 64)

    def test_non_divisible_dimensions_rejected(self):
        with pytest.raises(ShapeError):
            PatchEmbedder(np.random.default_rng(0), patch_size=7, width=64, image_size=64)

    def test_zero_frame_zero_projection_yields_positional_rows(self):
        emb = PatchEmbedder(np.random.default_rng(1), patch_size=8, width=32, image_size=32)
        emb.proj_w.data[...] = 0.0
        emb.proj_b.data[...] = 0.0
        assert np.array_equal(emb([zero_frame(32)]).data, emb.pos.data)

    def test_frames_are_bytes_scaled_by_1_over_255(self):
        rng = np.random.default_rng(6)
        emb = PatchEmbedder(np.random.default_rng(7), patch_size=4, width=8, image_size=8)
        frames = [random_frame(rng, 8), random_frame(rng, 8)]
        floats = np.concatenate([emb.patches(f) for f in frames]).astype(np.float64) / 255.0
        expected = T.add(T.layer_norm(T.linear(Tensor(floats), emb.proj_w, emb.proj_b)),
                         T.gather_rows(emb.pos, np.tile(np.arange(4), 2)))
        assert np.array_equal(emb(frames).data, expected.data)

    @pytest.mark.parametrize("dtype", [np.float64, np.uint16])
    def test_a_frame_that_is_not_bytes_is_rejected(self, dtype):
        emb = PatchEmbedder(np.random.default_rng(8), patch_size=4, width=8, image_size=8)
        with pytest.raises(ShapeError, match="not uint8"):
            emb([zero_frame(8).astype(dtype)])

    def test_deterministic(self):
        rng = np.random.default_rng(2)
        emb = PatchEmbedder(np.random.default_rng(3), patch_size=8, width=32, image_size=32)
        frame = random_frame(rng, 32)
        assert np.array_equal(emb([frame]).data, emb([frame]).data)

    def test_gradient_through_scalar_loss(self):
        rng = np.random.default_rng(4)
        emb = PatchEmbedder(np.random.default_rng(5), patch_size=4, width=8, image_size=8)
        frame = random_frame(rng, 8)
        wrt = [emb.proj_w, emb.proj_b, emb.pos]
        err = finite_diff_check(lambda: T.mean(T.mul(emb([frame]), emb([frame]))), wrt)
        assert err <= 1e-4

    def test_patch_translation_permutes_tokens(self):
        """A sprite shifted by exactly one patch moves its token to the new
        cell when positional embeddings are zeroed."""
        rng = np.random.default_rng(9)
        emb = PatchEmbedder(np.random.default_rng(10), patch_size=8, width=16, image_size=32)
        emb.pos.data[...] = 0.0
        img = zero_frame(32)
        sprite = random_frame(rng, 8)
        img[0:8, 0:8] = sprite
        shifted = zero_frame(32)
        shifted[0:8, 8:16] = sprite
        tokens_a = emb([img]).data
        tokens_b = emb([shifted]).data
        assert np.allclose(tokens_a[0], tokens_b[1], atol=1e-12)
        assert np.allclose(tokens_a[1], tokens_b[0], atol=1e-12)  # both background
