"""Supervision targets pinned bitwise on one episode of every subset.

`frame_targets` turns a frame's annotations into boxes, patch-grid masks,
relevance flags and instance ids; any change to how segmentation is stored
must leave every byte of them as it is.
"""

import hashlib

import pytest

from slotforge.config import RunConfig
from slotforge.pipeline import frame_targets
from slotforge.world import generate_episode

PINNED = {
    "goal": "5a1fbd7885e752c6",
    "object": "fce799f8b9bedf4c",
    "spatial": "add08ca2b2f88bed",
    "long": "92da732cc060c167",
    "pair": "f497fbbc1d80f38d",
}


def targets_digest(subset: str) -> str:
    h = hashlib.sha256()
    for record in generate_episode(2, RunConfig(subset=subset).world_config()).frames:
        targets = frame_targets(record, patch_size=8)
        for array in (targets.boxes, targets.grid_masks, targets.relevance):
            h.update(f"{array.dtype}{array.shape}".encode())
            h.update(array.tobytes())
        h.update(",".join(targets.instance_ids).encode())
    return h.hexdigest()[:16]


@pytest.mark.parametrize("subset", sorted(PINNED))
def test_frame_targets_pinned(subset):
    assert targets_digest(subset) == PINNED[subset]
