"""Supervision targets pinned bitwise on one episode of every subset.

`frame_targets` turns a frame's annotations into boxes, patch-grid masks,
relevance flags and instance ids; any change to how segmentation is stored
must leave every byte of them as it is.
"""

import hashlib

import numpy as np
import pytest

from slotforge.config import RunConfig
from slotforge.pipeline import frame_targets
from slotforge.world import FrameRecord, InstanceRecord, generate_episode

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


def synthetic_record(instance_map: np.ndarray, count: int) -> FrameRecord:
    instances = [InstanceRecord(f"square{i + 1}", np.array([0.5, 0.5, 0.25, 0.25]), i == 0)
                 for i in range(count)]
    return FrameRecord(t=0, task="robot", action=np.zeros(7), proprio=np.zeros(4),
                       instances=instances, rgb=np.zeros((*instance_map.shape, 3), np.uint8),
                       instance_map=instance_map)


def test_a_cell_is_on_from_half_its_pixels():
    """32 of a cell's 64 pixels turn it on, 31 leave it off; an instance over
    four cells gets all four; map values above the instance count are ignored."""
    instance_map = np.zeros((64, 64), dtype=np.uint8)
    instance_map[0:4, 0:8] = 1           # cell (0, 0): 32 of 64 pixels
    instance_map[0:4, 8:16] = 2          # cell (0, 1): 31 of 64 pixels
    instance_map[3, 15] = 0
    instance_map[16:32, 20:32] = 3       # cells (2, 2) to (3, 3), the left two half covered
    instance_map[40:48, 40:48] = 4       # a whole cell of an instance not in the record
    targets = frame_targets(synthetic_record(instance_map, 3), patch_size=8)
    on = [np.flatnonzero(row).tolist() for row in targets.grid_masks]
    assert on == [[0], [], [18, 19, 26, 27]]
    assert targets.grid_masks.dtype == np.float64 and targets.grid_masks.shape == (3, 64)
    assert targets.relevance.tolist() == [1.0, 0.0, 0.0]
    assert targets.instance_ids == ["square1", "square2", "square3"]
