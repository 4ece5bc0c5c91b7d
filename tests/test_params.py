"""Parameter names, shapes and order are checkpoint keys and the clipping order.

The digests pin the ordered `name shape` lines of the default pipeline's
stage-1 and stage-2 groups, so a renamed, reordered, reshaped or dropped
parameter fails here before it breaks old checkpoints or bitwise training.
"""

import hashlib
from dataclasses import dataclass

import numpy as np
import pytest

from slotforge.config import load_config
from slotforge.nn import NormParams, ParamGroup, param
from slotforge.pipeline import Pipeline
from slotforge.tensor import Tensor

PINNED = {
    "stage1": (61, 185734, "69c08f70172b00ac86ea2901291fd9194e56c970e00514e916a26f4e646f2f37"),
    "stage2": (71, 318272, "6b2f9f6c0c08cc91f411796907c0385ab0f57664682e54a5d4e3094ce948d95e"),
}


@pytest.fixture(scope="module")
def pipeline():
    return Pipeline(load_config())


@pytest.mark.parametrize("stage", sorted(PINNED))
def test_parameter_names_shapes_and_order_are_pinned(pipeline, stage):
    group = getattr(pipeline, f"{stage}_params")()
    lines = [f"{name} {tuple(t.data.shape)}" for name, t in group.items()]
    count, size, digest = PINNED[stage]
    assert len(lines) == count
    assert sum(t.data.size for t in group.tensors()) == size
    assert hashlib.sha256("\n".join(lines).encode()).hexdigest() == digest, lines


def test_every_parameter_appears_once(pipeline):
    tensors = pipeline.stage1_params().tensors() + pipeline.stage2_params().tensors()
    assert len({id(t) for t in tensors}) == len(tensors) == 132


def test_collect_keeps_trainable_tensors_in_attribute_order():
    """Constants and list items are skipped; dataclasses are walked field by field."""

    @dataclass
    class Inner:
        b: Tensor
        a: Tensor

    class Owner:
        def __init__(self):
            rng = np.random.default_rng(0)
            self.width = 2
            self.z = param(rng, 2, 2)
            self.inner = Inner(b=param(rng, 2), a=param(rng, 3))
            self.constant = Tensor(np.zeros(2))
            self.listed = [param(rng, 2)]
            self.norm = NormParams.create(2)

    owner = Owner()
    group = ParamGroup("m").collect("owner", owner)
    assert list(group.names()) == ["m.owner.z", "m.owner.inner.b", "m.owner.inner.a",
                                   "m.owner.norm.gain", "m.owner.norm.bias"]
    assert group.tensors()[0] is owner.z
