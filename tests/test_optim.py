"""AdaptiveOptimizer state round trip and strict loading."""

import numpy as np
import pytest

from slotforge.checkpoint import CheckpointError
from slotforge.nn import ParamGroup, param
from slotforge.optim import AdaptiveOptimizer


def make_optimizer():
    group = ParamGroup("m")
    rng = np.random.default_rng(0)
    group.add("w", param(rng, 3, 2))
    group.add("b", param(rng, 2))
    return AdaptiveOptimizer(group, lr=3e-4, total_steps=10, clip_norm=10.0)


def stepped_state():
    opt = make_optimizer()
    for _, t in opt.params.items():
        t.grad = np.ones_like(t.data)
    opt.step()
    return opt.state()


def test_load_state_restores_second_moments_and_step():
    state = stepped_state()
    opt = make_optimizer()
    opt.load_state(state)
    assert opt.step_count == 1
    assert {k: v.tobytes() for k, v in opt.state().items()} == \
        {k: v.tobytes() for k, v in state.items()}


@pytest.mark.parametrize("dropped", ["opt.m.w.v", "opt.step"])
def test_load_state_names_missing_keys(dropped):
    state = stepped_state()
    del state[dropped]
    with pytest.raises(CheckpointError, match=f"missing optimizer state: \\['{dropped}'\\]"):
        make_optimizer().load_state(state)


def test_load_state_rejects_a_shape_mismatch():
    state = stepped_state()
    state["opt.m.b.v"] = np.zeros(3)
    with pytest.raises(CheckpointError, match="opt.m.b.v"):
        make_optimizer().load_state(state)
