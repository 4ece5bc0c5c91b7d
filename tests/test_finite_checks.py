"""A non-finite value in an inference pass is named by the op that made it.

The four passes the benchmark times, `Pipeline.policy_step`,
`Pipeline.encode_episode_cache`, `train.stage1_metrics` and
`train.action_accuracy`, and `train.assignment_flip_rate`, which reads the
same validation pass as `stage1_metrics`, run as `T.inference_pass`: their
ops go unchecked, each pass checks what it reads out or decides on, and a
failure replays the pass with every op checked. Here an op's output is made
non-finite (a NaN, then -inf, in its first element) and the pass must raise
the error it raised when every op was checked: `non-finite value produced by
<op>`.
"""

import contextlib
import dataclasses

import numpy as np
import pytest

from slotforge import tensor as T
from slotforge.checkpoint import save_checkpoint
from slotforge.cli import EXIT_TRAINING, main
from slotforge.config import load_config
from slotforge.pipeline import Pipeline
from slotforge.tensor import NonFiniteError, Tensor
from slotforge.train import (Corpus, action_accuracy, assignment_flip_rate, flatten_cache,
                             stage1_metrics)
from slotforge.world import World, generate_episode, serialize_episode

# the ops each pass records on the default `goal` config
PASS_OPS = {
    "policy_step": ["add", "attention_heads", "concat", "exp", "gather_rows", "group_mean",
                    "gru_cell", "layer_norm", "linear", "matmul", "mul", "relu",
                    "slot_attention"],
    "encode_episode_cache": ["add", "attention_heads", "exp", "gather_rows", "gru_cell",
                             "layer_norm", "linear", "matmul", "mul", "relu",
                             "slot_attention"],
    "stage1_metrics": ["add", "attention_heads", "concat", "exp", "gather_rows", "gru_cell",
                       "layer_norm", "linear", "matmul", "mul", "relu", "sigmoid",
                       "slot_attention"],
    "assignment_flip_rate": ["add", "attention_heads", "concat", "exp", "gather_rows",
                             "gru_cell", "layer_norm", "linear", "matmul", "mul", "relu",
                             "sigmoid", "slot_attention"],
    "action_accuracy": ["add", "attention_heads", "concat", "gather_rows", "group_mean",
                        "layer_norm", "linear", "matmul", "relu"],
}


@pytest.fixture(scope="module")
def passes():
    """Each pass as (its function, the arguments of one call) on a fresh `goal`
    pipeline: one policy step, and a cache, validation and accuracy over one
    two-frame episode."""
    cfg = load_config(overrides=["subset=goal"])
    pipeline = Pipeline(cfg)
    world = World(cfg.world_config(), 3)
    rgb, _ = world.render()
    episode = generate_episode(3, cfg.world_config())
    corpus = Corpus([dataclasses.replace(episode, frames=episode.frames[:2])], cfg.patch_size)
    return {
        "policy_step": (Pipeline.policy_step,
                        (pipeline, rgb, world.proprio(), world.task, None, 3, 0)),
        "encode_episode_cache": (Pipeline.encode_episode_cache,
                                 (pipeline, corpus.frames, [3])),
        "stage1_metrics": (stage1_metrics, (pipeline, corpus)),
        "assignment_flip_rate": (assignment_flip_rate, (pipeline, corpus, True)),
        "action_accuracy": (action_accuracy, (pipeline, flatten_cache(pipeline, corpus))),
    }


def patch_outputs(monkeypatch, faulty):
    """Route every op's output through `faulty(op name, value)`; returns the
    list of the op names recorded since."""
    recorded = []
    primitive = T.primitive

    def patched(data, parents, backward, op):
        data = faulty(op, np.array(data, dtype=np.float64))
        recorded.append(op)
        return primitive(data, parents, backward, op)

    monkeypatch.setattr(T, "primitive", patched)
    return recorded


def poison(data: np.ndarray, value: float) -> np.ndarray:
    data.flat[0] = value
    return data


@pytest.mark.parametrize("name", sorted(PASS_OPS))
def test_each_pass_records_the_ops_listed_for_it(passes, name, monkeypatch):
    recorded = patch_outputs(monkeypatch, lambda op, data: data)
    fn, args = passes[name]
    fn(*args)
    assert sorted(set(recorded)) == PASS_OPS[name]


@pytest.mark.parametrize("value", [np.nan, -np.inf], ids=["nan", "-inf"])
@pytest.mark.parametrize("name, op", [(name, op) for name, ops in sorted(PASS_OPS.items())
                                      for op in ops])
def test_a_non_finite_output_of_any_op_names_that_op(passes, name, op, value, monkeypatch):
    patch_outputs(monkeypatch, lambda op_name, data: poison(data, value) if op_name == op
                  else data)
    fn, args = passes[name]
    with pytest.raises(NonFiniteError) as err:
        fn(*args)
    assert str(err.value) == f"non-finite value produced by {op}"


@pytest.mark.parametrize("name", sorted(PASS_OPS))
def test_an_infinite_output_of_any_one_call_names_its_op(passes, name, monkeypatch):
    """-inf in the output of one call only, call by call. This is what shows
    that `relu` and `sigmoid`, which map -inf to 0, check their input in a
    pass: poisoning every call of an op also poisons calls that no such op
    reads. The pass is wrapped again so that each of its runs, the unchecked
    one and the replay, counts its calls from zero."""
    fn, args = passes[name]
    target = None
    recorded = patch_outputs(monkeypatch, lambda op, data: poison(data, -np.inf)
                             if len(recorded) == target else data)

    @T.inference_pass
    def run():
        recorded.clear()
        return fn.__wrapped__(*args)

    run()
    unnamed = []
    for target, op in enumerate(list(recorded)):
        try:
            run()
            unnamed.append((target, op, "no error"))
        except NonFiniteError as exc:
            if str(exc) != f"non-finite value produced by {op}":
                unnamed.append((target, op, str(exc)))
    assert unnamed == []


@T.inference_pass
def overflow_through(op, x: float) -> np.ndarray:
    """op(-exp(x)), a pass whose only read-out is its result."""
    return T.check_finite(op(T.mul(T.exp(Tensor(x)), -1.0)).data, "read-out")


@pytest.mark.parametrize("op", [T.relu, T.sigmoid, T.abs_])
def test_a_pass_replays_with_every_op_checked_to_name_the_op(op):
    assert np.isfinite(overflow_through(op, 1.0))
    # exp(1000) is inf: relu and sigmoid map -inf to 0, abs carries it to the read-out
    for mode, recording in ((contextlib.nullcontext(), False), (T.fresh_tape(), True)):
        with mode:
            with pytest.raises(NonFiniteError, match="^non-finite value produced by exp$"):
                overflow_through(op, 1000.0)
            assert T.grad_enabled() is recording  # the pass restores the caller's mode
    with T.no_grad(), pytest.raises(NonFiniteError, match="^non-finite value produced by exp$"):
        T.exp(Tensor(1000.0))  # outside a pass, no_grad still checks every op


def test_quiet_is_a_no_op_in_a_pass_first_run_and_a_fresh_tape():
    silenced = []

    @T.inference_pass
    def read_out(x: float) -> np.ndarray:
        silenced.append(isinstance(T.quiet(), np.errstate))
        return T.check_finite(np.array(x), "read-out")

    with pytest.raises(NonFiniteError, match="read-out"):
        read_out(np.inf)
    # the first run is under the pass's own errstate; the replay silences op by op
    assert silenced == [False, True]
    with T.no_grad():
        assert isinstance(T.quiet(), np.errstate)
    with T.fresh_tape():  # a training step runs whole under one errstate
        assert not isinstance(T.quiet(), np.errstate)
        with T.no_grad():
            assert not isinstance(T.quiet(), np.errstate)
    assert isinstance(T.quiet(), np.errstate)


@pytest.mark.parametrize("command, failed", [("eval", "evaluation"),
                                             ("inspect", "inspection")])
def test_exit_4_names_the_command_that_failed_and_the_op(command, failed, tmp_path, capsys):
    """Finite parameters whose frontend projection overflows: the pass fails
    at a read-out or kernel check, and the replay names the op."""
    cfg = load_config(overrides=["subset=goal"])
    pipeline = Pipeline(cfg)
    state = pipeline.stage1_params().state()
    state["frontend.proj_w"] = np.full_like(state["frontend.proj_w"], 1e308)
    save_checkpoint(tmp_path / "stage1.ckpt", state)
    save_checkpoint(tmp_path / "stage2.ckpt", pipeline.stage2_params().state())
    argv = {"eval": ["--stage2", str(tmp_path / "stage2.ckpt"), "--rollouts", "1"],
            "inspect": ["--episode", str(serialize_episode(
                generate_episode(3, cfg.world_config()), tmp_path / "data"))]}[command]
    code = main([command, "--stage1", str(tmp_path / "stage1.ckpt"), *argv,
                 "--out", str(tmp_path / "out")])
    assert code == EXIT_TRAINING
    assert capsys.readouterr().err == f"{failed} failed: non-finite value produced by linear\n"
