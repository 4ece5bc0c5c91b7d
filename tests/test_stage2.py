"""Stage 2 decodes a batch of cached frames as one row-stacked graph.

The batched logits and gradients must equal those of the same frames decoded
one at a time, the B=1 case, which is also the policy step's graph.
"""

import numpy as np
import pytest

from slotforge import tensor as T
from slotforge import train
from slotforge.checkpoint import save_checkpoint
from slotforge.config import load_config
from slotforge.decoder import ACTION_DIMS, action_to_bins
from slotforge.losses import action_ce
from slotforge.pipeline import Pipeline
from slotforge.world import generate_episode, serialize_episode

FRAMES = 16


def cached_frames(overrides, count=FRAMES):
    cfg = load_config(overrides=["subset=goal", *overrides])
    pipeline = Pipeline(cfg)
    episode = generate_episode(7, cfg.world_config())
    cache = pipeline.encode_episode_cache([episode.frames], [7])
    assert len(cache) >= count
    return pipeline, cache[:count]


def step_loss(pipeline, logits, entries):
    bins = np.concatenate([action_to_bins(e["action"], pipeline.cfg.action_bins)
                           for e in entries])
    return T.mul(action_ce(logits, bins), 1.0 / bins.size)


def batched(pipeline, entries):
    with T.fresh_tape() as tape:
        logits = pipeline.stage2_logits(entries)
        tape.backward(step_loss(pipeline, logits, entries))
    return logits.data


def per_frame(pipeline, entries):
    """One B=1 graph per frame on one tape, their losses summed as one step's."""
    with T.fresh_tape() as tape:
        logits = [pipeline.stage2_logits([entry]) for entry in entries]
        terms = [step_loss(pipeline, lg, [entry]) for lg, entry in zip(logits, entries)]
        tape.backward(T.mul(T.add_all(terms), 1.0 / len(entries)))
    return np.concatenate([lg.data for lg in logits])


@pytest.mark.parametrize("overrides", [[], ["relations_on=false"], ["filter_on=false"]])
def test_batched_logits_and_gradients_match_per_frame_decoding(overrides):
    pipeline, entries = cached_frames(overrides)
    params = pipeline.stage2_params()
    results = []
    for decode in (per_frame, batched):
        T.zero_grads(params.tensors())
        logits = decode(pipeline, entries)
        results.append((logits, {name: t.grad for name, t in params.items()}))
    (ref_logits, ref_grads), (logits, grads) = results
    assert logits.shape == (FRAMES * ACTION_DIMS, pipeline.cfg.action_bins)
    np.testing.assert_allclose(logits, ref_logits, rtol=1e-12, atol=1e-12)
    reached = [name for name, grad in grads.items() if grad is not None]
    assert reached == [name for name, grad in ref_grads.items() if grad is not None]
    assert any(name.startswith("decoder.") for name in reached)
    for name in reached:
        np.testing.assert_allclose(grads[name], ref_grads[name], rtol=1e-12, atol=1e-12,
                                   err_msg=name)


def test_a_step_records_the_same_tape_for_any_batch_size():
    pipeline, entries = cached_frames([])
    sizes = []
    for count in (4, 16):
        with T.fresh_tape() as tape:
            step_loss(pipeline, pipeline.stage2_logits(entries[:count]), entries[:count])
        sizes.append(len(tape))
    assert sizes[0] == sizes[1] < 100


def test_bundles_of_mixed_length_are_a_shape_error():
    cfg = load_config(overrides=["subset=goal"])
    pipeline = Pipeline(cfg)
    grid = cfg.image_size // cfg.patch_size
    entries = [{"dense": np.zeros((grid * grid, cfg.width)), "grid": (grid, grid),
                "slots": np.zeros((cfg.num_selected, cfg.width)), "task": task,
                "proprio": np.zeros(4), "action": np.zeros(ACTION_DIMS)}
               for task in ("robot put the red square on the blue circle",
                            "put the red square on the blue circle")]
    extra = cfg.num_selected + cfg.num_relations + 1
    with pytest.raises(T.ShapeError, match=rf"differ in length: \[{extra + 9}, {extra + 8}\]"):
        pipeline.stage2_logits(entries)


def test_stage2_computes_no_frame_targets(tmp_path, monkeypatch):
    cfg = load_config(overrides=["subset=pair", "stage2_iters=1", "batch_frames=2"])
    serialize_episode(generate_episode(3, cfg.world_config()), tmp_path / "train")
    serialize_episode(generate_episode(4, cfg.world_config()), tmp_path / "val")
    save_checkpoint(tmp_path / "s1.ckpt", Pipeline(cfg).stage1_params().state())

    def no_targets(*args):
        raise AssertionError("stage 2 computed frame targets")

    monkeypatch.setattr(train, "frame_targets", no_targets)
    result = train.train_stage2(cfg, tmp_path / "s1.ckpt", tmp_path / "train",
                                tmp_path / "s2", val_dir=tmp_path / "val")
    assert result["steps"] == 1
