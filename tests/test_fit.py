"""The one training loop, `train.fit`, through its two callers.

Resume cuts the loss log back to the checkpoint's step; stage 2 stops early
and refuses to save when a stage-1 parameter moved or gained a gradient; a
0-step run takes no step.
"""

import numpy as np
import pytest

from slotforge import train
from slotforge.checkpoint import load_checkpoint, save_checkpoint
from slotforge.config import load_config
from slotforge.pipeline import Pipeline
from slotforge.world import generate_episode, serialize_episode

OVERRIDES = ["subset=pair", "seed=5", "batch_clips=1", "clip_len=2", "batch_frames=2"]


@pytest.fixture
def corpora(tmp_path):
    """A one-episode train and val corpus, and a stage-1 checkpoint of fresh parameters."""
    cfg = load_config(overrides=OVERRIDES)
    serialize_episode(generate_episode(3, cfg.world_config()), tmp_path / "train")
    serialize_episode(generate_episode(4, cfg.world_config()), tmp_path / "val")
    save_checkpoint(tmp_path / "s1.ckpt", Pipeline(cfg).stage1_params().state())
    return tmp_path


def log_steps(path):
    return [int(line.split(",")[0]) for line in path.read_text().splitlines()[1:]]


class Interrupted(Exception):
    pass


def test_a_resume_cuts_the_log_back_to_the_checkpoints_step(corpora, monkeypatch):
    out = corpora / "s1"
    stopped = train.train_stage1(load_config(overrides=OVERRIDES + ["stage1_iters=2"]),
                                 corpora / "train", out)
    at_checkpoint = (out / "stage1_loss.csv").read_text()
    assert log_steps(out / "stage1_loss.csv") == [0, 1]
    cfg = load_config(overrides=OVERRIDES + ["stage1_iters=4"])

    sample_clips = train.sample_clips

    def interrupt_at_step_3(corpus, cfg, step):
        if step == 3:
            raise Interrupted
        return sample_clips(corpus, cfg, step)

    monkeypatch.setattr(train, "sample_clips", interrupt_at_step_3)
    with pytest.raises(Interrupted):
        train.train_stage1(cfg, corpora / "train", out, resume=stopped["checkpoint"])
    interrupted = (out / "stage1_loss.csv").read_text().splitlines()
    assert log_steps(out / "stage1_loss.csv") == [0, 1, 2]
    monkeypatch.setattr(train, "sample_clips", sample_clips)

    resumed = train.train_stage1(cfg, corpora / "train", out, resume=stopped["checkpoint"])
    assert resumed["steps"] == 4
    lines = (out / "stage1_loss.csv").read_text().splitlines()
    assert log_steps(out / "stage1_loss.csv") == [0, 1, 2, 3]
    assert lines[:3] == at_checkpoint.splitlines()
    assert lines[3] == interrupted[3]


def test_a_0_step_run_takes_no_step(corpora):
    cfg = load_config(overrides=OVERRIDES + ["stage1_iters=0"])
    result = train.train_stage1(cfg, corpora / "train", corpora / "s1",
                                val_dir=corpora / "val")
    assert result["steps"] == 0
    assert result["history"] == []
    assert (corpora / "s1" / "stage1_loss.csv").read_text() == train.LOSS_CSV_HEADER + "\n"
    saved = load_checkpoint(result["checkpoint"])
    assert saved["opt.step"][0] == 0
    assert all(saved[name].tobytes() == t.data.tobytes()
               for name, t in Pipeline(cfg).stage1_params().items())


def test_stage2_stops_early_once_the_target_is_met(corpora):
    cfg = load_config(overrides=OVERRIDES + ["target_acc=-1", "early_stop_margin=0",
                                             "eval_every=1", "stage2_iters=3"])
    result = train.train_stage2(cfg, corpora / "s1.ckpt", corpora / "train",
                                corpora / "s2", val_dir=corpora / "val")
    assert result["steps"] == 1
    assert [list(row) for row in result["history"]] == [["step", "min_acc", "mean_acc"]]
    assert result["history"][0]["step"] == 1
    assert log_steps(corpora / "s2" / "stage2_loss.csv") == [0]


def nudge(t):
    t.data[...] += 1e-3


def add_gradient(t):
    t.grad = np.zeros_like(t.data)


@pytest.mark.parametrize("touch, message", [
    (nudge, "changed during stage 2"),
    (add_gradient, "accumulated a gradient"),
])
def test_stage2_refuses_to_save_when_a_stage1_parameter_is_touched(
        touch, message, corpora, monkeypatch):
    flatten_cache = train.flatten_cache

    def touching(pipeline, corpus):
        result = flatten_cache(pipeline, corpus)
        touch(next(iter(pipeline.stage1_params().items()))[1])
        return result

    monkeypatch.setattr(train, "flatten_cache", touching)
    cfg = load_config(overrides=OVERRIDES + ["stage2_iters=1"])
    with pytest.raises(train.TrainingError, match=message):
        train.train_stage2(cfg, corpora / "s1.ckpt", corpora / "train", corpora / "s2")
    assert not (corpora / "s2" / "stage2.ckpt").exists()
