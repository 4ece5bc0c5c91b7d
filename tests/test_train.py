"""Stage-1 resume: a run stopped at step k and resumed reproduces the
uninterrupted run bitwise, from a checkpoint written before the task filter
lost its language-side block too."""

from __future__ import annotations

import numpy as np

from slotforge.checkpoint import load_checkpoint, save_checkpoint
from slotforge.config import load_config
from slotforge.nn import CrossAttentionBlockParams, ParamGroup
from slotforge.train import train_stage1
from slotforge.world import generate_episode, serialize_episode

OVERRIDES = ["subset=goal", "seed=5", "stage1_iters=4", "eval_every=2",
             "batch_clips=2", "clip_len=3"]
# validation at step 2 always passes these targets, so the run stops there
STOP_AT_FIRST_EVAL = ["target_iou=-1", "target_auc=-1", "early_stop_margin=0"]


def former_language_block_records(width: int, heads: int) -> dict[str, np.ndarray]:
    """The 14 `filter.bca_lang.*` records and their optimizer moments that
    older stage-1 checkpoints carry."""
    block = CrossAttentionBlockParams.create(np.random.default_rng(0), width, heads)
    records = {}
    for name, t in ParamGroup().collect("filter.bca_lang", block).items():
        records[name] = t.data
        records[f"opt.{name}.v"] = np.full_like(t.data, 1e-6)
    return records


def test_resume_at_step_2_reproduces_the_uninterrupted_run_bitwise(tmp_path):
    cfg = load_config(overrides=OVERRIDES)
    for seed in (2, 3):
        serialize_episode(generate_episode(seed, cfg.world_config()), tmp_path / "train")
    serialize_episode(generate_episode(6, cfg.world_config()), tmp_path / "val")

    full = train_stage1(cfg, tmp_path / "train", tmp_path / "full", val_dir=tmp_path / "val")
    assert full["steps"] == 4

    stopped = train_stage1(load_config(overrides=OVERRIDES + STOP_AT_FIRST_EVAL),
                           tmp_path / "train", tmp_path / "resumed",
                           val_dir=tmp_path / "val")
    assert stopped["steps"] == 2
    ckpt = stopped["checkpoint"]
    old = former_language_block_records(cfg.width, cfg.heads)
    assert len(old) == 28
    save_checkpoint(ckpt, load_checkpoint(ckpt) | old)

    resumed = train_stage1(cfg, tmp_path / "train", tmp_path / "resumed",
                           val_dir=tmp_path / "val", resume=ckpt)
    assert resumed["steps"] == 4
    assert resumed["history"] == full["history"][1:]

    expected = {name: t.data.tobytes()
                for name, t in full["pipeline"].stage1_params().items()}
    got = {name: t.data.tobytes()
           for name, t in resumed["pipeline"].stage1_params().items()}
    assert list(got) == list(expected)
    assert [name for name in got if got[name] != expected[name]] == []
    assert ((tmp_path / "resumed" / "stage1_loss.csv").read_text()
            == (tmp_path / "full" / "stage1_loss.csv").read_text())
    # the optimizer moments match too, and the old records are not written back
    final, uninterrupted = load_checkpoint(ckpt), load_checkpoint(full["checkpoint"])
    assert sorted(final) == sorted(uninterrupted)
    assert all(final[k].tobytes() == uninterrupted[k].tobytes() for k in final)
