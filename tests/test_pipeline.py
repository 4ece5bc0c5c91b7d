"""Fixed-seed end-to-end pin of pipeline, train, evaluate and reports.

One tiny run on three `goal` episodes: a few stage-1 steps with validation,
the assignment flip rate with carryover on and off, two stage-2 steps, the
stage-2 feature cache, short closed-loop rollouts and one inspection report.
Every output is compared exactly, so a refactor that claims to keep behaviour
must keep every byte. Long outputs are compared by their SHA-256 digest.
"""

from __future__ import annotations

import hashlib
import json

import pytest

from slotforge.config import load_config
from slotforge.evaluate import evaluate
from slotforge.reports import inspect_report
from slotforge.train import (Corpus, assignment_flip_rate, flatten_cache,
                             train_stage1, train_stage2)
from slotforge.world import generate_episode, load_episode, serialize_episode

OVERRIDES = ["subset=goal", "seed=5", "stage1_iters=4", "eval_every=2",
             "batch_clips=2", "clip_len=3", "stage2_iters=2", "batch_frames=4",
             "rollout_horizon=6"]
TRAIN_SEEDS = (2, 3)
VAL_SEED = 6


def digest(*chunks) -> str:
    h = hashlib.sha256()
    for chunk in chunks:
        h.update(chunk if isinstance(chunk, bytes) else repr(chunk).encode())
    return h.hexdigest()[:16]


def params_digest(group) -> str:
    return digest(*(part for name, t in sorted(group.items())
                    for part in (name, t.data.tobytes())))


def cache_digest(cache: list[dict]) -> str:
    chunks = []
    for entry in cache:
        chunks += [entry["dense"].tobytes(), entry["grid"], entry["slots"].tobytes(),
                   entry["selected"], entry["task"], entry["proprio"].tobytes(),
                   entry["action"].tobytes()]
    return digest(*chunks)


@pytest.fixture(scope="module")
def run(tmp_path_factory):
    root = tmp_path_factory.mktemp("pin")
    cfg = load_config(overrides=OVERRIDES)
    for seed in TRAIN_SEEDS:
        serialize_episode(generate_episode(seed, cfg.world_config()), root / "train")
    val_path = serialize_episode(generate_episode(VAL_SEED, cfg.world_config()),
                                 root / "val")

    out = {}
    s1 = train_stage1(cfg, root / "train", root / "s1", val_dir=root / "val")
    out["stage1_csv"] = (root / "s1" / "stage1_loss.csv").read_text()
    out["stage1_history"] = s1["history"]
    out["stage1_params"] = params_digest(s1["pipeline"].stage1_params())

    val = Corpus.load(root / "val", cfg.patch_size)
    out["flip"] = (assignment_flip_rate(s1["pipeline"], val, True),
                   assignment_flip_rate(s1["pipeline"], val, False))

    s2 = train_stage2(cfg, s1["checkpoint"], root / "train", root / "s2",
                      val_dir=root / "val")
    pipe = s2["pipeline"]
    out["stage2_csv"] = (root / "s2" / "stage2_loss.csv").read_text()
    out["stage2_history"] = s2["history"]
    out["stage2_params"] = params_digest(pipe.stage2_params())

    train = Corpus.load(root / "train", cfg.patch_size)
    cache = flatten_cache(pipe, train)
    out["cache_len"] = (len(cache), sum(len(f) for f in train.frames))
    out["cache"] = cache_digest(cache)

    out["table"] = evaluate(pipe, cfg, 2, out_dir=root / "eval")
    out["success_csv"] = (root / "eval" / "success.csv").read_text()
    episode = load_episode(val_path)
    state, actions = None, []
    for record in episode.frames[:4]:
        action, state = pipe.policy_step(record.rgb, record.proprio, record.task, state,
                                         episode_key=VAL_SEED, t=record.t)
        actions.append(action.tobytes())
    out["policy"] = digest(*actions, state.data.tobytes())

    report = inspect_report(s1["pipeline"], episode, 3, root / "inspect")
    out["report_json"] = (root / "inspect" / "report.json").read_text()
    out["report_summary"] = report
    out["inspect_files"] = digest(*(part for p in sorted((root / "inspect").iterdir())
                                    for part in (p.name, p.read_bytes())))
    return out


def test_stage1_losses_validation_and_parameters(run):
    assert run["stage1_csv"] == (
        "step,L_box,L_obj,L_seg,L_track,L_int,total\n"
        "0,10.060449,0.704142,0.765819,4.681804,1.893167,15.412409\n"
        "1,9.500762,0.839761,0.762630,4.199101,1.108178,13.891000\n"
        "2,7.973421,0.734628,0.753817,3.982559,0.880401,11.966233\n"
        "3,6.309332,0.756188,0.757080,3.949365,0.879445,10.298634\n")
    assert run["stage1_history"] == [
        {"iou": 0.022497982162381698, "auc": 0.4860220797720798, "step": 2},
        {"iou": 0.01842615505510727, "auc": 0.484107905982906, "step": 4}]
    assert run["stage1_params"] == "43cf7a6dd94ebcf7"


def test_flip_rate_with_and_without_carryover(run):
    assert run["flip"] == (0.546583850931677, 0.9254658385093167)


def test_stage2_losses_validation_and_parameters(run):
    assert run["stage2_csv"] == "step,action_ce\n0,6.541984\n1,5.821219\n"
    assert run["stage2_history"] == [
        {"step": 2, "min_acc": 0.0, "mean_acc": 0.017857142857142856}]
    assert run["stage2_params"] == "3414b3e136786625"


def test_feature_cache_has_one_entry_per_frame_and_fixed_bytes(run):
    assert run["cache_len"] == (42, 42)
    assert run["cache"] == "7319bef4e30d7e26"


def test_rollouts_and_policy_steps(run):
    assert run["table"] == {
        "rows": [{"task": "robot put the blue square on the green square",
                  "rollouts": 1, "success": 0.0},
                 {"task": "robot put the green square on the red circle",
                  "rollouts": 1, "success": 0.0}],
        "average": 0.0, "rollouts": 2}
    assert run["success_csv"] == (
        "task,rollouts,success\n"
        "robot put the blue square on the green square,1,0.000\n"
        "robot put the green square on the red circle,1,0.000\n"
        "average,2,0.000\n")
    assert run["policy"] == "fe4753b33a890c79"


def test_inspect_report(run):
    summary = json.loads(run["report_json"])
    assert summary == run["report_summary"]
    assert summary["frame"] == 3
    assert summary["task"] == "robot put the yellow square on the red square"
    assert summary["selected_slots"] == [2, 5, 7, 12]
    assert summary["pi"] == [0.07002, 0.035739, 0.231989, 0.06525, 0.023196,
                             0.156447, 0.068657, 0.170889, 0.024864, 0.027244,
                             0.0552, 0.078487, 0.194236, 0.035611, 0.027418,
                             0.027572]
    assert summary["matched"] == {"6": "square1", "4": "square2", "14": "circle1",
                                  "8": "circle2", "9": "square3", "0": "circle3",
                                  "13": "robot1"}
    assert summary["relation_tokens"] == 16
    assert run["inspect_files"] == "2f3e1e562cac1195"
