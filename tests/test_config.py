"""Subset presets: every subset trains both stages and every parameter gets a
gradient, a preset applies however the config is built, configs with too few
slots fail, and the text form rebuilds every field."""

import dataclasses

import numpy as np
import pytest

from slotforge import tensor as T
from slotforge.cli import EXIT_CONFIG, main
from slotforge.config import (SUBSET_PRESETS, ConfigError, RunConfig, load_config,
                              parse_config_text)
from slotforge.decoder import action_to_bins
from slotforge.losses import action_ce
from slotforge.pipeline import Pipeline
from slotforge.train import Corpus, sample_clips
from slotforge.world import generate_episode


def most_crowded_world(cfg):
    return dataclasses.replace(cfg, min_objects=cfg.max_objects).world_config()


@pytest.mark.parametrize("subset", sorted(SUBSET_PRESETS))
def test_one_stage1_step_on_the_most_crowded_scene(subset):
    cfg = load_config(overrides=[f"subset={subset}", "batch_clips=1", "clip_len=2"])
    episode = generate_episode(5, most_crowded_world(cfg))
    assert len(episode.frames[0].instances) == cfg.max_objects + 1  # plus the robot
    pipeline = Pipeline(cfg)
    batch = sample_clips(Corpus([episode], cfg.patch_size), cfg, 0)
    with T.fresh_tape() as tape:
        loss, parts = pipeline.stage1_batch_loss(batch)
        tape.backward(loss)
    assert np.isfinite(parts["total"])
    assert [name for name, t in pipeline.stage1_params().items() if t.grad is None] == []


@pytest.mark.parametrize("subset", sorted(SUBSET_PRESETS))
def test_one_stage2_step_reaches_every_stage2_parameter(subset):
    cfg = load_config(overrides=[f"subset={subset}"])
    episode = generate_episode(5, most_crowded_world(cfg))
    pipeline = Pipeline(cfg)
    entry = pipeline.encode_episode_cache([episode.frames[:1]], [5])[0]
    with T.fresh_tape() as tape:
        logits = pipeline.stage2_logits([entry])
        tape.backward(action_ce(logits, action_to_bins(entry["action"], cfg.action_bins)))
    assert [name for name, t in pipeline.stage2_params().items() if t.grad is None] == []
    assert all(t.grad is None for t in pipeline.stage1_params().tensors())


@pytest.mark.parametrize("subset", sorted(SUBSET_PRESETS))
def test_a_subset_brings_its_presets_however_the_config_is_built(subset):
    preset = SUBSET_PRESETS[subset]
    cfg = RunConfig(subset=subset)
    assert cfg == load_config(overrides=[f"subset={subset}"])
    assert {name: getattr(cfg, name) for name in preset} == preset
    world = cfg.world_config()
    assert (world.subset, world.min_objects, world.max_objects) == (
        subset, preset["min_objects"], preset["max_objects"])
    # a preset field that is set wins over the preset; the others still apply
    wide = RunConfig(subset=subset, num_slots=40)
    assert (wide.num_slots, wide.max_objects) == (40, preset["max_objects"])
    assert wide == load_config(overrides=[f"subset={subset}", "num_slots=40"])


def test_fewer_slots_than_objects_plus_robot_is_a_config_error():
    with pytest.raises(ConfigError, match="num_slots 7 cannot hold max_objects 7"):
        RunConfig(num_slots=7)
    with pytest.raises(ConfigError):
        load_config(overrides=["subset=long", "num_slots=24"])
    assert main(["budget", "--override", "subset=long",
                 "--override", "num_slots=24"]) == EXIT_CONFIG


@pytest.mark.parametrize("override", ["width=0", "heads=0", "heads=-4", "patch_size=0",
                                      "image_size=0", "batch_clips=0", "batch_frames=0",
                                      "eval_every=0", "num_layouts=0", "rollout_horizon=0",
                                      "num_relations=0", "refine_steps=0"])
def test_sizes_below_one_are_a_config_error(override, capsys):
    assert main(["budget", "--override", override]) == EXIT_CONFIG
    name, value = override.split("=")
    assert f"{name} must be >= 1, got {value}" in capsys.readouterr().err


@pytest.mark.parametrize("override, message", [
    ("lambda_box=-1", "loss weights must be finite and non-negative"),
    ("tau=0", "temperature must be positive"),
    ("noop_eps=-1", "noop_eps must be >= 0, got -1.0"),
    ("track_window=0", "track_window must be >= 1, got 0"),
])
def test_invalid_loss_weights_and_noop_threshold_are_config_errors(override, message,
                                                                    capsys):
    assert main(["budget", "--override", override]) == EXIT_CONFIG
    assert message in capsys.readouterr().err


@pytest.mark.parametrize("override, message", [
    ("lr=nan", "lr must be finite and > 0, got nan"),
    ("lr=-1", "lr must be finite and > 0, got -1.0"),
    ("lr=0", "lr must be finite and > 0, got 0.0"),
    ("lr=inf", "lr must be finite and > 0, got inf"),
    ("grad_clip=-1", "grad_clip must be finite and > 0, got -1.0"),
    ("grad_clip=0", "grad_clip must be finite and > 0, got 0.0"),
    ("grad_clip=nan", "grad_clip must be finite and > 0, got nan"),
    ("stage1_iters=-1", "stage1_iters must be >= 0, got -1"),
    ("stage2_iters=-1", "stage2_iters must be >= 0, got -1"),
])
def test_bad_step_sizes_and_iteration_counts_are_config_errors(override, message, capsys):
    assert main(["budget", "--override", override]) == EXIT_CONFIG
    assert message in capsys.readouterr().err


def test_a_removed_config_key_is_rejected(tmp_path, capsys):
    path = tmp_path / "run.cfg"
    path.write_text("rollouts_per_task = 20\n")
    assert main(["budget", "--config", str(path)]) == EXIT_CONFIG
    assert "unknown config key 'rollouts_per_task'" in capsys.readouterr().err


@pytest.mark.parametrize("overrides, message", [
    (["min_objects=9"], "need 2 <= min_objects <= max_objects, got 9 and 7"),
    (["min_objects=1", "max_objects=1"], "need 2 <= min_objects <= max_objects, got 1 and 1"),
    (["min_objects=0", "max_objects=0"], "need 2 <= min_objects <= max_objects, got 0 and 0"),
    (["idle_frames=-3"], "idle_frames must be >= 0, got -3"),
    (["seed=-1"], "seed must be >= 0, got -1"),
    (["color_pool=0"], "color_pool must lie in [1, 8], got 0"),
    (["color_pool=9"], "color_pool must lie in [1, 8], got 9"),
    (["shape_pool=5"], "shape_pool must lie in [1, 4], got 5"),
    (["color_pool=3"], "color_pool 3 x shape_pool 2 cannot give max_objects 7"),
])
def test_impossible_world_sizes_are_config_errors(overrides, message, tmp_path, capsys):
    out = tmp_path / "episodes"
    argv = ["gen", "--out", str(out), "--episodes", "1"]
    for pair in overrides:
        argv += ["--override", pair]
    assert main(argv) == EXIT_CONFIG
    assert message in capsys.readouterr().err
    assert not out.exists()


# one override of each field type: str is the subset, then int, float and bool
ROUND_TRIP_OVERRIDES = ["seed=12", "lr=0.000123456789", "tau=0.37", "filter_on=false",
                        "carryover_on=false", "noop_eps=0", "target_iou=0.1"]


@pytest.mark.parametrize("subset", [None] + sorted(SUBSET_PRESETS))
def test_the_text_form_rebuilds_every_field(subset):
    if subset is None:
        cfg = RunConfig()
    else:
        cfg = load_config(overrides=[f"subset={subset}"] + ROUND_TRIP_OVERRIDES)
    values = parse_config_text(cfg.to_text())
    assert sorted(values) == sorted(vars(cfg))
    rebuilt = RunConfig(**values)
    assert rebuilt == cfg
    assert rebuilt.to_text() == cfg.to_text()


def test_default_config_hash_is_pinned():
    assert RunConfig().hash() == "4ce9d6abc5a37fa8"
