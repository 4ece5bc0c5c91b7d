"""Command line exit codes for configuration and data errors."""

import json

import numpy as np
import pytest

from slotforge import pnm
from slotforge.checkpoint import save_checkpoint
from slotforge.cli import EXIT_CONFIG, EXIT_DATA, EXIT_OK, main
from slotforge.config import RunConfig, load_config
from slotforge.evaluate import evaluate
from slotforge.pipeline import Pipeline
from slotforge.train import Corpus
from slotforge.world import WorldError, generate_episode, serialize_episode


@pytest.fixture(scope="module")
def stage1_ckpt(tmp_path_factory):
    """A stage-1 checkpoint of parameters only, with no optimizer state."""
    path = tmp_path_factory.mktemp("ckpt") / "stage1.ckpt"
    save_checkpoint(path, Pipeline(RunConfig()).stage1_params().state())
    return path


@pytest.fixture(scope="module")
def stage2_ckpt(tmp_path_factory):
    """A stage-2 checkpoint of parameters only, at initialisation."""
    path = tmp_path_factory.mktemp("ckpt") / "stage2.ckpt"
    save_checkpoint(path, Pipeline(RunConfig()).stage2_params().state())
    return path


@pytest.fixture(scope="module")
def episode(tmp_path_factory):
    """The path of one serialized episode; its directory is a one-episode corpus."""
    root = tmp_path_factory.mktemp("episodes")
    return serialize_episode(generate_episode(3, RunConfig().world_config()), root)


def assert_no_manifest(out):
    assert not (out / "config.txt").exists()
    assert not (out / "manifest.json").exists()


def test_train1_without_episodes_exits_with_data_error(tmp_path, capsys):
    (tmp_path / "empty").mkdir()
    code = main(["train1", "--data", str(tmp_path / "empty"),
                 "--out", str(tmp_path / "out")])
    assert code == EXIT_DATA
    assert "no episodes under" in capsys.readouterr().err
    assert_no_manifest(tmp_path / "out")


def test_train2_without_episodes_exits_with_data_error(tmp_path, capsys, stage1_ckpt):
    (tmp_path / "empty").mkdir()
    code = main(["train2", "--data", str(tmp_path / "empty"), "--stage1", str(stage1_ckpt),
                 "--out", str(tmp_path / "out")])
    assert code == EXIT_DATA
    assert "no episodes under" in capsys.readouterr().err
    assert_no_manifest(tmp_path / "out")


def test_empty_corpus_is_a_data_error():
    with pytest.raises(WorldError, match="empty corpus"):
        Corpus([], patch_size=8)


def test_eval_with_a_stage1_checkpoint_as_stage2_exits_with_data_error(
        tmp_path, capsys, stage1_ckpt):
    code = main(["eval", "--stage1", str(stage1_ckpt), "--stage2", str(stage1_ckpt),
                 "--rollouts", "1", "--out", str(tmp_path / "out")])
    assert code == EXIT_DATA
    assert "checkpoint missing parameters" in capsys.readouterr().err


def test_eval_with_a_non_finite_parameter_exits_with_data_error(tmp_path, capsys,
                                                                stage1_ckpt):
    state = Pipeline(RunConfig()).stage2_params().state()
    name = next(iter(state))
    state[name] = np.full_like(state[name], np.nan)
    path = tmp_path / "stage2.ckpt"
    save_checkpoint(path, state)
    code = main(["eval", "--stage1", str(stage1_ckpt), "--stage2", str(path),
                 "--rollouts", "1", "--out", str(tmp_path / "out")])
    assert code == EXIT_DATA
    assert f"parameter {name}: checkpoint holds non-finite values" in capsys.readouterr().err


def test_inspect_frame_outside_episode_exits_with_config_error(
        tmp_path, capsys, stage1_ckpt, episode):
    code = main(["inspect", "--stage1", str(stage1_ckpt), "--episode", str(episode),
                 "--frame", "999", "--out", str(tmp_path / "out")])
    assert code == EXIT_CONFIG
    assert "frame 999 outside episode" in capsys.readouterr().err


def test_train1_resume_without_optimizer_state_exits_with_data_error(
        tmp_path, capsys, stage1_ckpt, episode):
    code = main(["train1", "--data", str(episode.parent), "--resume", str(stage1_ckpt),
                 "--out", str(tmp_path / "out")])
    assert code == EXIT_DATA
    assert "checkpoint missing optimizer state: ['opt." in capsys.readouterr().err
    assert_no_manifest(tmp_path / "out")


@pytest.mark.parametrize("command", ["eval", "train2", "inspect", "train1"])
def test_missing_checkpoint_file_exits_with_data_error(command, tmp_path, capsys,
                                                         stage1_ckpt, episode):
    missing = str(tmp_path / "missing.ckpt")
    out = ["--out", str(tmp_path / "out")]
    argv = {
        "eval": ["eval", "--stage1", missing, "--stage2", str(stage1_ckpt),
                 "--rollouts", "1"],
        "train2": ["train2", "--data", str(episode.parent), "--stage1", missing],
        "inspect": ["inspect", "--stage1", missing, "--episode", str(episode)],
        "train1": ["train1", "--data", str(episode.parent), "--resume", missing],
    }[command]
    assert main(argv + out) == EXIT_DATA
    assert f"{missing}: cannot read checkpoint" in capsys.readouterr().err
    assert_no_manifest(tmp_path / "out")


@pytest.mark.parametrize("content, message", [(None, "cannot read episode"),
                                              (b"\x86\xff", "not a text episode file")])
def test_unreadable_episode_exits_with_data_error(content, message, tmp_path, capsys,
                                                  stage1_ckpt):
    path = tmp_path / "ep_bad.jsonl"
    if content is not None:
        path.write_bytes(content)
    code = main(["inspect", "--stage1", str(stage1_ckpt), "--episode", str(path),
                 "--out", str(tmp_path / "out")])
    assert code == EXIT_DATA
    assert f"{path}: {message}" in capsys.readouterr().err


@pytest.mark.parametrize("argv, message", [
    (["gen", "--episodes", "0"], "episodes must be >= 1, got 0"),
    (["gen", "--episodes", "-1"], "episodes must be >= 1, got -1"),
    (["eval", "--rollouts", "0"], "rollouts must be >= 1, got 0"),
])
def test_counts_below_one_exit_with_config_error(argv, message, tmp_path, capsys,
                                                 stage1_ckpt):
    if argv[0] == "eval":
        argv = argv + ["--stage1", str(stage1_ckpt), "--stage2", str(stage1_ckpt)]
    assert main(argv + ["--out", str(tmp_path / "out")]) == EXIT_CONFIG
    assert message in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("n_rollouts", [0, -2])
def test_evaluate_below_one_rollout_raises_value_error(n_rollouts):
    with pytest.raises(ValueError, match=f"n_rollouts must be >= 1, got {n_rollouts}"):
        evaluate(Pipeline(RunConfig()), RunConfig(), n_rollouts)


@pytest.mark.parametrize("command", ["train1", "train2", "inspect"])
def test_frame_of_another_size_exits_with_data_error(command, tmp_path, capsys, episode):
    small = tmp_path / "small.ckpt"
    save_checkpoint(small, Pipeline(load_config(overrides=["image_size=32"]))
                    .stage1_params().state())
    argv = {
        "train1": ["train1", "--data", str(episode.parent)],
        "train2": ["train2", "--data", str(episode.parent), "--stage1", str(small)],
        "inspect": ["inspect", "--stage1", str(small), "--episode", str(episode)],
    }[command]
    out = tmp_path / "out"
    assert main(argv + ["--override", "image_size=32", "--out", str(out)]) == EXIT_DATA
    assert "frame t=0 is 64x64, not image_size 32" in capsys.readouterr().err
    assert not out.exists()


def corrupt(kind, path):
    """Damage the one-episode corpus of `path`; return the expected error."""
    lines = path.read_text().splitlines()
    rec = json.loads(lines[0])
    map_path = path.parent / rec["map_file"]
    k = len(rec["instances"])
    if kind == "map-size":
        pnm.write_pgm(map_path, np.zeros((32, 32), dtype=np.uint8))
        return f"{path}:1: instance map is 32x32, frame is 64x64"
    if kind == "map-value":
        instance_map = pnm.read_pgm(map_path)
        instance_map[0, 0] = k + 1
        pnm.write_pgm(map_path, instance_map)
        return f"{path}:1: instance map value {k + 1} exceeds the record's {k} instances"
    if kind.startswith("instances-"):
        rec["instances"] = {"int": 5, "string": ["a"], "empty": []}[kind[len("instances-"):]]
        if not rec["instances"]:  # no instances, and a map that shows none
            pnm.write_pgm(map_path, np.zeros((64, 64), dtype=np.uint8))
        path.write_text("\n".join([json.dumps(rec)] + lines[1:]) + "\n")
        return f"{path}:1: malformed record: instances is not a non-empty list of objects"
    if kind == "old-layout":  # one mask file per instance, no map
        del rec["map_file"]
        for inst in rec["instances"]:
            inst["mask_file"] = f"{path.stem}/t000_{inst['id']}.pgm"
        path.write_text("\n".join([json.dumps(rec)] + lines[1:]) + "\n")
        return (f"{path}:1: record names no instance map (an older corpus layout); "
                "regenerate the corpus with `slotforge gen`")
    meta = path.with_name(path.stem + ".meta.json")
    meta.write_text(kind)
    return f"{meta}: malformed metadata: "


@pytest.mark.parametrize("kind", [
    "map-size", "map-value", "old-layout", "instances-int", "instances-string",
    "instances-empty",
    pytest.param("{not json", id="meta-not-json"),
    pytest.param("[1]", id="meta-not-object"),
    pytest.param('{"seed": "x"}', id="meta-seed-not-integer"),
])
def test_corrupt_corpus_exits_train1_with_data_error(kind, tmp_path, capsys):
    path = serialize_episode(generate_episode(3, RunConfig().world_config()), tmp_path / "data")
    message = corrupt(kind, path)
    out = tmp_path / "out"
    assert main(["train1", "--data", str(path.parent), "--out", str(out)]) == EXIT_DATA
    assert message in capsys.readouterr().err
    assert_no_manifest(out)


@pytest.mark.parametrize("task, message", [
    (5, ":1: malformed record: task is not a string"),
    ("robot put the red rocket on the blue square",
     ":1: malformed record: task 'robot put the red rocket on the blue square': "
     "word 'rocket' not in vocabulary"),
    ("put the red square on the blue circle", "tasks differ in word count [8, 9]"),
], ids=["not-a-string", "unknown-word", "mixed-word-counts"])
@pytest.mark.parametrize("command", ["train1", "train2"])
def test_bad_task_exits_with_data_error(command, task, message, tmp_path, capsys,
                                        stage1_ckpt):
    path = serialize_episode(generate_episode(3, RunConfig().world_config()), tmp_path / "data")
    lines = path.read_text().splitlines()
    rec = json.loads(lines[0])
    rec["task"] = task
    path.write_text("\n".join([json.dumps(rec)] + lines[1:]) + "\n")
    argv = {"train1": ["train1"], "train2": ["train2", "--stage1", str(stage1_ckpt)]}[command]
    out = tmp_path / "out"
    assert main(argv + ["--data", str(path.parent), "--out", str(out)]) == EXIT_DATA
    assert message in capsys.readouterr().err
    assert_no_manifest(out)


def test_every_command_end_to_end(tmp_path, capsys):
    """gen, train1, train2, eval, inspect and budget on a tiny `pair` run, then
    one config error and one data error through train1."""
    pair = ["--override", "subset=pair", "--override", "stage1_iters=2",
            "--override", "stage2_iters=2", "--override", "rollout_horizon=4"]
    data, s1, s2, ev, report = (tmp_path / name for name in
                                ("data", "s1", "s2", "eval", "inspect"))

    def names(path):
        return sorted(p.name for p in path.iterdir())

    assert main(["gen", "--episodes", "1", "--out", str(data)] + pair) == EXIT_OK
    assert names(data) == ["ep_000000", "ep_000000.jsonl", "ep_000000.meta.json"]
    assert main(["train1", "--data", str(data), "--out", str(s1)] + pair) == EXIT_OK
    assert names(s1) == ["config.txt", "manifest.json", "stage1.ckpt", "stage1_loss.csv"]
    assert len((s1 / "stage1_loss.csv").read_text().splitlines()) == 1 + 2
    assert main(["train2", "--data", str(data), "--stage1", str(s1 / "stage1.ckpt"),
                 "--out", str(s2)] + pair) == EXIT_OK
    assert names(s2) == ["config.txt", "manifest.json", "stage2.ckpt", "stage2_loss.csv"]
    assert len((s2 / "stage2_loss.csv").read_text().splitlines()) == 1 + 2
    assert main(["eval", "--stage1", str(s1 / "stage1.ckpt"), "--stage2",
                 str(s2 / "stage2.ckpt"), "--rollouts", "1", "--out", str(ev)] + pair) == EXIT_OK
    assert names(ev) == ["success.csv"]
    assert main(["inspect", "--stage1", str(s1 / "stage1.ckpt"), "--episode",
                 str(data / "ep_000000.jsonl"), "--frame", "1", "--out", str(report)]
                + pair) == EXIT_OK
    assert names(report) == (["relation_attention.csv", "report.json"]
                             + [f"slot_{s:02d}_attn.pgm" for s in range(16)] + ["slots.csv"])
    assert main(["budget"] + pair) == EXIT_OK
    assert "configured ORC" in capsys.readouterr().out

    bad = tmp_path / "bad"
    train1 = ["train1", "--data", str(data), "--out", str(bad)] + pair
    assert main(train1 + ["--override", "lr=nan"]) == EXIT_CONFIG
    assert main(train1 + ["--override", "image_size=32"]) == EXIT_DATA
    err = capsys.readouterr().err
    assert "lr must be finite and > 0, got nan" in err
    assert "frame t=0 is 64x64, not image_size 32" in err
    assert not bad.exists()


@pytest.mark.parametrize("kind", ["missing", "directory", "unreadable", "not utf-8"])
def test_a_config_that_cannot_be_read_is_a_config_error(tmp_path, capsys, monkeypatch, kind):
    path = tmp_path / "run.cfg"
    if kind == "directory":
        path.mkdir()
    elif kind == "not utf-8":
        path.write_bytes(b"lr=0.1\n# \xff\xfe\n")
    elif kind == "unreadable":
        # a mode-000 file is still readable by root, so the denial is raised directly
        path.write_text("lr=0.1\n")

        def denied(self, *args, **kwargs):
            raise PermissionError(13, "Permission denied", str(self))

        monkeypatch.setattr(type(path), "read_text", denied)
    assert main(["budget", "--config", str(path)]) == EXIT_CONFIG
    assert f"config error: config file {path} cannot be read" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["gen", "train1", "train2", "eval", "inspect"])
def test_an_out_that_is_a_file_is_a_config_error(tmp_path, capsys, stage1_ckpt, stage2_ckpt,
                                                 episode, command):
    out = tmp_path / "out"
    out.write_text("kept\n")
    data = ["--data", str(episode.parent)]
    argv = {"gen": ["gen", "--episodes", "1"],
            "train1": ["train1"] + data,
            "train2": ["train2", "--stage1", str(stage1_ckpt)] + data,
            "eval": ["eval", "--stage1", str(stage1_ckpt), "--stage2", str(stage2_ckpt),
                     "--rollouts", "1"],
            "inspect": ["inspect", "--stage1", str(stage1_ckpt), "--episode", str(episode)],
            }[command]
    assert main(argv + ["--out", str(out)]) == EXIT_CONFIG
    assert f"config error: --out {out} exists and is not a directory" in capsys.readouterr().err
    assert out.read_text() == "kept\n"
