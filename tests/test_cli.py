"""Command line exit codes for configuration, data and training errors."""

import json
import struct

import numpy as np
import pytest

from slotforge import pnm
from slotforge.checkpoint import save_checkpoint
from slotforge.cli import EXIT_CONFIG, EXIT_DATA, EXIT_OK, EXIT_TRAINING, main
from slotforge.config import RunConfig, load_config
from slotforge.evaluate import evaluate
from slotforge.optim import AdaptiveOptimizer
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


def test_eval_with_a_flipped_payload_bit_exits_with_one_data_error_line(
        tmp_path, capsys, stage1_ckpt, stage2_ckpt):
    path = tmp_path / "stage1.ckpt"
    blob = bytearray(stage1_ckpt.read_bytes())
    blob[len(blob) // 2] ^= 1  # bit 0 of a byte within one parameter's values
    path.write_bytes(bytes(blob))
    code = main(["eval", "--stage1", str(path), "--stage2", str(stage2_ckpt),
                 "--rollouts", "1", "--out", str(tmp_path / "out")])
    assert code == EXIT_DATA
    err = capsys.readouterr().err
    assert err.startswith(f"data error: {path}: ") and err.count("\n") == 1
    assert "Bad CRC-32" in err


def test_eval_with_a_version_1_checkpoint_exits_with_one_data_error_line(
        tmp_path, capsys, stage2_ckpt):
    path = tmp_path / "stage1.ckpt"
    path.write_bytes(b"SLFG" + struct.pack("<I", 1) + struct.pack("<I", 1) + b"w"
                     + struct.pack("<2I", 1, 1) + struct.pack("<d", 1.0))
    code = main(["eval", "--stage1", str(path), "--stage2", str(stage2_ckpt),
                 "--rollouts", "1", "--out", str(tmp_path / "out")])
    assert code == EXIT_DATA
    assert capsys.readouterr().err == (f"data error: {path}: version-1 checkpoint, "
                                       "which this release does not read; retrain\n")


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


@pytest.mark.parametrize("key, value", [("opt.step", [-1.0]), ("opt.step", [2.5]),
                                        ("v", np.nan), ("v", -1.0)],
                         ids=["negative-step", "fractional-step", "nan-moment",
                              "negative-moment"])
def test_train1_resume_from_tampered_optimizer_state_exits_with_data_error(
        key, value, tmp_path, capsys, episode):
    params = Pipeline(RunConfig()).stage1_params()
    state = params.state() | AdaptiveOptimizer(params, 1e-3, 1, 1.0).state()
    if key == "v":
        key = next(name for name in state if name.endswith(".v"))
        state[key] = np.full_like(state[key], value)
    else:
        state[key] = np.array(value)
    save_checkpoint(tmp_path / "tampered.ckpt", state)
    code = main(["train1", "--data", str(episode.parent), "--resume",
                 str(tmp_path / "tampered.ckpt"), "--override", "stage1_iters=1",
                 "--out", str(tmp_path / "out")])
    assert code == EXIT_DATA
    assert f"data error: optimizer state {key}: " in capsys.readouterr().err
    assert_no_manifest(tmp_path / "out")


def test_train1_that_goes_non_finite_exits_with_training_error(tmp_path, capsys, episode):
    code = main(["train1", "--data", str(episode.parent), "--override", "lr=1e200",
                 "--override", "stage1_iters=3", "--out", str(tmp_path / "out")])
    assert code == EXIT_TRAINING
    err = capsys.readouterr().err
    assert err.startswith("training failed: non-finite ")
    assert err.count("\n") == 1 and "Traceback" not in err


def test_train1_that_fails_records_the_step_and_error_in_its_manifest(tmp_path, capsys,
                                                                      episode):
    out = tmp_path / "out"
    code = main(["train1", "--data", str(episode.parent), "--override", "lr=1e200",
                 "--override", "stage1_iters=3", "--out", str(out)])
    assert code == EXIT_TRAINING
    manifest = json.loads((out / "manifest.json").read_text())
    rows = (out / "stage1_loss.csv").read_text().splitlines()[1:]
    assert manifest["failed_step"] == len(rows) < 3
    assert manifest["error"].startswith("NonFiniteError: non-finite ")
    assert manifest["error"].split(": ", 1)[1] in capsys.readouterr().err
    assert not (out / "stage1.ckpt").exists()


def test_eval_expert_needs_no_checkpoint(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(Pipeline, "__init__", lambda *args: pytest.fail("built a Pipeline"))
    code = main(["eval", "--rollouts", "2", "--expert", "--out", str(tmp_path / "out")])
    assert code == EXIT_OK
    assert (tmp_path / "out" / "success.csv").read_text().endswith("average,2,1.000\n")
    assert "average: 1.000 over 2 rollouts" in capsys.readouterr().out


@pytest.mark.parametrize("given", ["none", "stage1", "stage2"])
def test_eval_of_the_policy_without_both_checkpoints_is_a_config_error(given, tmp_path,
                                                                       capsys, stage1_ckpt,
                                                                       stage2_ckpt):
    argv = ["eval", "--rollouts", "1", "--out", str(tmp_path / "out")]
    if given != "none":
        argv += [f"--{given}", str(stage1_ckpt if given == "stage1" else stage2_ckpt)]
    assert main(argv) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err == "config error: eval needs --stage1 and --stage2 unless --expert is given\n"
    assert not (tmp_path / "out" / "success.csv").exists()


def test_eval_expert_end_to_end_never_steps_the_policy(tmp_path, capsys, monkeypatch,
                                                       stage1_ckpt, stage2_ckpt):
    calls = []
    monkeypatch.setattr(Pipeline, "policy_step", lambda *args, **kwargs: calls.append(args))
    code = main(["eval", "--stage1", str(stage1_ckpt), "--stage2", str(stage2_ckpt),
                 "--rollouts", "2", "--expert", "--out", str(tmp_path / "out")])
    assert code == EXIT_OK
    assert calls == []
    assert (tmp_path / "out" / "success.csv").read_text() == (
        "task,rollouts,success\n"
        "robot put the blue circle on the red circle,1,1.000\n"
        "robot put the yellow circle on the green square,1,1.000\n"
        "average,2,1.000\n")
    assert "average: 1.000 over 2 rollouts" in capsys.readouterr().out


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


@pytest.mark.parametrize("argv, code, message", [
    (["gen", "--episodes", "0"], EXIT_CONFIG, "config error: episodes must be >= 1, got 0"),
    (["gen", "--episodes", "-1"], EXIT_CONFIG, "config error: episodes must be >= 1, got -1"),
    (["eval", "--rollouts", "0"], EXIT_CONFIG, "config error: rollouts must be >= 1, got 0"),
    # a scene that cannot fit its frame fails before it draws a position
    (["gen", "--episodes", "2", "--override", "image_size=16"], EXIT_DATA,
     "data error: circle1 (13 px) cannot fit a 16x16 frame"),
    (["eval", "--expert", "--override", "image_size=16"], EXIT_DATA,
     "data error: square1 (13 px) cannot fit a 16x16 frame"),
    (["gen", "--subset", "long", "--override", "image_size=8"], EXIT_DATA,
     "data error: square1 needs a 2x2 block of 8-pixel cells; the frame is 8x8"),
    # the expert holds the grasp for idle_frames frames, past the frame cap
    (["gen", "--episodes", "1", "--override", "idle_frames=500"], EXIT_DATA,
     "data error: episode 0 exceeded 200 frames"),
], ids=["episodes-zero", "episodes-negative", "rollouts-zero", "gen-scene-too-large",
        "eval-expert-scene-too-large", "gen-long-grid-too-small", "gen-episode-too-long"])
def test_bad_arguments_exit_with_their_code_and_one_line(argv, code, message, tmp_path,
                                                         capsys, stage1_ckpt):
    if argv[0] == "eval":
        argv = argv + ["--stage1", str(stage1_ckpt), "--stage2", str(stage1_ckpt)]
    assert main(argv + ["--out", str(tmp_path / "out")]) == code
    assert capsys.readouterr().err == message + "\n"
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


def test_frames_the_patch_grid_cannot_cut_exit_with_data_error(tmp_path, capsys):
    """Every episode is checked before any frame's targets are built, so frames
    of another size fail by name even where the run's patch size does not
    divide them."""
    data = tmp_path / "data"
    assert main(["gen", "--episodes", "1", "--override", "image_size=60",
                 "--override", "patch_size=4", "--out", str(data)]) == EXIT_OK
    capsys.readouterr()
    out = tmp_path / "out"
    assert main(["train1", "--data", str(data), "--out", str(out)]) == EXIT_DATA
    assert capsys.readouterr().err == (
        f"data error: {data / 'ep_000000.jsonl'}: frame t=0 is 60x60, not image_size 64\n")
    assert_no_manifest(out)


@pytest.mark.parametrize("corrupt", [False, True], ids=["stale", "stale-and-corrupt"])
def test_gen_checks_and_counts_only_the_episodes_it_wrote(tmp_path, capsys, corrupt):
    """A second `gen` into the same --out reports its own two `pair` episodes:
    not the `goal` episode seed 2 left from the first run, nor a file beside
    them that is no episode at all."""
    data = tmp_path / "data"
    assert main(["gen", "--subset", "goal", "--episodes", "3", "--out", str(data)]) == EXIT_OK
    if corrupt:
        (data / "ep_999999.jsonl").write_text("not an episode\n")
    capsys.readouterr()
    assert main(["gen", "--subset", "pair", "--episodes", "2", "--out", str(data)]) == EXIT_OK
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == f"wrote 2 episodes to {data}"
    assert [line.split(":")[0] for line in lines[1:]] == ["pair"]
    assert lines[1].startswith("pair: episodes=2 ")
    assert (data / "ep_000002.jsonl").exists()


@pytest.mark.parametrize("command", ["train1", "train2"])
def test_two_episodes_with_one_key_exit_with_data_error(command, tmp_path, capsys,
                                                       stage1_ckpt):
    """An episode without its `.meta.json` seed is keyed by its index, here 1,
    which is the seed of the other episode: the two would share fresh-slot
    seeds and tracking labels."""
    data = tmp_path / "data"
    data.mkdir()
    cfg = load_config(overrides=["subset=goal"]).world_config()
    first, second = (serialize_episode(generate_episode(seed, cfg), data) for seed in (1, 5))
    second.with_suffix(".meta.json").unlink()
    argv = {"train1": ["train1"], "train2": ["train2", "--stage1", str(stage1_ckpt)]}[command]
    out = tmp_path / "out"
    assert main(argv + ["--data", str(data), "--override", "stage1_iters=1",
                        "--override", "stage2_iters=1", "--out", str(out)]) == EXIT_DATA
    assert capsys.readouterr().err == f"data error: {first} and {second} share episode key 1\n"
    assert not out.exists()


@pytest.fixture(scope="module")
def crowded(tmp_path_factory):
    """The path of one serialized `long` episode, 29 instances to a frame."""
    root = tmp_path_factory.mktemp("crowded")
    return serialize_episode(generate_episode(3, load_config(
        overrides=["subset=long"]).world_config()), root)


@pytest.mark.parametrize("command", ["train1", "train1-val", "inspect"])
def test_more_instances_than_slots_exits_with_data_error(command, tmp_path, capsys,
                                                         stage1_ckpt, episode, crowded):
    """A `long` episode under `goal`'s 16 slots fails as it loads, naming its
    file: as training data, as validation data before any step, and inspected."""
    argv = {
        "train1": ["train1", "--data", str(crowded.parent)],
        "train1-val": ["train1", "--data", str(episode.parent), "--val", str(crowded.parent)],
        "inspect": ["inspect", "--stage1", str(stage1_ckpt), "--episode", str(crowded)],
    }[command]
    out = tmp_path / "out"
    assert main(argv + ["--override", "subset=goal", "--override", "stage1_iters=1",
                        "--out", str(out)]) == EXIT_DATA
    assert capsys.readouterr().err == (
        f"data error: {crowded}: frame t=0 has 29 instances, more than num_slots 16\n")
    assert not out.exists()


def corrupt(kind, path):
    """Damage the one-episode corpus of `path`; return the expected error."""
    lines = path.read_text().splitlines()
    rec = json.loads(lines[0])
    rgb_path = path.with_name(path.stem + "_rgb.ppm")
    map_path = path.with_name(path.stem + "_map.pgm")
    height = 64 * len(lines)
    k = len(rec["instances"])
    if kind == "map-size":
        pnm.write_pgm(map_path, pnm.read_pgm(map_path)[:, :32])
        return f"{map_path}: film is {height}x32, not {len(lines)} frames of 64x64"
    if kind == "film-height":  # one frame more than the records
        film = pnm.read_ppm(rgb_path)
        pnm.write_ppm(rgb_path, np.concatenate([film, film[:64]]))
        return f"{rgb_path}: film is {height + 64}x64, not {len(lines)} frames of 64x64"
    if kind == "missing-film":
        rgb_path.unlink()
        return f"cannot read film: [Errno 2] No such file or directory: '{rgb_path}'"
    if kind == "map-value":
        maps = pnm.read_pgm(map_path)
        maps[0, 0] = k + 1
        pnm.write_pgm(map_path, maps)
        return f"{path}:1: instance map value {k + 1} exceeds the record's {k} instances"
    if kind.startswith("instances-"):
        rec["instances"] = {"int": 5, "string": ["a"], "empty": []}[kind[len("instances-"):]]
        if not rec["instances"]:  # no instances, and a map that shows none
            maps = pnm.read_pgm(map_path)
            maps[:64] = 0
            pnm.write_pgm(map_path, maps)
        path.write_text("\n".join([json.dumps(rec)] + lines[1:]) + "\n")
        return f"{path}:1: malformed record: instances is not a non-empty list of objects"
    if kind in ("id-list", "id-null", "id-empty", "relevant-string"):
        field, value = {"id-list": ("id", [1]), "id-null": ("id", None), "id-empty": ("id", ""),
                        "relevant-string": ("relevant", "no")}[kind]
        rec["instances"][0][field] = value
        path.write_text("\n".join([json.dumps(rec)] + lines[1:]) + "\n")
        return (f"{path}:1: malformed record: instance {field} is not "
                + ("a non-empty string" if field == "id" else "true or false"))
    if kind == "truncated":
        rgb_path.write_bytes(rgb_path.read_bytes()[:-10])
        return f"cannot read film: {rgb_path}: truncated pixel data"
    if kind == "spliced":  # bytes added to the pixels, which would shift every later one
        rgb_path.write_bytes(rgb_path.read_bytes() + bytes(3))
        return f"cannot read film: {rgb_path}: 3 trailing bytes after the pixel data"
    if kind == "negative-size":
        map_path.write_bytes(b"P5\n-8 -8\n255\n" + bytes(64))
        return f"cannot read film: {map_path}: image size -8x-8 is not positive"
    first = rec["instances"][0]
    if kind in ("relevance-flipped", "box-moved", "box-zero-width"):  # in the first record
        if kind == "relevance-flipped":
            first["relevant"] = not first["relevant"]
        elif kind == "box-moved":  # 0.3 of the frame is 19.2 px
            first["box"][0] += 0.3
        else:
            first["box"][2] = 0.0
        path.write_text("\n".join([json.dumps(rec)] + lines[1:]) + "\n")
        return f"{path}: t=0: {first['id']} " + {
            "relevance-flipped": f"relevance flag {first['relevant']} contradicts task string",
            "box-moved": "box deviates 19.20px from its mask",
            "box-zero-width": "box deviates "}[kind]
    if kind == "id-renamed":  # from the middle record on
        half = len(lines) // 2
        recs = [json.loads(line) for line in lines]
        ids = [inst["id"] for inst in rec["instances"]]
        for later in recs[half:]:
            later["instances"][0]["id"] += "0"
        path.write_text("\n".join(json.dumps(r) for r in recs) + "\n")
        return f"{path}: t={half}: instance ids changed: {[ids[0] + '0'] + ids[1:]} != {ids}"
    if kind == "t-swapped":
        second = json.loads(lines[1])
        rec["t"], second["t"] = second["t"], rec["t"]
        path.write_text("\n".join([json.dumps(rec), json.dumps(second)] + lines[2:]) + "\n")
        return f"{path}: frame index 1 not contiguous"
    if kind.startswith("old-"):  # a record that names its own image files
        rec["frame_file"] = f"{path.stem}/t000_rgb.ppm"
        if kind == "old-layout":  # one instance map file per frame
            rec["map_file"] = f"{path.stem}/t000_map.pgm"
        else:  # one mask file per instance
            for inst in rec["instances"]:
                inst["mask_file"] = f"{path.stem}/t000_{inst['id']}.pgm"
        path.write_text("\n".join([json.dumps(rec)] + lines[1:]) + "\n")
        return (f"{path}:1: record names its own image files (an older corpus layout); "
                "regenerate the corpus with `slotforge gen`")
    meta = path.with_name(path.stem + ".meta.json")
    meta.write_text(kind)
    return f"{meta}: malformed metadata: "


@pytest.mark.parametrize("kind", [
    "map-size", "film-height", "missing-film", "map-value", "truncated", "spliced",
    "negative-size", "old-layout", "old-mask-layout", "instances-int",
    "instances-string", "instances-empty", "id-list", "id-null", "id-empty", "relevant-string",
    pytest.param("{not json", id="meta-not-json"),
    pytest.param("[1]", id="meta-not-object"),
    pytest.param('{"seed": "x"}', id="meta-seed-not-integer"),
    pytest.param('{"seed": 1e999}', id="meta-seed-infinite"),
    pytest.param('{"seed": 2.5}', id="meta-seed-float"),
    pytest.param('{"seed": true}', id="meta-seed-bool"),
    pytest.param('{"seed": "7"}', id="meta-seed-string"),
    pytest.param('{"layout_id": false}', id="meta-layout-id-bool"),
    pytest.param('{"subset": 5}', id="meta-subset-integer"),
    pytest.param('{"carried_id": null}', id="meta-carried-id-null"),
    pytest.param('{"target_id": ["square1"]}', id="meta-target-id-list"),
])
def test_corrupt_corpus_exits_train1_with_data_error(kind, tmp_path, capsys):
    path = serialize_episode(generate_episode(3, RunConfig().world_config()), tmp_path / "data")
    message = corrupt(kind, path)
    out = tmp_path / "out"
    assert main(["train1", "--data", str(path.parent), "--override", "stage1_iters=1",
                 "--out", str(out)]) == EXIT_DATA
    err = capsys.readouterr().err
    assert message in err and err.count("\n") == 1
    assert_no_manifest(out)


@pytest.mark.parametrize("kind", ["relevance-flipped", "box-moved", "id-renamed",
                                  "t-swapped", "box-zero-width"])
@pytest.mark.parametrize("command", ["train1", "train2", "inspect"])
def test_labels_the_validator_rejects_exit_with_data_error(command, kind, tmp_path, capsys,
                                                           stage1_ckpt):
    """An episode that parses but whose labels disagree with its frames, its
    own first frame or its record order fails as it loads, naming its file."""
    path = serialize_episode(generate_episode(3, RunConfig().world_config()), tmp_path / "data")
    message = corrupt(kind, path)
    argv = {
        "train1": ["train1", "--data", str(path.parent)],
        "train2": ["train2", "--data", str(path.parent), "--stage1", str(stage1_ckpt)],
        "inspect": ["inspect", "--stage1", str(stage1_ckpt), "--episode", str(path)],
    }[command]
    out = tmp_path / "out"
    assert main(argv + ["--override", "stage1_iters=1", "--override", "stage2_iters=1",
                        "--out", str(out)]) == EXIT_DATA
    err = capsys.readouterr().err
    assert err.startswith(f"data error: {message}") and err.count("\n") == 1
    assert not out.exists()


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
    assert names(data) == ["ep_000000.jsonl", "ep_000000.meta.json", "ep_000000_map.pgm",
                           "ep_000000_rgb.ppm"]
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
    assert main(argv + ["--out", str(out / "sub")]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err == (f"config error: --out {out / 'sub'} is below {out}, which exists and is "
                   "not a directory\n")
    assert out.read_text() == "kept\n"
