"""Synthetic world: determinism, annotation invariants, serialization."""

import dataclasses
import json
import re

import numpy as np
import pytest

from slotforge import pnm
from slotforge.config import RunConfig
from slotforge.decoder import action_to_bins, bin_centers, snap_action
from slotforge.train import load_corpus
from slotforge.world import (MAX_FRAMES, AllNoOpsError, EpisodeParseError,
                             InfeasibleSceneError, World, WorldError,
                             dataset_statistics, episode_files, expert_actions,
                             filter_noops, generate_episode, load_episode,
                             relevant_nouns, serialize_episode, validate_episode)


def world_cfg(subset, **fields):
    return RunConfig(subset=subset, **fields).world_config()


def episode_bytes(ep):
    chunks = []
    for f in ep.frames:
        chunks.append(f.rgb.tobytes())
        chunks.append(f.action.tobytes())
        chunks.append(f.proprio.tobytes())
        chunks.append(f.instance_map.tobytes())
        for inst in f.instances:
            chunks.append(inst.box.tobytes())
    return b"".join(chunks)


def instance_labels(ep):
    return [[(inst.instance_id, inst.relevant) for inst in f.instances] for f in ep.frames]


class TestGeneration:
    def test_seeded_episode_reproducible_bitwise(self):
        cfg = world_cfg("goal")
        assert episode_bytes(generate_episode(7, cfg)) == episode_bytes(generate_episode(7, cfg))

    def test_robot_counts_when_mentioned(self):
        ep = generate_episode(11, world_cfg("goal"))
        relevant = {i.instance_id for i in ep.frames[0].instances if i.relevant}
        assert "robot1" in relevant and len(relevant) == 3

    def test_crowded_scene_generates_valid_disjoint_masks(self):
        cfg = world_cfg("long", min_objects=29, max_objects=29)
        ep = generate_episode(5, cfg)
        assert len(ep.frames[0].instances) == 30  # 29 objects plus the robot
        assert validate_episode(ep, RunConfig().noop_eps) == []

    def test_every_subset_validates(self):
        for subset in ("goal", "object", "spatial", "long", "pair"):
            ep = generate_episode(2, world_cfg(subset))
            assert validate_episode(ep, RunConfig().noop_eps) == [], subset

    def test_scripted_expert_succeeds(self):
        cfg = world_cfg("pair")
        world = World(cfg, 9)
        for _, action in zip(range(MAX_FRAMES), expert_actions(world)):
            world.step(action)
        assert world.success()

    @pytest.mark.parametrize("bad", [np.nan, 1.5])
    def test_an_action_that_is_nan_or_out_of_range_changes_nothing(self, bad):
        world = World(world_cfg("goal"), 3)
        positions = {name: pos.copy() for name, pos in world.positions.items()}
        action = np.zeros(7)
        action[0] = bad
        with pytest.raises(WorldError, match=r"^action values outside \[-1, 1\]$"):
            world.step(action)
        assert world.t == 0
        assert {name: pos.tobytes() for name, pos in world.positions.items()} == {
            name: pos.tobytes() for name, pos in positions.items()}

    def test_infeasible_config_raises(self):
        # a RunConfig rejects this; the world guards itself all the same
        cfg = dataclasses.replace(world_cfg("goal"), min_objects=9, max_objects=9)
        with pytest.raises(InfeasibleSceneError):
            generate_episode(0, cfg)  # 9 objects > 4x2 color/shape pool


class TestAnnotationInvariants:
    def test_masks_disjoint_and_boxes_tight(self):
        ep = generate_episode(13, world_cfg("goal"))
        size = ep.frames[0].rgb.shape[0]
        for frame in ep.frames:
            for i, inst in enumerate(frame.instances):
                ys, xs = np.nonzero(frame.instance_map == i + 1)
                cx, cy, w, h = inst.box * size
                assert abs((xs.min() + xs.max() + 1) / 2 - cx) <= 1.0
                assert abs((ys.min() + ys.max() + 1) / 2 - cy) <= 1.0
                assert abs(xs.max() - xs.min() + 1 - w) <= 1.0
                assert abs(ys.max() - ys.min() + 1 - h) <= 1.0

    def test_instance_ids_stable_across_frames(self):
        ep = generate_episode(17, world_cfg("spatial"))
        ids = [inst.instance_id for inst in ep.frames[0].instances]
        for frame in ep.frames:
            assert [inst.instance_id for inst in frame.instances] == ids

    def test_actions_bounded_snapped_and_stubbed(self):
        cfg = world_cfg("goal")
        ep = generate_episode(19, cfg)
        centers = bin_centers(cfg.action_bins)
        for frame in ep.frames:
            assert np.abs(frame.action).max() <= 1.0
            for dim in (0, 1):  # movement dims land on bin centers or zero
                value = frame.action[dim]
                assert value == 0.0 or np.min(np.abs(centers - value)) < 1e-12
            assert np.array_equal(frame.action[2:6], np.zeros(4))
            assert frame.action[6] in (-1.0, 1.0)

    def test_relevant_nouns_parser(self):
        nouns = relevant_nouns("robot put the red square on the blue circle")
        assert nouns == {"robot", "red square", "blue circle"}
        assert relevant_nouns("put the red square on the blue circle") == {
            "red square", "blue circle"}


class TestNoopFilter:
    def test_all_zero_sequence_rejected(self):
        actions = [np.zeros(7) for _ in range(4)]
        for a in actions:
            a[6] = -1.0
        with pytest.raises(AllNoOpsError):
            filter_noops(actions, eps=1e-3)

    def test_zero_threshold_is_identity(self):
        rng = np.random.default_rng(0)
        actions = [rng.uniform(-1, 1, 7) for _ in range(5)]
        assert filter_noops(actions, eps=0.0) == list(range(5))

    def test_injected_idle_frames_removed_exactly(self):
        def expert_steps(cfg):
            world, steps = World(cfg, 23), 0
            for action in expert_actions(world):
                world.step(action)
                steps += 1
            return steps

        idle, plain = world_cfg("goal", idle_frames=3), world_cfg("goal")
        assert expert_steps(idle) - expert_steps(plain) == 3
        assert episode_bytes(generate_episode(23, idle)) == \
            episode_bytes(generate_episode(23, plain))

    def test_gripper_toggle_kept_despite_zero_motion(self):
        a0 = np.zeros(7); a0[0] = 0.5; a0[6] = -1.0
        a1 = np.zeros(7); a1[6] = 1.0   # closes, no motion
        a2 = np.zeros(7); a2[0] = 0.5; a2[6] = 1.0
        assert filter_noops([a0, a1, a2], eps=1e-3) == [0, 1, 2]


class TestQuantization:
    def test_snap_roundtrip_within_half_bin(self):
        rng = np.random.default_rng(1)
        for value in rng.uniform(-1, 1, 200):
            assert abs(snap_action(value, bin_centers(256)) - value) <= 1.0 / 256

    def test_bins_roundtrip(self):
        actions = np.array([-1.0, -0.5, 0.0, 0.3, 1.0])
        idx = action_to_bins(actions, 256)
        back = bin_centers(256)[idx]
        assert np.abs(back - actions).max() <= 1.0 / 256


class TestSerialization:
    def test_roundtrip_lossless(self, tmp_path):
        """Every subset, `long` included, round-trips bitwise through 4 files:
        the `.jsonl`, the `.meta.json`, the image film and the instance map film."""
        for subset in ("goal", "object", "spatial", "long", "pair"):
            ep = generate_episode(7, world_cfg(subset))
            path = serialize_episode(ep, tmp_path / subset)
            loaded = load_episode(path)
            assert loaded.subset == subset and loaded.seed == 7
            assert episode_bytes(loaded) == episode_bytes(ep)
            assert instance_labels(loaded) == instance_labels(ep)
            assert all(f.instance_map.dtype == np.uint8 for f in loaded.frames)
            assert loaded.frames[0].task == ep.frames[0].task
            assert sorted(p.name for p in (tmp_path / subset).rglob("*")) == [
                "ep_000007.jsonl", "ep_000007.meta.json", "ep_000007_map.pgm",
                "ep_000007_rgb.ppm"]

    def test_empty_relevance_frame_roundtrips(self, tmp_path):
        ep = generate_episode(3, world_cfg("goal"))
        for frame in ep.frames:
            for inst in frame.instances:
                inst.relevant = False
        loaded = load_episode(serialize_episode(ep, tmp_path))
        assert all(not inst.relevant
                   for frame in loaded.frames for inst in frame.instances)

    def test_malformed_record_reports_line_number(self, tmp_path):
        ep = generate_episode(4, world_cfg("pair"))
        path = serialize_episode(ep, tmp_path)
        lines = path.read_text().splitlines()
        lines[1] = lines[1][:-5]
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(EpisodeParseError, match=r":2:"):
            load_episode(path)

    @pytest.mark.parametrize("field, value, message", [
        ("t", "x", "t is not an integer"),
        ("action", [0.0] * 5, "action is not 7 numbers"),
        ("action", "x", "action is not 7 numbers"),
        ("action", [10 ** 400] + [0.0] * 6, "action is not 7 numbers"),
        ("proprio", [float("nan"), 0.0, 0.0, 0.0], "proprio is not 4 numbers"),
        ("proprio", [0.0] * 3, "proprio is not 4 numbers"),
        ("box", [0.5, 0.5, 0.1], "box is not 4 numbers"),
        ("box", [0.5, 0.5, 0.1, True], "box is not 4 numbers"),
        (None, [1, 2], "not a JSON object"),
        ("instances", 5, "instances is not a non-empty list of objects"),
        ("instances", ["a"], "instances is not a non-empty list of objects"),
        ("instances", [], "instances is not a non-empty list of objects"),
        ("task", 5, "task is not a string"),
        ("task", "put the red rocket on the blue square",
         "task 'put the red rocket on the blue square': word 'rocket' not in vocabulary"),
    ], ids=["t", "action-length", "action-string", "action-huge-int", "proprio-nan",
            "proprio-length", "box-length",
            "box-bool", "record-list", "instances-int", "instances-string",
            "instances-empty", "task-int", "task-unknown-word"])
    def test_mistyped_field_is_a_malformed_record(self, field, value, message, tmp_path):
        path = serialize_episode(generate_episode(4, world_cfg("pair")), tmp_path)
        lines = path.read_text().splitlines()
        rec = json.loads(lines[1])
        if field is None:
            rec = value
        elif field == "box":
            rec["instances"][0]["box"] = value
        else:
            if value == []:  # no instances, and a map that shows none
                map_path = path.with_name(path.stem + "_map.pgm")
                maps = pnm.read_pgm(map_path)
                maps[64:128] = 0
                pnm.write_pgm(map_path, maps)
            rec[field] = value
        lines[1] = json.dumps(rec)
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(EpisodeParseError,
                           match=re.escape(f"{path}:2: malformed record: {message}")):
            load_episode(path)

    def test_missing_or_corrupt_film_names_the_film(self, tmp_path):
        path = serialize_episode(generate_episode(4, world_cfg("pair")), tmp_path)
        film = tmp_path / "ep_000004_rgb.ppm"
        film.write_bytes(b"P2\n1 1\n255\n0")
        with pytest.raises(EpisodeParseError,
                           match=re.escape(f"cannot read film: {film}: expected P6 file")):
            load_episode(path)
        film.unlink()
        with pytest.raises(EpisodeParseError, match=re.escape(
                f"cannot read film: [Errno 2] No such file or directory: '{film}'")):
            load_episode(path)

    def test_frames_are_views_of_the_films(self, tmp_path):
        ep = generate_episode(4, world_cfg("pair"))
        loaded = load_episode(serialize_episode(ep, tmp_path))
        rgb, maps = loaded.frames[0].rgb.base, loaded.frames[0].instance_map.base
        assert rgb.shape == (64 * len(ep.frames), 64, 3)
        assert all(f.rgb.base is rgb and f.instance_map.base is maps for f in loaded.frames)

    def test_floats_serialized_at_full_precision(self, tmp_path):
        ep = generate_episode(5, world_cfg("pair"))
        ep.frames[0].proprio[0] = 1.0 / 3.0
        loaded = load_episode(serialize_episode(ep, tmp_path))
        assert loaded.frames[0].proprio[0] == 1.0 / 3.0

    @pytest.mark.parametrize("kind", ["flip", "truncate", "splice"])
    def test_damaged_file_is_a_parse_error_or_loads_well_formed(self, kind, tmp_path):
        """Seeded damage to each of an episode's 4 files raises `EpisodeParseError`
        or loads an episode of well-formed frames; nothing else escapes. Every
        truncation raises, except one that drops only the `.jsonl`'s final
        newline, which loads the original values. The format holds no checksum,
        so a changed byte in a film's pixels or a record's numbers loads the
        changed values."""
        ep = generate_episode(4, world_cfg("pair"))
        path = serialize_episode(ep, tmp_path)
        rng = np.random.default_rng(["flip", "truncate", "splice"].index(kind))
        errors = loads = 0
        for file in sorted(tmp_path.iterdir()):
            original = file.read_bytes()
            for _ in range(24):
                damaged = mutate(original, kind, rng)
                file.write_bytes(damaged)
                try:
                    loaded = load_episode(path)
                except EpisodeParseError:
                    errors += 1
                    continue
                loads += 1
                assert_well_formed(loaded)
                if kind == "truncate":
                    assert file == path and damaged == original[:-1]
                    assert same_values(loaded, ep)
            file.write_bytes(original)
        assert errors > 0 and (loads > 0 or kind == "truncate")
        if kind == "truncate":
            path.write_bytes(path.read_bytes()[:-1])
            assert same_values(load_episode(path), ep)


def mutate(data: bytes, kind: str, rng: np.random.Generator) -> bytes:
    """`data` with one flipped byte, cut short, or with a run of up to 15 bytes
    replaced by up to 15 random ones; half the time at one of the first 32
    bytes, where a header or the first record starts."""
    pos = int(rng.integers(min(len(data), 32) if rng.random() < 0.5 else len(data)))
    if kind == "flip":
        return data[:pos] + bytes([data[pos] ^ int(rng.integers(1, 256))]) + data[pos + 1:]
    if kind == "truncate":
        return data[:pos]
    end = min(len(data), pos + int(rng.integers(16)))
    return data[:pos] + rng.bytes(int(rng.integers(16))) + data[end:]


def assert_well_formed(ep):
    for frame in ep.frames:
        size = frame.rgb.shape[0]
        assert frame.rgb.shape == (size, size, 3) and frame.instance_map.shape == (size, size)
        assert frame.rgb.dtype == frame.instance_map.dtype == np.uint8
        assert frame.instances and frame.instance_map.max() <= len(frame.instances)
        assert type(frame.t) is int and isinstance(frame.task, str)
        assert frame.action.shape == (7,) and frame.proprio.shape == (4,)
        assert np.isfinite(frame.action).all() and np.isfinite(frame.proprio).all()
        for inst in frame.instances:
            assert isinstance(inst.instance_id, str) and inst.instance_id
            assert inst.box.shape == (4,) and np.isfinite(inst.box).all()
            assert isinstance(inst.relevant, bool)


def same_values(a, b):
    return (episode_bytes(a) == episode_bytes(b) and instance_labels(a) == instance_labels(b)
            and [(f.t, f.task) for f in a.frames] == [(f.t, f.task) for f in b.frames]
            and (a.subset, a.seed, a.layout_id, a.carried_id, a.target_id)
            == (b.subset, b.seed, b.layout_id, b.carried_id, b.target_id))


class TestValidatorAndStats:
    def test_a_clean_corpus_loads_and_counts(self, tmp_path):
        for seed in range(3):
            serialize_episode(generate_episode(seed, world_cfg("pair")), tmp_path)
        corpus = load_corpus(RunConfig(subset="pair"), tmp_path)
        assert dataset_statistics(corpus.episodes)["pair"]["episodes"] == 3

    def test_a_corrupted_box_fails_the_load_by_name(self, tmp_path):
        ep = generate_episode(6, world_cfg("pair"))
        ep.frames[0].instances[0].box = ep.frames[0].instances[0].box + 0.25
        path = serialize_episode(ep, tmp_path)
        with pytest.raises(WorldError, match=re.escape(
                f"{path}: t=0: {ep.frames[0].instances[0].instance_id} box deviates")):
            load_corpus(RunConfig(subset="pair"), tmp_path)

    def test_a_task_that_changes_mid_episode_is_an_error(self):
        """The swapped goal names the same nouns, so every relevance flag still
        agrees with it; only the change of task itself is reported."""
        ep = generate_episode(9, world_cfg("goal"))
        words = ep.frames[0].task.split()  # robot put the C C on the T T
        swapped = " ".join(words[:3] + words[7:] + words[5:7] + words[3:5])
        assert swapped != ep.frames[0].task
        for frame in ep.frames[5:]:
            frame.task = swapped
        assert validate_episode(ep, RunConfig().noop_eps) == [
            f"t={t}: task changed: {swapped!r} != {ep.frames[0].task!r}"
            for t in range(5, len(ep.frames))]

    def test_statistics_structure(self):
        row = dataset_statistics([generate_episode(seed, world_cfg("goal"))
                                  for seed in range(2)])["goal"]
        assert set(row) == {"episodes", "tasks", "layouts", "objects", "tr_objects",
                            "frames", "bboxes", "tr_bboxes"}
        assert row["tr_objects"] == "3-3"
        assert row["bboxes"] >= row["tr_bboxes"] > 0


class TestPnm:
    def test_pgm_roundtrip(self, tmp_path):
        rng = np.random.default_rng(2)
        img = rng.integers(0, 256, size=(9, 7)).astype(np.uint8)
        pnm.write_pgm(tmp_path / "x.pgm", img)
        assert np.array_equal(pnm.read_pgm(tmp_path / "x.pgm"), img)

    def test_ppm_roundtrip(self, tmp_path):
        rng = np.random.default_rng(3)
        img = rng.integers(0, 256, size=(5, 6, 3)).astype(np.uint8)
        pnm.write_ppm(tmp_path / "x.ppm", img)
        assert np.array_equal(pnm.read_ppm(tmp_path / "x.ppm"), img)

    @pytest.mark.parametrize("dtype", [np.float64, np.int64, np.uint16])
    def test_ppm_takes_bytes_only(self, tmp_path, dtype):
        with pytest.raises(pnm.PnmError, match=f"PPM needs uint8 pixels, got {np.dtype(dtype)}"):
            pnm.write_ppm(tmp_path / "x.ppm", np.zeros((2, 2, 3), dtype=dtype))
        assert not (tmp_path / "x.ppm").exists()

    def test_bad_magic_rejected(self, tmp_path):
        (tmp_path / "bad.pgm").write_bytes(b"P2\n1 1\n255\n0")
        with pytest.raises(pnm.PnmError):
            pnm.read_pgm(tmp_path / "bad.pgm")
