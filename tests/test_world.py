"""Synthetic world: determinism, annotation invariants, serialization."""

import dataclasses
import json
import re

import numpy as np
import pytest

from slotforge import pnm
from slotforge.config import RunConfig
from slotforge.world import (MAX_FRAMES, AllNoOpsError, EpisodeParseError,
                             InfeasibleSceneError, ScriptedExpert, World, WorldError,
                             action_to_bins, bin_centers, dataset_statistics,
                             episode_files, filter_noops, generate_episode,
                             load_episode, relevant_nouns, serialize_episode,
                             snap_action, validate_dataset, validate_episode)


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
        expert = ScriptedExpert(world)
        for _ in range(MAX_FRAMES):
            if expert.done():
                break
            world.step(expert.action())
        assert world.success()

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
            expert = ScriptedExpert(world)
            while not expert.done():
                world.step(expert.action())
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
            assert abs(snap_action(value, 256) - value) <= 1.0 / 256

    def test_bins_roundtrip(self):
        actions = np.array([-1.0, -0.5, 0.0, 0.3, 1.0])
        idx = action_to_bins(actions, 256)
        back = bin_centers(256)[idx]
        assert np.abs(back - actions).max() <= 1.0 / 256


class TestSerialization:
    def test_roundtrip_lossless(self, tmp_path):
        """Every subset, `long` included, round-trips bitwise through 2 files
        per frame (image and instance map) plus the `.jsonl` and `.meta.json`."""
        for subset in ("goal", "object", "spatial", "long", "pair"):
            ep = generate_episode(7, world_cfg(subset))
            path = serialize_episode(ep, tmp_path / subset)
            loaded = load_episode(path)
            assert loaded.subset == subset and loaded.seed == 7
            assert episode_bytes(loaded) == episode_bytes(ep)
            assert instance_labels(loaded) == instance_labels(ep)
            assert all(f.instance_map.dtype == np.uint8 for f in loaded.frames)
            assert loaded.frames[0].task == ep.frames[0].task
            files = [p for p in (tmp_path / subset).rglob("*") if p.is_file()]
            assert len(files) == 2 * len(ep.frames) + 2

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
    ], ids=["t", "action-length", "action-string", "proprio-length", "box-length",
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
                pnm.write_pgm(tmp_path / rec["map_file"], np.zeros((64, 64), dtype=np.uint8))
            rec[field] = value
        lines[1] = json.dumps(rec)
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(EpisodeParseError,
                           match=re.escape(f"{path}:2: malformed record: {message}")):
            load_episode(path)

    def test_missing_or_corrupt_frame_file_reports_line_number(self, tmp_path):
        ep = generate_episode(4, world_cfg("pair"))
        path = serialize_episode(ep, tmp_path)
        frame_file = tmp_path / json.loads(path.read_text().splitlines()[1])["frame_file"]
        frame_file.write_bytes(b"P2\n1 1\n255\n0")
        with pytest.raises(EpisodeParseError, match=r":2: cannot read frame: .*expected P6"):
            load_episode(path)
        frame_file.unlink()
        with pytest.raises(EpisodeParseError, match=r":2: cannot read frame: "):
            load_episode(path)

    def test_floats_serialized_at_full_precision(self, tmp_path):
        ep = generate_episode(5, world_cfg("pair"))
        ep.frames[0].proprio[0] = 1.0 / 3.0
        loaded = load_episode(serialize_episode(ep, tmp_path))
        assert loaded.frames[0].proprio[0] == 1.0 / 3.0


class TestValidatorAndStats:
    def test_validator_passes_clean_corpus(self, tmp_path):
        for seed in range(3):
            serialize_episode(generate_episode(seed, world_cfg("pair")), tmp_path)
        stats, errors = validate_dataset(tmp_path, RunConfig().noop_eps)
        assert errors == []
        assert stats["pair"]["episodes"] == 3

    def test_validator_flags_corrupted_box(self, tmp_path):
        ep = generate_episode(6, world_cfg("pair"))
        ep.frames[0].instances[0].box = ep.frames[0].instances[0].box + 0.25
        serialize_episode(ep, tmp_path)
        _, errors = validate_dataset(tmp_path, RunConfig().noop_eps)
        assert any("box deviates" in e for e in errors)

    def test_statistics_structure(self, tmp_path):
        for seed in range(2):
            serialize_episode(generate_episode(seed, world_cfg("goal")), tmp_path)
        stats, _ = validate_dataset(tmp_path, RunConfig().noop_eps)
        row = stats["goal"]
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

    def test_bad_magic_rejected(self, tmp_path):
        (tmp_path / "bad.pgm").write_bytes(b"P2\n1 1\n255\n0")
        with pytest.raises(pnm.PnmError):
            pnm.read_pgm(tmp_path / "bad.pgm")
