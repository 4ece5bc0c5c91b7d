"""The corpus path pinned bitwise: ten seeds of every subset preset, generated,
written and read back.

`test_golden_corpus.py` pins one episode per subset; this pins seeds 0-9 of
each, so a change to how episodes are generated, written or loaded keeps
every byte over many scenes, not one. For each subset: the digest of the ten
in-memory episodes (`episode_digest`, in seed order), the digest of the tree
they write, and the digest of what `load_corpus` builds from that tree (boxes,
patch-grid masks, relevance and instance ids of every frame). The validator's
lines for one frame with several faults are pinned in their order.
"""

import copy
import hashlib

import numpy as np
import pytest

from slotforge.config import SUBSET_PRESETS, RunConfig
from slotforge.train import load_corpus
from slotforge.world import generate_episode, serialize_episode, validate_episode
from test_golden_corpus import episode_digest, tree_digest

SEEDS = range(10)

# computed from the world, writer and loader as they stood when these pins
# were added
EPISODES_SHA256 = {
    "goal": "ef88722c2a151916482a9fae01ebf4f9d7ba3fa98f23ca7b1621944c00e02139",
    "long": "f34b23245cd71b7ed65fdb1e8f1cd369edb89b746be840b564e247f49db0e4a9",
    "object": "70debbd0804c2288f4d8552b346fb505b88971a470eb9c8cf2f3cb18328f0d5c",
    "pair": "ddf8f9c9f9bbebf1f286ed9974718f7445ee89f1be82e6a03d278ac712c1077b",
    "spatial": "230d37ef5f07146f42f3ebed42fd486a8b76428705033efe0b017395587c0b56",
}
TREE_SHA256 = {
    "goal": "347fe7703390f70d2837b1a49e3e1fae7b6ffee7dc04cf93d96edc089b0d83c9",
    "long": "0de403d4976a848c21ef052125258a9cd4c6f8535cc025b7b13221459f3a3fa6",
    "object": "a23bae837abd5c06ec1b6d14fe9997981746ad3fd7ae447f8fc61999c9d48443",
    "pair": "e913e77ea11aaed424b768cdbb143a687a107989da8c1f6254bc33206775a71e",
    "spatial": "c3c97fc7b1eac6bfe6626131b11336724310648ba7ea092e56a95034c5a4b6d3",
}
TARGETS_SHA256 = {
    "goal": "819104f2fad93e7cd9b3696ea70ea23cac2344f5678299e9bc240ccfa8e1032c",
    "long": "28a3f376745e7b6ee4f12d94a3bf3d33779481184a384ad1ee400f71bafd8ce7",
    "object": "90e60371e5f53319229d394e1036abdc191ba7a22de68ed569034d36cc2395b5",
    "pair": "a03ca191fedee99bff88f07133190ccf9ce9ccb2b67bef06b2ecd6eeb3fa27dd",
    "spatial": "a9dcfe90cb7a3e48c65e84f22169d5ab9593d955167902a814c47662f4d01f9d",
}


@pytest.fixture(scope="module", params=sorted(SUBSET_PRESETS))
def written(request, tmp_path_factory):
    """(subset, episodes of seeds 0-9, the directory they were written to)."""
    subset = request.param
    episodes = [generate_episode(seed, RunConfig(subset=subset).world_config())
                for seed in SEEDS]
    root = tmp_path_factory.mktemp(subset)
    for episode in episodes:
        serialize_episode(episode, root)
    return subset, episodes, root


def digest_of(parts) -> str:
    digest = hashlib.sha256()
    for part in parts:
        digest.update(part.encode())
    return digest.hexdigest()


def test_every_subset_preset_is_pinned():
    assert sorted(EPISODES_SHA256) == sorted(TREE_SHA256) == sorted(TARGETS_SHA256) == sorted(
        SUBSET_PRESETS)


def test_ten_seeds_generate_and_write_the_pinned_bytes(written):
    subset, episodes, root = written
    assert digest_of(episode_digest(episode) for episode in episodes) == EPISODES_SHA256[subset]
    assert tree_digest(root) == TREE_SHA256[subset]


def test_the_written_corpus_loads_the_pinned_targets(written):
    subset, episodes, root = written
    corpus = load_corpus(RunConfig(subset=subset), root)
    # what was written is read back bit for bit
    assert [episode_digest(episode) for episode in corpus.episodes] == [
        episode_digest(episode) for episode in episodes]
    digest = hashlib.sha256()
    for targets in (t for frames in corpus.targets for t in frames):
        for array in (targets.boxes, targets.grid_masks, targets.relevance):
            digest.update(f"{array.dtype}{array.shape}".encode())
            digest.update(array.tobytes())
        digest.update(",".join(targets.instance_ids).encode())
    assert digest.hexdigest() == TARGETS_SHA256[subset]


def test_several_faults_in_one_frame_are_reported_in_order():
    cfg = RunConfig(subset="goal")
    episode = copy.deepcopy(generate_episode(5, cfg.world_config()))
    frame = episode.frames[3]
    frame.t = 9
    frame.task = frame.task.replace("robot", "robot robot")
    first, second, third, fourth = frame.instances[:4]
    first.instance_id = "square9"     # renamed: its noun now reads as a square
    second.box = second.box + np.array([0.1, 0.0, 0.0, 0.0])
    third.relevant = not third.relevant
    fourth.box = fourth.box * np.array([1.0, 1.0, 0.0, 1.0])
    frame.instance_map = np.where(frame.instance_map == 5, 0, frame.instance_map)
    frame.action = frame.action.copy()
    frame.action[0] = 1.5
    errors = validate_episode(episode, cfg.noop_eps, cfg.image_size, cfg.num_slots)
    ids = [inst.instance_id for inst in frame.instances]
    first_ids = [inst.instance_id for inst in episode.frames[0].instances]
    task = episode.frames[0].task
    assert errors == [
        f"t=9: instance ids changed: {ids} != {first_ids}",
        f"t=9: task changed: {frame.task!r} != {task!r}",
        "t=9: square9 relevance flag True contradicts task string",
        "t=9: circle2 box deviates 6.40px from its mask",
        "t=9: square1 relevance flag True contradicts task string",
        "t=9: square2 box deviates 5.00px from its mask",
        "t=9: square2 degenerate box",
        "t=9: square3 has an empty mask",
        "t=9: invalid action vector",
        "frame index 9 not contiguous",
    ]
