"""Golden corpus: one seeded episode per subset preset, pinned by its bytes.

`test_world.py` shows that one seed gives the same bytes twice in a row; this
pins those bytes across changes to the world. For each subset, one episode at
a fixed seed is serialized and the SHA-256 of its written tree (the `.jsonl`,
the `.meta.json` and every PPM and PGM, by relative path) must equal the
constant below. The in-memory episode is pinned as well: its rgb, instance
map, action, proprio and box bytes in frame order. A frame is held as the
uint8 bytes its PPM holds; the digest hashes it as `rgb / 255.0`, the float64
frame that worlds before that held, so the constants computed then still hold.
"""

import hashlib

import numpy as np
import pytest

from slotforge.config import SUBSET_PRESETS, RunConfig
from slotforge.world import generate_episode, serialize_episode

SEED = 5

# computed with the per-sprite render and annotate loops of the first world
TREE_SHA256 = {
    "goal": "29ac9234864619d624ec8872e65b6d27609c1d475a6ffc0080f227437122b63c",
    "object": "130c35c5f255d228c38540ba0fa189c8eee368a9304b32af5e8f8a9540128982",
    "spatial": "b74ba4afe61cc4a2509fe2303e64c794da6f402285690050d22609f63a6e4ae8",
    "long": "078c6bef9b5f46014df58ff8f61255801c62583bb5302b2186b006568f2c09e3",
    "pair": "4c466be05a7337e7d40c421e348564b8528823ebf3d5fc92842317918c915963",
}
EPISODE_SHA256 = {
    "goal": "455d8687759f84d7fb66036d132e1b0f48815a6a7f144028dd0933af3d824584",
    "object": "94e21077caa3b34066473d0c5c871ac008f8dfc9b4c81b29d9c5565617068f1a",
    "spatial": "c12915ac6ebf9ebef86b5c8518e4c5b526f3fd7625597ffa84fe15bce5438fa4",
    "long": "ed29a630f263c8d04f969d7ef045ed23ae47bc49e9c58f134daef3409b05cc91",
    "pair": "f397e344ec1386b1b7fb51930153daa01070a98eaa0f45d3c9071acfbc08bf17",
}


def tree_digest(root) -> str:
    digest = hashlib.sha256()
    for path in sorted(p for p in root.rglob("*") if p.is_file()):
        name = path.relative_to(root).as_posix().encode()
        digest.update(len(name).to_bytes(8, "little") + name)
        data = path.read_bytes()
        digest.update(len(data).to_bytes(8, "little") + data)
    return digest.hexdigest()


def episode_digest(episode) -> str:
    digest = hashlib.sha256()
    for frame in episode.frames:
        for array in (frame.rgb / 255.0, frame.instance_map, frame.action, frame.proprio,
                      *(inst.box for inst in frame.instances)):
            digest.update(array.tobytes())
    return digest.hexdigest()


def test_every_subset_preset_is_pinned():
    assert sorted(TREE_SHA256) == sorted(EPISODE_SHA256) == sorted(SUBSET_PRESETS)


@pytest.mark.parametrize("subset", sorted(SUBSET_PRESETS))
def test_a_seeded_episode_writes_the_pinned_bytes(subset, tmp_path):
    episode = generate_episode(SEED, RunConfig(subset=subset).world_config())
    serialize_episode(episode, tmp_path)
    for frame in episode.frames:
        assert frame.rgb.dtype == np.uint8
        assert frame.rgb.shape == (*frame.instance_map.shape, 3)
    assert episode_digest(episode) == EPISODE_SHA256[subset]
    assert tree_digest(tmp_path) == TREE_SHA256[subset]
