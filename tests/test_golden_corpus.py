"""Golden corpus: one seeded episode per subset preset, pinned by its bytes.

`test_world.py` shows that one seed gives the same bytes twice in a row; this
pins those bytes across changes to the world. For each subset, one episode at
a fixed seed is serialized and the SHA-256 of its written tree (the `.jsonl`,
the `.meta.json`, the image film and the instance map film, by relative path)
must equal the constant below. The in-memory episode is pinned as well: its
rgb, instance map, action, proprio and box bytes in frame order. A frame is
held as the uint8 bytes its film holds; the digest hashes it as `rgb / 255.0`,
the float64 frame that worlds before that held, so the constants computed then
still hold. Each film's pixels are its episode's frames (or instance maps)
concatenated, the bytes that one PPM (or PGM) per frame held before films, so
the tree constants trace back to those earlier pins through the episode ones.
"""

import hashlib

import numpy as np
import pytest

from slotforge.config import SUBSET_PRESETS, RunConfig
from slotforge.world import generate_episode, serialize_episode

SEED = 5

# computed when an episode's frames and instance maps became one film each;
# EPISODE_SHA256 was computed with the per-sprite render and annotate loops of
# the first world
TREE_SHA256 = {
    "goal": "33504b855ff1df860ce3ddae872991b1405d31ab039fc91b0722332d3ba08612",
    "object": "26b6ed758ab361665d74f12cf342ff6ef18ff0dac41e66e45a0271983b8e8f4a",
    "spatial": "c3e58043a00f146047426a0c30de88adb196537a507fc118030074b54dba56d5",
    "long": "6dbfef631d91db6e242e8e496bec340f4150bd1e375a83c8a03149e9d496a75c",
    "pair": "ab1a1c36b272b49b45426991b81762edd39fe833aa2746f4b939806e37996ebd",
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
    for name, magic, field in (("rgb.ppm", b"P6", "rgb"), ("map.pgm", b"P5", "instance_map")):
        arrays = [getattr(frame, field) for frame in episode.frames]
        size = arrays[0].shape[1]
        header = magic + b"\n%d %d\n255\n" % (size, size * len(arrays))
        film = (tmp_path / f"ep_{SEED:06d}_{name}").read_bytes()
        assert film == header + b"".join(array.tobytes() for array in arrays)
    assert tree_digest(tmp_path) == TREE_SHA256[subset]
