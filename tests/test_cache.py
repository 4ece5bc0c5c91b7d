"""The stage-2 feature cache encodes a corpus's episodes in lockstep.

`flatten_cache` walks every episode at once, one grouped graph per time step,
and must return, entry by entry and in episode-major order, the bytes that
caching each episode on its own returns. A short episode leaves the group
mid-walk, so the corpus below holds episodes of unequal length.
"""

import dataclasses

import pytest

from slotforge import tensor as T
from slotforge.config import load_config
from slotforge.pipeline import Pipeline
from slotforge.train import Corpus, flatten_cache
from slotforge.world import generate_episode

LENGTHS = (6, 3, 9)   # the middle episode ends first, the first one next


def corpus_of(cfg) -> Corpus:
    episodes = [generate_episode(seed, cfg.world_config()) for seed in (3, 4, 5)]
    return Corpus([dataclasses.replace(ep, frames=ep.frames[:n])
                   for ep, n in zip(episodes, LENGTHS)], None)


def entry_bytes(entry: dict) -> list:
    return [entry["dense"].dtype, entry["dense"].shape, entry["dense"].tobytes(),
            entry["grid"], entry["slots"].dtype, entry["slots"].shape,
            entry["slots"].tobytes(), entry["selected"], entry["task"],
            entry["proprio"].tobytes(), entry["action"].tobytes()]


@pytest.mark.parametrize("overrides", [[], ["carryover_on=false"], ["filter_on=false"]])
def test_lockstep_cache_equals_each_episode_cached_alone(overrides, monkeypatch):
    cfg = load_config(overrides=["subset=pair", *overrides])
    pipeline, corpus = Pipeline(cfg), corpus_of(cfg)
    alone = [entry for idx in range(len(corpus))
             for entry in pipeline.encode_episode_cache([corpus.frames[idx]],
                                                        [corpus.episode_key(idx)])]
    calls = []
    encode_frame = pipeline.encode_frame

    def counted(frames, *args):
        calls.append(len(frames))
        return encode_frame(frames, *args)

    monkeypatch.setattr(pipeline, "encode_frame", counted)
    cache = flatten_cache(pipeline, corpus)
    assert calls == [3, 3, 3, 2, 2, 2, 1, 1, 1]   # max(LENGTHS) calls, not sum(LENGTHS)
    assert len(cache) == len(alone) == sum(LENGTHS)
    for position, (entry, reference) in enumerate(zip(cache, alone)):
        assert entry_bytes(entry) == entry_bytes(reference), position
    keep = cfg.num_slots if "filter_on=false" in overrides else cfg.num_selected
    assert all(len(e["selected"]) == keep and max(e["selected"]) < cfg.num_slots
               for e in cache)
    assert [e["proprio"].tobytes() for e in cache] == [
        r.proprio.tobytes() for frames in corpus.frames for r in frames]


def test_tasks_of_different_word_counts_are_a_shape_error():
    cfg = load_config(overrides=["subset=pair"])
    frames = corpus_of(cfg).frames
    longer = [dataclasses.replace(r, task="robot " + r.task) for r in frames[1]]
    with pytest.raises(T.ShapeError, match="differ in word count"):
        Pipeline(cfg).encode_episode_cache([frames[0], longer], [3, 4])
