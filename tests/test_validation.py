"""Validation runs the heads once per episode and the task filter once per
episode, over the episode's slots stacked frame by frame.

Only the slot recurrence carries state from frame to frame, so
`stage1_metrics` and both assignment flip rates must equal, exactly, a
per-frame path that encodes each frame in its own `encode_frame` call and
runs the heads and `select` on that frame alone.
"""

import dataclasses

import numpy as np
import pytest

from slotforge import tensor as T
from slotforge import train
from slotforge.config import load_config
from slotforge.losses import match_frame, slot_relevance_labels
from slotforge.pipeline import Pipeline
from slotforge.world import generate_episode
from reference_ops import iou_matrix


def per_frame_validation(pipe, corpus, carryover):
    """(stage-1 metrics, flip rate) with every frame scored alone."""
    cfg = pipe.cfg
    ious, pi, labels = [], [], []
    flips = chances = 0
    with T.no_grad():
        for idx in range(len(corpus)):
            clip = corpus.clip(idx, 0, len(corpus.frames[idx]))
            lang = pipe.lang_filter(clip.frames[0].task)
            slots, prev_map = None, {}
            for t, (record, target) in enumerate(zip(clip.frames, clip.targets)):
                _, slots, _ = pipe.encode_frame([record.rgb], slots if carryover else None,
                                                [clip.episode_key], [t])
                boxes = pipe.heads(slots).boxes.data
                match = match_frame(boxes, target, cfg)
                ious.extend(iou_matrix(boxes, target.boxes)[s, g] for s, g in match)
                pi.extend(pipe.select(slots, lang)[0].scores.tolist())
                labels.extend(slot_relevance_labels(match, target.relevance,
                                                    cfg.num_slots).tolist())
                current = {target.instance_ids[g]: s for s, g in match}
                for name, slot in current.items():
                    if name in prev_map:
                        chances += 1
                        flips += prev_map[name] != slot
                prev_map = current
    metrics = {"iou": float(np.mean(ious)),
               "auc": train.auc_score(np.array(pi), np.array(labels))}
    return metrics, flips / chances


@pytest.mark.parametrize("carryover_on", [True, False], ids=["carryover", "no-carryover"])
def test_metrics_and_flip_rates_equal_a_per_frame_path(carryover_on):
    cfg = load_config(overrides=["subset=goal", f"carryover_on={str(carryover_on).lower()}"])
    pipe = Pipeline(cfg)
    episodes = [generate_episode(seed, cfg.world_config()) for seed in (2, 3, 4)]
    episodes[1] = dataclasses.replace(episodes[1], frames=episodes[1].frames[:4])
    corpus = train.Corpus(episodes, cfg.patch_size)
    assert len({len(frames) for frames in corpus.frames}) > 1
    assert train.stage1_metrics(pipe, corpus) == per_frame_validation(
        pipe, corpus, carryover_on)[0]
    rates = {carryover: train.assignment_flip_rate(pipe, corpus, carryover)
             for carryover in (True, False)}
    assert rates == {carryover: per_frame_validation(pipe, corpus, carryover)[1]
                     for carryover in (True, False)}
    assert rates[True] != rates[False]
    # the flip rate passes its choice down instead of setting the config
    assert pipe.cfg.carryover_on is carryover_on


@pytest.mark.parametrize("subset, seeds, frames", [("pair", (2, 3, 4), 6), ("long", (0, 2), 4)])
def test_metrics_equal_a_per_frame_path_on_more_subsets(subset, seeds, frames):
    # pair holds 3 instances on 16 slots; long up to 30 on 32 slots
    cfg = load_config(overrides=[f"subset={subset}"])
    pipe = Pipeline(cfg)
    episodes = [dataclasses.replace(episode, frames=episode.frames[:frames - k])
                for k, episode in enumerate(generate_episode(seed, cfg.world_config())
                                            for seed in seeds)]
    corpus = train.Corpus(episodes, cfg.patch_size)
    most = max(len(record.instances) for frames in corpus.frames for record in frames)
    assert most == {"pair": 3, "long": 30}[subset]
    assert train.stage1_metrics(pipe, corpus) == per_frame_validation(
        pipe, corpus, cfg.carryover_on)[0]
    assert {carryover: train.assignment_flip_rate(pipe, corpus, carryover)
            for carryover in (True, False)} == {
        carryover: per_frame_validation(pipe, corpus, carryover)[1]
        for carryover in (True, False)}
