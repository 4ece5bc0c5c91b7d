"""Stage 1 walks a batch of clips in lockstep, one grouped graph per frame index.

The lockstep loss and every stage-1 gradient must equal those of the same
clips walked one frame at a time, each frame its own graph, within 1e-12;
the counts of tracking anchors must be equal exactly.
"""

import numpy as np
import pytest

from slotforge import tensor as T
from slotforge.config import load_config
from slotforge.losses import (match_frame, relevance_loss, slot_attn_loss,
                              slot_relevance_labels, stage1_total, track_loss)
from slotforge.pipeline import Pipeline
from slotforge.train import Corpus, sample_clips
from slotforge.world import generate_episode

EPISODES = (2, 3, 4)


def corpus_and_pipeline(overrides):
    cfg = load_config(overrides=["subset=goal", *overrides])
    corpus = Corpus([generate_episode(seed, cfg.world_config()) for seed in EPISODES],
                    cfg.patch_size)
    return corpus, Pipeline(cfg)


def per_frame_loss(pipe, batch):
    """The stage-1 objective with every frame encoded, scored and supervised
    as its own graph through one-frame calls, clip after clip."""
    cfg, n_slots = pipe.cfg, pipe.cfg.num_slots
    slot_terms, int_terms, parts = [], [], {"box": 0.0, "obj": 0.0, "seg": 0.0}
    emb_blocks, emb_labels, emb_frames, intern = [], [], [], {}
    for clip in batch:
        lang = pipe.lang_filter(clip.frames[0].task)
        for i, _, _, slots, _ in pipe.walk([clip]):
            target = clip.targets[i]
            preds = pipe.heads(slots)
            match = match_frame(preds.boxes.data, target, cfg)
            term, frame_parts = slot_attn_loss(preds, [target], [match], cfg)
            slot_terms.append(term)
            for key in parts:
                parts[key] += frame_parts[key]
            _, logits = pipe.select(slots, lang)
            labels = slot_relevance_labels(match, target.relevance, n_slots)
            int_terms.append(relevance_loss(logits, labels, cfg.w_pos, cfg.w_neg))
            if cfg.lambda_track > 0:
                emb_blocks.append(pipe.track_embedding(slots))
                gt_for_slot = dict(match.pairs)
                for s in range(n_slots):
                    if s in gt_for_slot:
                        key = (clip.episode_key, target.instance_ids[gt_for_slot[s]])
                        emb_labels.append(intern.setdefault(key, len(intern)))
                    else:
                        emb_labels.append(-1)
                    emb_frames.append(clip.base_t + i)
    n_frames = len(slot_terms)
    slot_mean = T.mul(T.add_all(slot_terms), 1.0 / n_frames)
    int_mean = T.mul(T.add_all(int_terms), 1.0 / n_frames)
    if cfg.lambda_track > 0:
        track, anchors, skipped = track_loss(T.concat(emb_blocks), np.array(emb_labels),
                                             np.array(emb_frames), cfg.tau, cfg.track_window)
    else:
        track, anchors, skipped = T.Tensor(0.0), 0, 0
    total = stage1_total(slot_mean, track, int_mean, cfg)
    parts = {k: v / n_frames for k, v in parts.items()}
    parts.update(track=track.item(), int=int_mean.item(), total=total.item(),
                 track_anchors=anchors, track_skipped=skipped)
    return total, parts


def loss_and_grads(pipe, batch, loss_fn):
    params = pipe.stage1_params()
    T.zero_grads(params.tensors())
    with T.fresh_tape() as tape:
        loss, parts = loss_fn(batch)
        tape.backward(loss)
    return parts, {name: t.grad for name, t in params.items()}


@pytest.mark.parametrize("overrides, short_clip", [
    ([], False),
    (["carryover_on=false"], False),
    (["track_projection=false"], False),
    (["lambda_track=0"], False),
    ([], True),
], ids=["goal", "no-carryover", "no-track-projection", "no-track-term", "short-clip"])
def test_lockstep_loss_and_gradients_match_per_frame_walks(overrides, short_clip):
    corpus, pipe = corpus_and_pipeline(overrides)
    batch = sample_clips(corpus, pipe.cfg, 0)
    if short_clip:
        # a one-frame clip in the middle leaves the group after index 0
        batch[1] = corpus.clip(1, 2, 1)
    assert len({len(clip.frames) for clip in batch}) == (2 if short_clip else 1)
    ref_parts, ref_grads = loss_and_grads(pipe, batch, lambda b: per_frame_loss(pipe, b))
    parts, grads = loss_and_grads(pipe, batch, pipe.stage1_batch_loss)
    assert list(parts) == list(ref_parts)
    for key in ("track_anchors", "track_skipped"):
        assert parts[key] == ref_parts[key]
    if pipe.cfg.lambda_track > 0:
        assert parts["track_anchors"] > 0
    for key in ("box", "obj", "seg", "track", "int", "total"):
        assert parts[key] == pytest.approx(ref_parts[key], rel=1e-12, abs=1e-12), key
    reached = [name for name, grad in grads.items() if grad is not None]
    assert reached == [name for name, grad in ref_grads.items() if grad is not None]
    assert any(name.startswith("track_proj.") for name in reached) == (
        pipe.track_proj is not None and pipe.cfg.lambda_track > 0)
    for name in reached:
        np.testing.assert_allclose(grads[name], ref_grads[name], rtol=1e-12, atol=1e-12,
                                   err_msg=name)


def test_a_step_records_the_same_tape_for_any_batch_size():
    sizes = []
    for clips in (2, 8):
        corpus, pipe = corpus_and_pipeline([f"batch_clips={clips}"])
        batch = sample_clips(corpus, pipe.cfg, 0)
        assert len(batch) == clips
        with T.fresh_tape() as tape:
            pipe.stage1_batch_loss(batch)
        sizes.append(len(tape))
    assert sizes[0] == sizes[1] < 300


def test_walk_keeps_each_clips_rows_as_clips_end():
    """Clips of lengths 3, 1 and 2: at each index the group holds the clips
    still going, in batch order, at their own times, and each clip's slots
    are those of walking it alone."""
    corpus, pipe = corpus_and_pipeline([])
    clips = [corpus.clip(0, 4, 3), corpus.clip(1, 2, 1), corpus.clip(2, 6, 2)]
    encode, times = pipe.encode_frame, []

    def recording_encode(frames, prev_slots, episode_keys, group_times):
        times.append(group_times)
        return encode(frames, prev_slots, episode_keys, group_times)

    n_slots, groups = pipe.cfg.num_slots, []
    with T.no_grad():
        alone = {id(clip): [slots.data for _, _, _, slots, _ in pipe.walk([clip])]
                 for clip in clips}
        pipe.encode_frame = recording_encode
        for i, group, dense, slots, _ in pipe.walk(clips):
            groups.append((i, [id(clip) for clip in group]))
            assert dense.grid_h == len(group) * pipe.frontend.grid
            for j, clip in enumerate(group):
                np.testing.assert_allclose(slots.data[j * n_slots:(j + 1) * n_slots],
                                           alone[id(clip)][i], rtol=1e-12, atol=1e-12)
    ids = [id(clip) for clip in clips]
    assert groups == [(0, ids), (1, [ids[0], ids[2]]), (2, [ids[0]])]
    assert times == [[4, 2, 6], [5, 7], [6]]
