"""The benchmark's wrappers still find every attribute they wrap.

The benchmark (`benchmarks/slotbench`) times and counts slotforge by
replacing functions and methods by attribute name. A rename of one of those
attributes would otherwise only show in the benchmark's own, much slower,
test run.
"""

import dataclasses
import sys
from pathlib import Path

from slotforge import pipeline, train
from slotforge import tensor as T
from slotforge.config import load_config
from slotforge.world import generate_episode, serialize_episode

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "benchmarks"))

from slotbench.tracing import Patches, Recorder  # noqa: E402
from slotbench.workloads import CutPoints, install_spans  # noqa: E402


def test_hooks_install_count_each_frame_once_and_undo():
    originals = {name: vars(pipeline.Pipeline)[name]
                 for name in ("encode_frame", "encode_episode_cache", "policy_step")}
    patches, recorder, cut = Patches(), Recorder(), CutPoints(sample_loop=False)
    install_spans(patches, recorder)
    cut.install(patches)
    try:
        cfg = load_config(overrides=["subset=pair"])
        corpus = train.Corpus([generate_episode(3, cfg.world_config())], cfg.patch_size)
        cache = train.flatten_cache(pipeline.Pipeline(cfg), corpus)
    finally:
        patches.undo()
    frames = len(corpus.frames[0])
    assert len(cache) == frames
    assert cut.encoded == frames
    assert cut.current.corpus_passes[0][2] == frames
    names = [span[0] for span in recorder.spans]
    assert names.count("pipeline.Pipeline.encode_frame") == frames
    assert names.count("pipeline.Pipeline.encode_episode_cache") == 1
    assert {name: vars(pipeline.Pipeline)[name] for name in originals} == originals


def test_a_corpus_cache_is_one_pass_with_one_encode_per_time_step():
    patches, recorder, cut = Patches(), Recorder(), CutPoints(sample_loop=False)
    install_spans(patches, recorder)
    cut.install(patches)
    try:
        cfg = load_config(overrides=["subset=pair"])
        long, short = (generate_episode(seed, cfg.world_config()) for seed in (3, 4))
        short = dataclasses.replace(short, frames=short.frames[:len(long.frames) // 2])
        corpus = train.Corpus([long, short], cfg.patch_size)
        cache = train.flatten_cache(pipeline.Pipeline(cfg), corpus)
    finally:
        patches.undo()
    frames = len(long.frames) + len(short.frames)
    assert len(cache) == frames
    assert [n for _, _, n in cut.current.corpus_passes] == [frames]
    assert cut.encoded == len(long.frames)
    names = [span[0] for span in recorder.spans]
    assert names.count("train.flatten_cache") == 1
    assert names.count("pipeline.Pipeline.encode_episode_cache") == 1
    assert names.count("pipeline.Pipeline.encode_frame") == len(long.frames)

def test_tape_counter_reads_the_whole_tape_after_backward():
    patches, recorder = Patches(), Recorder()
    install_spans(patches, recorder)
    try:
        cfg = load_config(overrides=["batch_clips=1", "clip_len=2"])
        corpus = train.Corpus([generate_episode(3, cfg.world_config())], cfg.patch_size)
        model = pipeline.Pipeline(cfg)
        batch = train.sample_clips(corpus, cfg, 0)
        with T.fresh_tape() as tape:
            loss, _ = model.stage1_batch_loss(batch)
            tape.backward(loss)
    finally:
        patches.undo()
    assert len(tape) > 0
    assert recorder.counts["tape_entries"] == [len(tape)]
    # the loss spans wrap names the stage-1 loss must keep calling
    frames = sum(len(clip.targets) for clip in batch)
    with_objects = sum(len(t.boxes) > 0 for clip in batch for t in clip.targets)
    assert with_objects == frames == 2
    names = [span[0] for span in recorder.spans]
    assert names.count("losses.hungarian_match") == frames
    assert names.count("losses.giou_pairs") == with_objects
    assert names.count("losses.track_loss") == 1
    # the slot and filter spans wrap names each encoded frame must keep calling
    assert names.count("slots.SlotAttention.encode_frame") == frames
    assert names.count("task_filter.TaskFilter.__call__") == frames


def test_validation_encodes_each_frame_in_its_own_call():
    patches, cut = Patches(), CutPoints(sample_loop=False)
    cut.install(patches)
    try:
        cfg = load_config(overrides=["subset=pair"])
        corpus = train.Corpus([generate_episode(seed, cfg.world_config()) for seed in (3, 4)],
                              cfg.patch_size)
        train.stage1_metrics(pipeline.Pipeline(cfg), corpus)
    finally:
        patches.undo()
    frames = sum(len(f) for f in corpus.frames)
    assert cut.encoded == frames
    assert [n for _, _, n in cut.current.corpus_passes] == [frames]


def test_a_stage1_run_reaches_every_hook_it_steps_and_validates_through(tmp_path):
    cfg = load_config(overrides=["subset=pair", "stage1_iters=2", "eval_every=2",
                                 "batch_clips=1", "clip_len=2"])
    episode = generate_episode(4, cfg.world_config())
    serialize_episode(generate_episode(3, cfg.world_config()), tmp_path / "train")
    serialize_episode(episode, tmp_path / "val")
    patches, cut = Patches(), CutPoints(sample_loop=False)
    cut.install(patches)
    try:
        result = train.train_stage1(cfg, tmp_path / "train", tmp_path / "s1",
                                    val_dir=tmp_path / "val")
    finally:
        patches.undo()
    assert result["steps"] == 2
    assert cut.current.step_frames == [2, 2]
    assert len(cut.current.step_ends) == 2
    assert [n for _, _, n in cut.current.corpus_passes] == [len(episode.frames)]
