"""Counters that do not jitter: finite checks, ops and tape entries per step,
seed draws, `np.errstate` entries, and the draws and box passes of the
corpus path.

A change to one of them shows here, in review, and not only as a timing in
the benchmark. The policy step is an `inference_pass`, so it checks its
read-outs and the few ops that hide a non-finite input, and runs under one
`np.errstate`; a training step checks every op it records on the tape, and
runs under its `fresh_tape`'s one `np.errstate`. No op enters its own: an
inspection runs under its `no_grad`'s one, and a pass that replays under
one per run. Generating an episode draws
and boxes each frame once and reads its task's nouns once; validating one
boxes each frame once.
"""

import numpy as np
import pytest

from slotforge import losses, pipeline as pipeline_module, tensor as T, world as world_module
from slotforge.config import load_config
from slotforge.decoder import action_to_bins
from slotforge.losses import action_ce
from slotforge.pipeline import Pipeline
from slotforge.reports import inspect_report
from slotforge.tensor import NonFiniteError, Tensor
from slotforge.train import Corpus, flatten_cache, sample_clips
from slotforge.world import World, generate_episode, validate_episode


@pytest.fixture(scope="module")
def goal():
    cfg = load_config(overrides=["subset=goal"])
    corpus = Corpus([generate_episode(seed, cfg.world_config()) for seed in (2, 3)],
                    cfg.patch_size)
    return cfg, Pipeline(cfg), corpus


@pytest.fixture
def counts(monkeypatch):
    """Count `check_finite` calls and ops (`primitive` calls) while a test runs."""
    seen = {"checks": 0, "ops": 0}
    check, primitive = T.check_finite, T.primitive

    def counting_check(arr, op):
        seen["checks"] += 1
        return check(arr, op)

    def counting_primitive(*args, **kwargs):
        seen["ops"] += 1
        return primitive(*args, **kwargs)

    monkeypatch.setattr(T, "check_finite", counting_check)
    monkeypatch.setattr(T, "primitive", counting_primitive)
    return seen


@pytest.fixture
def entries(monkeypatch):
    """Count `init_seed` calls and `np.errstate` entries while a test runs."""
    seen = {"seeds": 0, "errstates": 0}
    init_seed, errstate = pipeline_module.init_seed, np.errstate

    def counting_seed(*args):
        seen["seeds"] += 1
        return init_seed(*args)

    def counting_errstate(**kwargs):
        seen["errstates"] += 1
        return errstate(**kwargs)

    monkeypatch.setattr(pipeline_module, "init_seed", counting_seed)
    monkeypatch.setattr(np, "errstate", counting_errstate)
    return seen


@pytest.fixture
def calls(monkeypatch):
    """Count calls of the corpus path's per-frame and per-episode work."""
    seen = {"step": 0, "render": 0, "tight_boxes": 0, "relevant_nouns": 0}
    for owner, name in ((world_module.World, "step"), (world_module.World, "render"),
                        (world_module, "tight_boxes"), (world_module, "relevant_nouns")):
        def counting(*args, name=name, call=getattr(owner, name)):
            seen[name] += 1
            return call(*args)
        monkeypatch.setattr(owner, name, counting)
    return seen


def test_a_policy_step_checks_its_read_outs_not_every_op(goal, counts):
    cfg, pipeline, _ = goal
    world = World(cfg.world_config(), 11)
    rgb, _ = world.render()
    _, slots = pipeline.policy_step(rgb, world.proprio(), world.task, None, 11, 0)
    # 146 checks before: one per op, and the 21 inside kernels and inputs
    assert counts == {"checks": 33, "ops": 121}
    counts.update(checks=0, ops=0)
    pipeline.policy_step(rgb, world.proprio(), world.task, slots, 11, 1)
    assert counts == {"checks": 33, "ops": 118}  # carried slots need no fresh init


def test_a_policy_step_draws_seeds_only_when_fresh_under_one_errstate(goal, entries):
    cfg, pipeline, _ = goal
    world = World(cfg.world_config(), 11)
    rgb, _ = world.render()
    _, slots = pipeline.policy_step(rgb, world.proprio(), world.task, None, 11, 0)
    assert entries == {"seeds": 1, "errstates": 1}
    entries.update(seeds=0, errstates=0)
    pipeline.policy_step(rgb, world.proprio(), world.task, slots, 11, 1)
    # 67 before: one per op that silences numpy, inside the pass's own
    assert entries == {"seeds": 0, "errstates": 1}


def test_a_stage1_step_draws_seeds_per_clip_under_one_errstate(goal, entries):
    cfg, pipeline, corpus = goal
    with T.fresh_tape() as tape:
        loss, _ = pipeline.stage1_batch_loss(sample_clips(corpus, cfg, 0))
        tape.backward(loss)
    # one seed per clip's first frame, 12 before, one per frame; the tape's
    # one errstate, 110 before, one per op that silences numpy
    assert entries == {"seeds": cfg.batch_clips, "errstates": 1}
    assert cfg.batch_clips == 4


def test_an_inspection_runs_under_its_no_grad_block_errstate(goal, entries, tmp_path):
    cfg, pipeline, corpus = goal
    inspect_report(pipeline, corpus.episodes[0], 4, tmp_path)
    # 131 before: the block's own, and one per op that silenced numpy
    assert entries["errstates"] == 1


def test_a_pass_that_replays_enters_one_errstate_per_run(entries):
    @T.inference_pass
    def read_out(x: float) -> np.ndarray:
        y = T.add(T.mul(T.exp(Tensor(1.0)), 2.0), 1.0)
        return T.check_finite(y.data * x, "read-out")

    with pytest.raises(NonFiniteError, match="by read-out$"):
        read_out(np.inf)
    # 4 before with these three ops: the first run's, then one per op in the replay
    assert entries["errstates"] == 2


def test_a_stage1_step_checks_every_op_on_its_tape(goal, counts):
    cfg, pipeline, corpus = goal
    with T.fresh_tape() as tape:
        loss, _ = pipeline.stage1_batch_loss(sample_clips(corpus, cfg, 0))
        tape.backward(loss)
    assert len(tape) == 159
    assert counts["checks"] == 219


# one solve per frame; the scipy matcher made 78 `linear_sum_assignment`
# calls on this step: per frame one solve, one per object that forbids an
# optimal edge, and on a tie one per candidate slot
SOLVES_PER_STAGE1_STEP = 12


def test_a_stage1_step_solves_each_frame_once(goal, monkeypatch):
    cfg, pipeline, corpus = goal
    solves, assign = [], losses._assign
    monkeypatch.setattr(losses, "_assign", lambda cost: solves.append(cost.shape) or assign(cost))
    with T.fresh_tape():
        pipeline.stage1_batch_loss(sample_clips(corpus, cfg, 0))
    assert len(solves) == SOLVES_PER_STAGE1_STEP
    assert len([s for s in solves if s[0] == cfg.num_slots]) == cfg.batch_clips * cfg.clip_len


def test_a_stage2_step_records_its_tape_entries(goal):
    cfg, pipeline, corpus = goal
    cache = flatten_cache(pipeline, Corpus(corpus.episodes, None))
    batch = [cache[i % len(cache)] for i in range(cfg.batch_frames)]
    bins = np.concatenate([action_to_bins(e["action"], cfg.action_bins) for e in batch])
    with T.fresh_tape() as tape:
        tape.backward(action_ce(pipeline.stage2_logits(batch), bins))
    assert len(tape) == 68


@pytest.mark.parametrize("subset", ["goal", "long"])
def test_generation_draws_and_boxes_each_frame_once(subset, calls):
    episode = generate_episode(3, load_config(overrides=[f"subset={subset}"]).world_config())
    frames = calls["step"]  # one per action, before no-op frames are dropped
    assert frames >= len(episode.frames)
    assert calls == {"step": frames, "render": frames, "tight_boxes": frames,
                     "relevant_nouns": 1}


def test_validation_boxes_each_frame_once(goal, calls):
    cfg, _, corpus = goal
    for episode in corpus.episodes:
        calls.update(step=0, render=0, tight_boxes=0, relevant_nouns=0)
        assert validate_episode(episode, cfg.noop_eps, cfg.image_size, cfg.num_slots) == []
        assert calls == {"step": 0, "render": 0, "tight_boxes": len(episode.frames),
                         "relevant_nouns": 1}
