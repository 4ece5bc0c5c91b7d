"""Full model assembly: frontend, slot encoder, filter, relations, decoder.

Owns every parameter group, the stage-1/stage-2 split, frame encoding with
carryover, the per-batch stage-1 objective, cached stage-2 logits, and the
closed-loop policy step used during rollouts.

`Pipeline.encode_frame` encodes a group of frames, rgb arrays, as one graph,
their dense tokens and slots plain Tensors stacked frame by frame as row
blocks; one frame is a group of one. It is the one place that chooses a
group's starting slots: a detached copy of the previous slots it is handed,
so carryover passes values, not tape history, or else one fresh seeded draw
per frame. Whether to hand them over is decided only by the two loops that
hold slot state, `Pipeline.walk` and `evaluate.policy_actions`, which read
`cfg.carryover_on`; `policy_step` carries whatever it is handed.

`Pipeline.walk` is the one episode walk, and the slot recurrence is all it
carries. It steps a list of clips in lockstep: the frames at each index form
one group, handed the previous group's refined slots, and a clip leaves the
group once it ends; each index yields the group's clips, dense tokens, slots
and attention weights. The stage-1 objective stacks the slots of a whole
batch and runs its heads, task filter, losses and tracking embeddings once
over them; only matching runs per frame, in numpy. The stage-2 cache walks
all of a corpus's episodes in lockstep, each as one whole-episode clip, and
filters each time step's frames as one group. Validation, one pass whose
IoU, AUC and flip rate read one matching per frame, and inspection reports
walk one episode at a time; only a closed-loop rollout, whose next frame
depends on the action taken, steps `policy_step` itself.
`Pipeline.select` is the one task-filter call. It keeps `cfg.object_tokens`
slots of each frame, the one count of object tokens a frame hands the
decoder, by which the stage-2 cache slices and which the budget report
prints. Stage-2 logits and the policy step share one decode tail, which
decodes frames stacked as row blocks in one graph: a stage-2 batch, or the
one frame of a policy step.

Training checks every op for NaN/Inf on its tape. The passes outside the
tape, the policy step and the stage-2 cache here and `train`'s validation
passes and `train.action_accuracy`, are `T.inference_pass`es: their ops go
unchecked, and each checks what it reads out or decides on (dense tokens,
slots, filter logits, head outputs, action logits). A non-finite value there
replays the pass with every op checked, so the error names the op.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

import numpy as np

from . import tensor as T
from .config import RunConfig
from .decoder import ActionDecoder
from .frontend import PatchEmbedder
from .language import EmbeddingTable
from .losses import (FrameTargets, TrackProjection, match_frame, relevance_loss,
                     slot_attn_loss, slot_relevance_labels, stage1_total, track_loss)
from .nn import ParamGroup
from .relations import RelationEncoder
from .slots import SlotAttention, SlotHeads
from .task_filter import TaskFilter
from .tensor import ShapeError, Tensor
from .world import FrameRecord


def frame_targets(record: FrameRecord, patch_size: int) -> FrameTargets:
    """Boxes, patch-grid masks (cells at least half covered), relevance flags.
    One `np.bincount` counts each instance's pixels in each cell; map values
    above the instance count are ignored."""
    k = len(record.instances)
    size = record.instance_map.shape[0]
    g = size // patch_size
    cell = np.arange(size) // patch_size
    keys = record.instance_map.astype(np.intp) * (g * g) + (cell[:, None] * g + cell)
    counts = np.bincount(keys.ravel(), minlength=(k + 1) * g * g)[g * g:(k + 1) * g * g]
    return FrameTargets(
        boxes=np.array([inst.box for inst in record.instances]),
        grid_masks=(2 * counts.reshape(k, g * g) >= patch_size * patch_size).astype(np.float64),
        relevance=np.array([float(inst.relevant) for inst in record.instances]),
        instance_ids=[inst.instance_id for inst in record.instances])


@dataclass
class Clip:
    """A run of consecutive frames from one episode, the first at time `base_t`."""

    frames: list[FrameRecord]
    targets: list[FrameTargets]  # one per frame; empty where nothing is supervised
    episode_key: int   # unique per source episode within a corpus
    base_t: int


def init_seed(run_seed: int, episode_key: int, t: int) -> int:
    return int(np.random.SeedSequence([run_seed, episode_key, t]).generate_state(1)[0])


def task_tokens(table: EmbeddingTable, tasks: list[str]) -> Tensor:
    """The token embeddings of a group's tasks, stacked task by task. Tasks of
    different word counts cannot be grouped: that is a ShapeError."""
    counts = [len(task.split()) for task in tasks]
    if len(set(counts)) > 1:
        raise ShapeError(f"tasks of a group differ in word count: {counts}")
    # tokenize splits on whitespace: the joined string embeds each task in turn
    return table(" ".join(tasks))


class Pipeline:
    def __init__(self, cfg: RunConfig):
        self.cfg = cfg
        children = np.random.SeedSequence(cfg.seed).spawn(9)
        rngs = [np.random.default_rng(c) for c in children]
        grid_cells = (cfg.image_size // cfg.patch_size) ** 2
        self.frontend = PatchEmbedder(rngs[0], cfg.patch_size, cfg.width, cfg.image_size)
        self.slot_attn = SlotAttention(rngs[1], cfg.width, cfg.num_slots,
                                       cfg.refine_steps, cfg.residual_mlp)
        self.heads = SlotHeads(rngs[2], cfg.width, grid_cells)
        self.filter = TaskFilter(rngs[3], cfg.width, cfg.heads)
        self.lang_filter = EmbeddingTable(rngs[4], cfg.width, "lang")
        self.track_proj = TrackProjection(rngs[5], cfg.width) if cfg.track_projection else None
        self.relations = RelationEncoder(rngs[6], cfg.width, cfg.num_relations, cfg.heads)
        self.decoder = ActionDecoder(rngs[7], cfg.width, cfg.action_bins, cfg.heads)
        self.lang_decoder = EmbeddingTable(rngs[8], cfg.width, "decoder_lang")

    def stage1_params(self) -> ParamGroup:
        g = ParamGroup()
        for sub in (self.frontend.params(), self.slot_attn.params(),
                    self.heads.params(), self.filter.params(),
                    self.lang_filter.params()):
            g.merge(sub)
        if self.track_proj is not None:
            g.merge(self.track_proj.params())
        return g

    def stage2_params(self) -> ParamGroup:
        g = ParamGroup()
        for sub in (self.relations.params(), self.decoder.params(),
                    self.lang_decoder.params()):
            g.merge(sub)
        return g

    # ------------------------------------------------------------------
    # encoding

    def encode_frame(self, frames: list[np.ndarray], prev_slots: Tensor | None,
                     episode_keys: list[int], times: list[int]):
        """(dense tokens, refined slots, attention weights) of a group of frames,
        rgb arrays with one episode key and time each, stacked frame by frame;
        one frame is a group of one. `prev_slots`, if given, holds the group's
        previous slots in the same order and starts it as a detached copy,
        with no seed drawn; otherwise each frame starts fresh from one
        `init_seed` of (run seed, episode key, t)."""
        tokens = self.frontend(frames)
        if prev_slots is not None:
            start = prev_slots.detach()
        else:
            start = self.slot_attn.fresh_slots(
                [init_seed(self.cfg.seed, key, t) for key, t in zip(episode_keys, times)])
        slots, weights = self.slot_attn.encode_frame(tokens, start)
        return tokens, slots, weights

    def walk(self, clips: list[Clip], carryover: bool | None = None) -> Iterator[
            tuple[int, list[Clip], Tensor, Tensor, np.ndarray]]:
        """Encode clips in lockstep: at each frame index i the clips still going,
        in batch order, form one group, each frame handed its own clip's
        previous slots if `carryover` (by default `cfg.carryover_on`) is set.
        A clip shorter than the others leaves the group once it ends. Yields
        (i, the group's clips, tokens, slots, weights)."""
        carry = self.cfg.carryover_on if carryover is None else carryover
        n_slots = self.cfg.num_slots
        slots, active = None, []
        for i in range(max((len(clip.frames) for clip in clips), default=0)):
            going = [c for c, clip in enumerate(clips) if i < len(clip.frames)]
            if carry and slots is not None and going != active:
                # carryover passes values, not history: keep the rows of the clips that go on
                kept = slots.data.reshape(len(active), n_slots, -1)[
                    [active.index(c) for c in going]]
                slots = Tensor(kept.reshape(len(going) * n_slots, -1))
            active = going
            group = [clips[c] for c in active]
            tokens, slots, weights = self.encode_frame(
                [clip.frames[i].rgb for clip in group], slots if carry else None,
                [clip.episode_key for clip in group], [clip.base_t + i for clip in group])
            yield i, group, tokens, slots, weights

    def select(self, slots: Tensor, lang: Tensor, groups: int = 1):
        """Task filter over the slots of `groups` frames stacked as row blocks,
        with their task tokens stacked alike: (scores + selected rows, logit
        column). Each frame keeps `cfg.object_tokens` slots."""
        return self.filter(slots, lang, self.cfg.object_tokens, groups)

    def track_embedding(self, slots: Tensor) -> Tensor:
        return self.track_proj(slots) if self.track_proj is not None else slots

    # ------------------------------------------------------------------
    # stage-1 objective

    def stage1_batch_loss(self, batch: list[Clip]) -> tuple[Tensor, dict[str, float]]:
        """The stage-1 objective of a batch of clips. The walk encodes the
        frames at each index as one group; the heads, the task filter and the
        loss terms then run once over every frame's slots, stacked index by
        index. Matching runs per frame."""
        cfg, n_slots = self.cfg, self.cfg.num_slots
        blocks: list[Tensor] = []
        frames: list[tuple[Clip, int]] = []
        for i, clips, _, slots, _ in self.walk(batch):
            blocks.append(slots)
            frames += [(clip, i) for clip in clips]
        slots, n_frames = T.concat(blocks, axis=0), len(frames)
        targets = [clip.targets[i] for clip, i in frames]
        preds = self.heads(slots)
        matches = [match_frame(boxes, target, cfg) for boxes, target in
                   zip(preds.boxes.data.reshape(n_frames, n_slots, 4), targets)]
        slot_term, parts = slot_attn_loss(preds, targets, matches, cfg)
        lang = task_tokens(self.lang_filter, [clip.frames[0].task for clip, _ in frames])
        _, logits = self.select(slots, lang, n_frames)
        labels = np.concatenate([slot_relevance_labels(match, target.relevance, n_slots)
                                 for match, target in zip(matches, targets)])
        int_term = relevance_loss(logits, labels, cfg.w_pos, cfg.w_neg, n_frames)
        if cfg.lambda_track > 0:
            # a matched slot's label is its (episode, instance); unmatched slots get -1
            keys = [{s: (clip.episode_key, target.instance_ids[g]) for s, g in match}
                    for (clip, _), target, match in zip(frames, targets, matches)]
            intern: dict[tuple[int, str], int] = {}
            emb_labels = [intern.setdefault(key[s], len(intern)) if s in key else -1
                          for key in keys for s in range(n_slots)]
            emb_frames = np.repeat([clip.base_t + i for clip, i in frames], n_slots)
            track, anchors, skipped = track_loss(
                self.track_embedding(slots), np.array(emb_labels), emb_frames,
                cfg.tau, cfg.track_window)
        else:
            track, anchors, skipped = Tensor(0.0), 0, 0
        slot_mean = T.mul(slot_term, 1.0 / n_frames)
        int_mean = T.mul(int_term, 1.0 / n_frames)
        total = stage1_total(slot_mean, track, int_mean, cfg)
        parts = {k: v / n_frames for k, v in parts.items()}
        parts.update(track=track.item(), int=int_mean.item(), total=total.item(),
                     track_anchors=anchors, track_skipped=skipped)
        return total, parts

    # ------------------------------------------------------------------
    # stage-2 features and logits

    @T.inference_pass
    def encode_episode_cache(self, episodes: list[list[FrameRecord]],
                             episode_keys: list[int]) -> list[dict]:
        """Frozen stage-1 features of every frame of the episodes, outside the
        tape, in episode-major order: the first episode's frames in time order,
        then the next episode's. The episodes are walked in lockstep, so the
        frames at each time step are encoded and filtered as one group; every
        task must have one word count, or `task_tokens` raises ShapeError.
        An entry's `selected` holds its kept slot rows within its own frame."""
        clips = [Clip(frames, [], key, 0)
                 for frames, key in zip(episodes, episode_keys, strict=True)]
        caches: list[list[dict]] = [[] for _ in clips]
        n_slots, grid = self.cfg.num_slots, self.frontend.grid
        for i, group, tokens, slots, _ in self.walk(clips):
            going = [c for c, frames in enumerate(episodes) if i < len(frames)]
            lang = task_tokens(self.lang_filter, [clip.frames[0].task for clip in group])
            scores, logits = self.select(slots, lang, len(group))
            for value, name in ((tokens, "dense tokens"), (slots, "slots"),
                                (logits, "filter logits")):
                T.check_finite(value.data, name)
            cells, keep = tokens.shape[0] // len(group), self.cfg.object_tokens
            for j, c in enumerate(going):
                record, rows = episodes[c][i], scores.selected[j * keep:(j + 1) * keep]
                caches[c].append({
                    "dense": tokens.data[j * cells:(j + 1) * cells].copy(),
                    "grid": (grid, grid),
                    "slots": slots.data[rows],
                    "selected": [r - j * n_slots for r in rows],
                    "task": record.task,
                    "proprio": record.proprio.copy(),
                    "action": record.action.copy(),
                })
        return [entry for cache in caches for entry in cache]

    def _logits(self, tokens: Tensor, objects: Tensor, tasks: list[str],
                proprio: np.ndarray) -> Tensor:
        """Relations, language and proprio around the kept slots, then decoding,
        of len(tasks) frames stacked frame by frame; logits are frame-major."""
        groups = len(tasks)
        rel = self.relations(tokens, objects, groups) if self.cfg.relations_on else None
        language = task_tokens(self.lang_decoder, tasks)
        bundle = self.decoder.assemble_bundle(objects, rel, language, proprio)
        return self.decoder.decode_actions(bundle, groups)

    def stage2_logits(self, entries: list[dict]) -> Tensor:
        """Logits of cached frames as one row-stacked graph, (frames·7, bins).
        Every frame holds `cfg.object_tokens` slots, so only the tasks' word
        counts can differ, and `task_tokens` rejects that."""
        tokens, slots = (Tensor(np.concatenate([e[key] for e in entries]))
                         for key in ("dense", "slots"))
        return self._logits(tokens, slots, [e["task"] for e in entries],
                            np.stack([e["proprio"] for e in entries]))

    # ------------------------------------------------------------------
    # closed-loop policy

    @T.inference_pass
    def policy_step(self, rgb: np.ndarray, proprio: np.ndarray, task: str,
                    prev_slots: Tensor | None, episode_key: int, t: int):
        """Greedy action for one observation, its rgb frame at time `t`;
        returns (action, refined slots). It carries `prev_slots` when given."""
        tokens, slots, _ = self.encode_frame([rgb], prev_slots, [episode_key], [t])
        scores, filter_logits = self.select(slots, self.lang_filter(task))
        logits = self._logits(tokens, T.gather_rows(slots, scores.selected), [task], proprio)
        for value, name in ((slots, "slots"), (filter_logits, "filter logits"),
                            (logits, "action logits")):
            T.check_finite(value.data, name)
        return self.decoder.greedy_action(logits), slots
