"""Full model assembly: frontend, slot encoder, filter, relations, decoder.

Owns every parameter group, the stage-1/stage-2 split, frame encoding with
carryover, the per-batch stage-1 objective, cached stage-2 logits, and the
closed-loop policy step used during rollouts.

`Pipeline.encode_frame` encodes a group of frames, rgb arrays, as one graph,
their tokens and slots stacked frame by frame as row blocks; one frame is a
group of one. It is the one place that decides carryover: a group starts
from its previous slots, when there are any, if `carryover_on` is set and
every t > 0, and from one fresh seeded draw per frame otherwise.

`Pipeline.walk` is the one episode walk. It steps a list of clips in
lockstep: the frames at each index form one group, handed the previous
group's refined slots, and a clip leaves the group once it ends. The
stage-1 objective walks a batch of clips; its heads, task filter and
tracking embeddings run once per group, and only matching runs per frame,
in numpy. The stage-2 cache walks all of a corpus's episodes in lockstep,
each as one whole-episode clip, and filters each time step's frames as one
group. Validation, the flip rate and inspection reports each walk one
whole-episode clip at a time; only a closed-loop rollout, whose next frame
depends on the action taken, steps `policy_step` itself.
`Pipeline.select` is the one task-filter call, and stage-2 logits and the
policy step share one decode tail, which decodes frames stacked as row blocks
in one graph: a stage-2 batch, or the one frame of a policy step.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

import numpy as np

from . import tensor as T
from .config import RunConfig
from .decoder import ActionDecoder
from .frontend import DenseTokens, PatchEmbedder
from .language import EmbeddingTable
from .losses import (FrameTargets, TrackProjection, match_frame, relevance_loss,
                     slot_attn_loss, slot_relevance_labels, stage1_total, track_loss)
from .nn import ParamGroup
from .relations import RelationEncoder
from .slots import AttentionMaps, SlotAttention, SlotHeads
from .task_filter import TaskFilter
from .tensor import ShapeError, Tensor
from .world import FrameRecord


def frame_targets(record: FrameRecord, patch_size: int) -> FrameTargets:
    """Boxes, patch-grid masks (cells at least half covered), relevance flags."""
    k = len(record.instances)
    g = record.instance_map.shape[0] // patch_size
    masks = record.instance_map == np.arange(1, k + 1)[:, None, None]
    cells = masks.reshape(k, g, patch_size, g, patch_size).mean(axis=(2, 4))
    return FrameTargets(
        boxes=np.stack([inst.box for inst in record.instances]),
        grid_masks=(cells >= 0.5).astype(np.float64).reshape(k, -1),
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
        """(dense tokens, refined slots, attention maps) of a group of frames,
        rgb arrays with one episode key and time each, stacked frame by frame;
        one frame is a group of one. `prev_slots` holds the group's previous
        slots in the same order, and is carried over only when every t > 0."""
        dense = self.frontend(frames)
        carry = prev_slots if self.cfg.carryover_on and min(times) > 0 else None
        seeds = [init_seed(self.cfg.seed, key, t) for key, t in zip(episode_keys, times)]
        slots, maps = self.slot_attn.encode_frame(dense, carry, seeds)
        return dense, slots, maps

    def walk(self, clips: list[Clip]) -> Iterator[
            tuple[int, list[Clip], DenseTokens, Tensor, AttentionMaps]]:
        """Encode clips in lockstep: at each frame index i the clips still going,
        in batch order, form one group, each frame handed its own clip's
        previous slots. A clip shorter than the others leaves the group once it
        ends. Yields (i, the group's clips, dense, slots, maps)."""
        n_slots = self.cfg.num_slots
        slots, active = None, []
        for i in range(max((len(clip.frames) for clip in clips), default=0)):
            going = [c for c, clip in enumerate(clips) if i < len(clip.frames)]
            if slots is not None and going != active:
                # carryover passes values, not history: keep the rows of the clips that go on
                kept = slots.data.reshape(len(active), n_slots, -1)[
                    [active.index(c) for c in going]]
                slots = Tensor(kept.reshape(len(going) * n_slots, -1))
            active = going
            group = [clips[c] for c in active]
            dense, slots, maps = self.encode_frame(
                [clip.frames[i].rgb for clip in group], slots,
                [clip.episode_key for clip in group], [clip.base_t + i for clip in group])
            yield i, group, dense, slots, maps

    def select(self, slots: Tensor, lang: Tensor, groups: int = 1):
        """Task filter over the slots of `groups` frames stacked as row blocks,
        with their task tokens stacked alike: (scores + selected rows, logit
        column)."""
        return self.filter(slots, lang, self.cfg.num_selected, enabled=self.cfg.filter_on,
                           groups=groups)

    def track_embedding(self, slots: Tensor) -> Tensor:
        return self.track_proj(slots) if self.track_proj is not None else slots

    # ------------------------------------------------------------------
    # stage-1 objective

    def stage1_batch_loss(self, batch: list[Clip]) -> tuple[Tensor, dict[str, float]]:
        """The stage-1 objective of a batch of clips, walked in lockstep: the
        frames at each index are encoded, scored and supervised as one graph.
        Matching runs per frame; the tracking term runs once over the whole
        batch."""
        cfg, n_slots = self.cfg, self.cfg.num_slots
        slot_terms: list[Tensor] = []
        int_terms: list[Tensor] = []
        parts_acc = {"box": 0.0, "obj": 0.0, "seg": 0.0}
        emb_blocks: list[Tensor] = []
        emb_labels: list[int] = []
        emb_frames: list[int] = []
        intern: dict[tuple[int, str], int] = {}
        for i, clips, _, slots, _ in self.walk(batch):
            targets = [clip.targets[i] for clip in clips]
            preds = self.heads(slots)
            boxes = preds.boxes.data
            matches = [match_frame(boxes[j * n_slots:(j + 1) * n_slots], target, cfg)
                       for j, target in enumerate(targets)]
            term, parts = slot_attn_loss(preds, targets, matches, cfg)
            slot_terms.append(term)
            for key in parts_acc:
                parts_acc[key] += parts[key]
            lang = task_tokens(self.lang_filter, [clip.frames[0].task for clip in clips])
            _, logits = self.select(slots, lang, len(clips))
            labels = np.concatenate([
                slot_relevance_labels(match, target.relevance, n_slots)
                for match, target in zip(matches, targets)])
            int_terms.append(relevance_loss(logits, labels, cfg.w_pos, cfg.w_neg,
                                            len(clips)))
            if cfg.lambda_track > 0:
                emb_blocks.append(self.track_embedding(slots))
                for clip, target, match in zip(clips, targets, matches):
                    gt_for_slot = dict(match.pairs)
                    for s in range(n_slots):
                        if s in gt_for_slot:
                            key = (clip.episode_key, target.instance_ids[gt_for_slot[s]])
                            emb_labels.append(intern.setdefault(key, len(intern)))
                        else:
                            emb_labels.append(-1)
                        emb_frames.append(clip.base_t + i)
        n_frames = sum(len(clip.frames) for clip in batch)
        slot_mean = T.mul(T.add_all(slot_terms), 1.0 / max(n_frames, 1))
        int_mean = T.mul(T.add_all(int_terms), 1.0 / max(n_frames, 1))
        if cfg.lambda_track > 0 and emb_blocks:
            track, anchors, skipped = track_loss(
                T.concat(emb_blocks, axis=0), np.array(emb_labels),
                np.array(emb_frames), cfg.tau, cfg.track_window)
        else:
            track, anchors, skipped = Tensor(0.0), 0, 0
        total = stage1_total(slot_mean, track, int_mean, cfg)
        parts = {k: v / max(n_frames, 1) for k, v in parts_acc.items()}
        parts.update(track=track.item(), int=int_mean.item(), total=total.item(),
                     track_anchors=anchors, track_skipped=skipped)
        return total, parts

    # ------------------------------------------------------------------
    # stage-2 features and logits

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
        n_slots = self.cfg.num_slots
        with T.no_grad():
            for i, group, dense, slots, _ in self.walk(clips):
                going = [c for c, frames in enumerate(episodes) if i < len(frames)]
                lang = task_tokens(self.lang_filter, [clip.frames[0].task for clip in group])
                selected = self.select(slots, lang, len(group))[0].selected
                cells, keep = dense.tokens.shape[0] // len(group), len(selected) // len(group)
                for j, c in enumerate(going):
                    record, rows = episodes[c][i], selected[j * keep:(j + 1) * keep]
                    caches[c].append({
                        "dense": dense.tokens.data[j * cells:(j + 1) * cells].copy(),
                        "grid": (dense.grid_h // len(group), dense.grid_w),
                        "slots": slots.data[rows],
                        "selected": [r - j * n_slots for r in rows],
                        "task": record.task,
                        "proprio": record.proprio.copy(),
                        "action": record.action.copy(),
                    })
        return [entry for cache in caches for entry in cache]

    def _logits(self, dense: DenseTokens, objects: Tensor, tasks: list[str],
                proprio: np.ndarray) -> Tensor:
        """Relations, language and proprio around the kept slots, then decoding,
        of len(tasks) frames stacked frame by frame; logits are frame-major."""
        groups = len(tasks)
        rel = self.relations(dense, objects, groups) if self.cfg.relations_on else None
        language = task_tokens(self.lang_decoder, tasks)
        bundle = self.decoder.assemble_bundle(objects, rel, language, proprio)
        return self.decoder.decode_actions(bundle, groups)

    def stage2_logits(self, entries: list[dict]) -> Tensor:
        """Logits of cached frames as one row-stacked graph, (frames·7, bins).
        Bundles of mixed length cannot be grouped: that is a ShapeError."""
        extra = (self.cfg.num_relations if self.cfg.relations_on else 0) + 1
        lengths = [len(e["slots"]) + len(e["task"].split()) + extra for e in entries]
        if len(set(lengths)) > 1:
            raise ShapeError(f"stage-2 bundles differ in length: {lengths}")
        stack = {key: np.concatenate([e[key] for e in entries]) for key in ("dense", "slots")}
        # token grids stacked frame by frame make one grid len(entries) times as tall
        grid_h, grid_w = entries[0]["grid"]
        dense = DenseTokens(Tensor(stack["dense"]), grid_h * len(entries), grid_w)
        return self._logits(dense, Tensor(stack["slots"]), [e["task"] for e in entries],
                            np.stack([e["proprio"] for e in entries]))

    # ------------------------------------------------------------------
    # closed-loop policy

    def policy_step(self, rgb: np.ndarray, proprio: np.ndarray, task: str,
                    prev_slots: Tensor | None, episode_key: int, t: int):
        """Greedy action for one observation, its rgb frame at time `t`;
        returns (action, refined slots)."""
        with T.no_grad():
            dense, slots, _ = self.encode_frame([rgb], prev_slots, [episode_key], [t])
            scores, _ = self.select(slots, self.lang_filter(task))
            logits = self._logits(dense, T.gather_rows(slots, scores.selected), [task],
                                  proprio)
            return self.decoder.greedy_action(logits), slots
