"""Two-stage training: slot encoder supervision, then behavior cloning.

`fit` is the one training loop; `train_stage1` and `train_stage2` supply its
parameters, per-step loss, CSV row and validation. Batches are resampled
from (run seed, step), so a resume replays the same data order and the next
step's gradients bitwise. Loss components stream to a CSV per run, which a
resume cuts back to the checkpoint's step.
"""

from __future__ import annotations

import json
import subprocess
import time
from pathlib import Path

import numpy as np
from scipy.stats import rankdata

from . import __version__
from . import tensor as T
from .checkpoint import load_checkpoint, save_checkpoint
from .config import RunConfig
from .decoder import ACTION_DIMS, action_to_bins
from .losses import action_ce, iou_matrix, match_frame, slot_relevance_labels
from .nn import ParamGroup
from .optim import AdaptiveOptimizer
from .pipeline import Clip, Pipeline, frame_targets
from .world import Episode, WorldError, check_frame_size, episode_files, load_episode

LOSS_CSV_HEADER = "step,L_box,L_obj,L_seg,L_track,L_int,total"


class TrainingError(Exception):
    pass


def git_describe() -> str:
    try:
        out = subprocess.run(["git", "describe", "--always", "--dirty"],
                             capture_output=True, text=True, timeout=10)
        if out.returncode == 0:
            return out.stdout.strip()
    except OSError:
        pass
    return "unknown"


def write_manifest(out_dir: Path, cfg: RunConfig, **extra) -> None:
    out_dir.mkdir(parents=True, exist_ok=True)
    (out_dir / "config.txt").write_text(cfg.to_text())
    manifest = {"config_hash": cfg.hash(), "seed": cfg.seed,
                "package_version": __version__, "git": git_describe(),
                "created_unix": int(time.time())}
    manifest.update(extra)
    (out_dir / "manifest.json").write_text(json.dumps(manifest, indent=2) + "\n")


class Corpus:
    """Episodes, their frame records and, given a patch size, the stage-1
    supervision targets of every frame; stage 2 reads no targets and passes
    None. An empty corpus is a data error (`WorldError`)."""

    def __init__(self, episodes: list[Episode], patch_size: int | None):
        if not episodes:
            raise WorldError("empty corpus")
        self.episodes = episodes
        self.frames = [ep.frames for ep in episodes]
        self.targets = None if patch_size is None else [
            [frame_targets(r, patch_size) for r in frames] for frames in self.frames]

    @staticmethod
    def load(data_dir: str | Path, patch_size: int | None) -> "Corpus":
        files = episode_files(data_dir)
        if not files:
            raise WorldError(f"no episodes under {data_dir}")
        return Corpus([load_episode(p) for p in files], patch_size)

    def __len__(self) -> int:
        return len(self.episodes)

    def episode_key(self, index: int) -> int:
        seed = self.episodes[index].seed
        return seed if seed >= 0 else index

    def clip(self, index: int, start: int, length: int) -> Clip:
        return Clip(frames=self.frames[index][start:start + length],
                    targets=self.targets[index][start:start + length],
                    episode_key=self.episode_key(index), base_t=start)


def load_corpus(cfg: RunConfig, data_dir: str | Path, targets: bool = True) -> Corpus:
    """`Corpus.load` for a run, with targets at `cfg.patch_size` or none. A
    frame whose size is not `cfg.image_size`, and tasks of different word
    counts, are data errors (`WorldError`): both stages group frames, and a
    group's tasks must be equally long."""
    corpus = Corpus.load(data_dir, cfg.patch_size if targets else None)
    for episode in corpus.episodes:
        check_frame_size(episode, cfg.image_size)
    counts = {len(record.task.split()) for episode in corpus.episodes
              for record in episode.frames}
    if len(counts) > 1:
        raise WorldError(f"{data_dir}: tasks differ in word count {sorted(counts)}; "
                         "a corpus holds one task template")
    return corpus


def sample_clips(corpus: Corpus, cfg: RunConfig, step: int) -> list[Clip]:
    rng = np.random.default_rng(np.random.SeedSequence([cfg.seed, 7001, step]))
    clips = []
    for _ in range(cfg.batch_clips):
        idx = int(rng.integers(len(corpus)))
        span = len(corpus.frames[idx])
        length = min(cfg.clip_len, span)
        start = int(rng.integers(0, span - length + 1))
        clips.append(corpus.clip(idx, start, length))
    return clips


def fit(pipeline: Pipeline, params: ParamGroup, iters: int, out_dir: Path, stage: int,
        header: str, step_loss, validate, check=lambda: None,
        resume: str | Path | None = None, **manifest) -> dict:
    """Train `params` to step `iters`, from `resume`'s step if given, and save
    them as `stage{stage}.ckpt`. `step_loss(step)` gives the loss and the CSV
    row after the step column; every `eval_every` steps `validate(steps done)`,
    if given, a history row and whether to stop. `check()` may raise to keep
    the checkpoint unwritten. A resume keeps the log's rows before its step."""
    cfg = pipeline.cfg
    opt = AdaptiveOptimizer(params, lr=cfg.lr, total_steps=iters, clip_norm=cfg.grad_clip)
    log_path = out_dir / f"stage{stage}_loss.csv"
    lines = [header]
    if resume is not None:
        state = load_checkpoint(resume)
        params.load_state(state)
        opt.load_state(state)
        if log_path.exists():
            lines = log_path.read_text().splitlines()[:opt.step_count + 1]
    write_manifest(out_dir, cfg, stage=stage, **manifest)
    history: list[dict] = []
    with open(log_path, "w") as log:
        log.writelines(line + "\n" for line in lines)
        for step in range(opt.step_count, iters):
            with T.fresh_tape() as tape:
                loss, row = step_loss(step)
                opt.zero_grad()
                tape.backward(loss)
            opt.step()
            log.write(f"{step},{row}\n")
            if validate is not None and (step + 1) % cfg.eval_every == 0:
                log.flush()
                metrics, stop = validate(step + 1)
                history.append(metrics)
                if stop:
                    break
    check()
    ckpt = out_dir / f"stage{stage}.ckpt"
    save_checkpoint(ckpt, params.state() | opt.state())
    return {"checkpoint": ckpt, "history": history, "steps": opt.step_count,
            "pipeline": pipeline}


# ---------------------------------------------------------------------------
# metrics


def auc_score(scores: np.ndarray, labels: np.ndarray) -> float:
    """Rank-based AUC with average ranks on ties."""
    scores = np.asarray(scores, dtype=np.float64)
    labels = np.asarray(labels) > 0.5
    n_pos = int(labels.sum())
    n_neg = labels.size - n_pos
    if n_pos == 0 or n_neg == 0:
        return float("nan")
    ranks = rankdata(scores)
    return float((ranks[labels].sum() - n_pos * (n_pos + 1) / 2) / (n_pos * n_neg))


def matched_frames(pipeline: Pipeline, corpus: Corpus):
    """The one validation walk: each episode walked whole, one frame per
    `encode_frame` call. Yields (clip, frame index, slots, head predictions,
    the frame's matching). Callers hold `T.no_grad()` around it: held in here,
    it would stay on whenever the walk is suspended."""
    for idx in range(len(corpus)):
        clip = corpus.clip(idx, 0, len(corpus.frames[idx]))
        for i, _, _, slots, _ in pipeline.walk([clip]):
            preds = pipeline.heads(slots)
            yield clip, i, slots, preds, match_frame(preds.boxes.data, clip.targets[i],
                                                     pipeline.cfg)


def stage1_metrics(pipeline: Pipeline, corpus: Corpus) -> dict[str, float]:
    """Matched-slot box IoU and relevance AUC over a full corpus."""
    ious, pi_all, labels_all = [], [], []
    with T.no_grad():
        for clip, i, slots, preds, match in matched_frames(pipeline, corpus):
            if i == 0:
                lang = pipeline.lang_filter(clip.frames[0].task)
            targets = clip.targets[i]
            pairwise = iou_matrix(preds.boxes.data, targets.boxes)
            ious.extend(pairwise[s, g] for s, g in match.pairs)
            scores, _ = pipeline.select(slots, lang)
            pi_all.extend(scores.scores.tolist())
            labels_all.extend(slot_relevance_labels(match, targets.relevance,
                                                    pipeline.cfg.num_slots).tolist())
    return {"iou": float(np.mean(ious)) if ious else 0.0,
            "auc": auc_score(np.array(pi_all), np.array(labels_all))}


def assignment_flip_rate(pipeline: Pipeline, corpus: Corpus,
                         carryover: bool) -> float:
    """Fraction of consecutive-frame object matches that switch slots."""
    flips = chances = 0
    saved = pipeline.cfg.carryover_on
    pipeline.cfg.carryover_on = carryover
    try:
        with T.no_grad():
            for clip, i, _, _, match in matched_frames(pipeline, corpus):
                prev_map = {} if i == 0 else current
                current = {clip.targets[i].instance_ids[g]: s for s, g in match.pairs}
                for name, slot in current.items():
                    if name in prev_map:
                        chances += 1
                        flips += prev_map[name] != slot
    finally:
        pipeline.cfg.carryover_on = saved
    return flips / chances if chances else 0.0


# ---------------------------------------------------------------------------
# stage 1


def train_stage1(cfg: RunConfig, data_dir: str | Path, out_dir: str | Path,
                 val_dir: str | Path | None = None,
                 resume: str | Path | None = None) -> dict:
    corpus = load_corpus(cfg, data_dir)
    val = load_corpus(cfg, val_dir) if val_dir else None
    pipeline = Pipeline(cfg)

    def step_loss(step: int):
        loss, parts = pipeline.stage1_batch_loss(sample_clips(corpus, cfg, step))
        return loss, ",".join(f"{parts[key]:.6f}"
                              for key in ("box", "obj", "seg", "track", "int", "total"))

    def validate(step: int):
        metrics = stage1_metrics(pipeline, val) | {"step": step}
        return metrics, (metrics["iou"] >= cfg.target_iou + cfg.early_stop_margin
                         and metrics["auc"] >= cfg.target_auc + cfg.early_stop_margin)

    return fit(pipeline, pipeline.stage1_params(), cfg.stage1_iters, Path(out_dir), 1,
               LOSS_CSV_HEADER, step_loss, validate if val is not None else None,
               resume=resume, data=str(data_dir))


# ---------------------------------------------------------------------------
# stage 2


def flatten_cache(pipeline: Pipeline, corpus: Corpus) -> list[dict]:
    """The stage-2 cache of a corpus, episode-major, in one lockstep pass."""
    return pipeline.encode_episode_cache(
        corpus.frames, [corpus.episode_key(idx) for idx in range(len(corpus))])


def action_accuracy(pipeline: Pipeline, cache: list[dict]) -> dict:
    """Per-dimension top-1 bin accuracy over cached frames, `batch_frames` at a time."""
    hits = np.zeros(ACTION_DIMS)
    size = pipeline.cfg.batch_frames
    with T.no_grad():
        for chunk in (cache[lo:lo + size] for lo in range(0, len(cache), size)):
            pred = np.argmax(pipeline.stage2_logits(chunk).data, axis=1)
            truth = [action_to_bins(e["action"], pipeline.cfg.action_bins) for e in chunk]
            hits += (pred.reshape(len(chunk), ACTION_DIMS) == truth).sum(axis=0)
    per_dim = hits / max(len(cache), 1)
    return {"per_dim": per_dim, "min": float(per_dim.min()),
            "mean": float(per_dim.mean())}


def train_stage2(cfg: RunConfig, stage1_ckpt: str | Path, data_dir: str | Path,
                 out_dir: str | Path, val_dir: str | Path | None = None) -> dict:
    """Behaviour cloning on frozen stage-1 features, `batch_frames` cached frames
    per step as one graph. Stage 2 always starts from the stage-1 checkpoint,
    writes its own only when it ends, and cannot resume."""
    pipeline = Pipeline(cfg)
    frozen = pipeline.stage1_params()
    frozen.load_state(load_checkpoint(stage1_ckpt))
    fingerprint = {name: t.data.tobytes() for name, t in frozen.items()}
    corpus = load_corpus(cfg, data_dir, targets=False)
    val = load_corpus(cfg, val_dir, targets=False) if val_dir else None
    cache = flatten_cache(pipeline, corpus)
    val_cache = flatten_cache(pipeline, val) if val is not None else None

    def step_loss(step: int):
        rng = np.random.default_rng(np.random.SeedSequence([cfg.seed, 7002, step]))
        batch = [cache[int(i)] for i in rng.integers(0, len(cache), size=cfg.batch_frames)]
        bins = np.concatenate([action_to_bins(e["action"], cfg.action_bins) for e in batch])
        loss = T.mul(action_ce(pipeline.stage2_logits(batch), bins), 1.0 / bins.size)
        return loss, f"{loss.item():.6f}"

    def validate(step: int):
        acc = action_accuracy(pipeline, val_cache)
        return ({"step": step, "min_acc": acc["min"], "mean_acc": acc["mean"]},
                acc["min"] >= cfg.target_acc + cfg.early_stop_margin)

    def check_frozen():
        for name, t in frozen.items():
            if t.data.tobytes() != fingerprint[name]:
                raise TrainingError(f"stage-1 parameter {name} changed during stage 2")
            if t.grad is not None:
                raise TrainingError(f"stage-1 parameter {name} accumulated a gradient")

    return fit(pipeline, pipeline.stage2_params(), cfg.stage2_iters, Path(out_dir), 2,
               "step,action_ce", step_loss, validate if val is not None else None,
               check_frozen, data=str(data_dir), stage1=str(stage1_ckpt))
