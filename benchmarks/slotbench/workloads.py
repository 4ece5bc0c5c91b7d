"""Workloads: corpora made in set-up, then rounds through public entry points.

A run sets up its corpora several times (the median is `setup_s`), then
repeats one fixed round until its time is spent. A round is one call of
`train.train_stage1` or `train.train_stage2`, then one `evaluate.evaluate`
on the pipeline the trainer returns. Rounds repeat the same work bitwise,
which the checks confirm. Step times are cut from outside, at the returns
of consecutive `AdaptiveOptimizer.step` calls; the trainers' loops are
called, never copied. In untraced runs a fixed reference loop is timed
between units of work, and each unit's time is scaled by the loop times
around it (`Reference`).
"""

from __future__ import annotations

import bisect
import functools
import hashlib
import math
import os
import resource
import statistics
import tempfile
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from slotforge import (checkpoint, decoder, evaluate, frontend, losses, optim,
                       pipeline, relations, slots, task_filter, tensor, train,
                       world)
from slotforge.config import RunConfig, load_config

from .tracing import Patches, Recorder, covered_time, span_stats

SETUP_REPEATS = 5
# Rounds repeat the same work, so each step counts at its median over the
# rounds (in traced runs at its fastest repeat); at least three of them.
MIN_ROUNDS = 3
# `python_loop_ms` on the machine the bounds were set on (a 2-vCPU VM, in
# its fast phase). End-to-end compute times are scaled to this speed.
REFERENCE_LOOP_MS = 1.8
# `file_loop_s` per file, in microseconds, on that machine in its fast phase.
# Set-up's file writes are scaled to this speed.
REFERENCE_FILE_US = 35.0
FILE_LOOP_FILES = 20
HELD_OUT_PER_COUNT = 1   # held-out episodes per object count of the subset
ROLLOUTS = 2             # closed-loop rollouts per round


@dataclass(frozen=True)
class Workload:
    name: str
    subset: str
    stage: int            # which trainer a round drives: 1 or 2
    iters: int            # training steps per round
    train_per_count: int  # training episodes per object count of the subset


WORKLOADS = {w.name: w for w in (
    Workload("stage1-goal", "goal", 1, 24, 2),
    Workload("stage2-rollout-goal", "goal", 2, 20, 1),
)}


def run_config(spec: Workload) -> RunConfig:
    """The subset's default config, shortened to one round's steps.

    Validation runs once, after the last step, so it never stops training
    early and never lands inside a timed step.
    """
    return load_config(overrides=[f"subset={spec.subset}",
                                  f"stage1_iters={spec.iters}",
                                  f"stage2_iters={spec.iters}",
                                  f"eval_every={spec.iters}"])


@dataclass(frozen=True)
class Inputs:
    train_seeds: tuple[int, ...]
    val_seeds: tuple[int, ...]
    rollout_base: int


def make_inputs(spec: Workload, cfg: RunConfig, seed: int) -> Inputs:
    """Episode and rollout seeds drawn from the benchmark seed alone.

    Episode seeds are drawn in order and kept until each corpus holds the
    same number of episodes of every object count the subset allows. Stage-1
    step cost grows with the objects per frame, so without this the object
    mix of a seed, not the code, would set most of the spread between seeds.
    """
    rng = np.random.default_rng(seed)
    wcfg = cfg.world_config()
    counts = range(wcfg.min_objects, wcfg.max_objects + 1)
    quota = (("train", spec.train_per_count), ("val", HELD_OUT_PER_COUNT))
    picked = {split: {n: [] for n in counts} for split, _ in quota}
    seen: set[int] = set()
    while any(len(picked[split][n]) < want for split, want in quota for n in counts):
        s = int(rng.integers(1_000_000))
        if s in seen:
            continue
        seen.add(s)
        n = len(world.World(wcfg, s).sprites) - 1  # the robot is a sprite too
        for split, want in quota:
            if len(picked[split][n]) < want:
                picked[split][n].append(s)
                break
    return Inputs(tuple(s for n in counts for s in picked["train"][n]),
                  tuple(s for n in counts for s in picked["val"][n]),
                  int(rng.integers(1_000_000, 2_000_000)))


@dataclass(frozen=True)
class Corpora:
    train: Path
    val: Path
    init_ckpt: Path | None   # stage-1 checkpoint at the run seed's initialisation
    train_frames: int
    val_frames: int


def python_loop_ms(repeats: int = 25) -> float:
    """Fastest of `repeats` runs of a fixed pure-Python loop, in ms.

    The package's cost is mostly interpreter overhead per op. On a shared
    machine that overhead and this loop slow down together, by up to half,
    for seconds to minutes at a time. The package never runs this loop, so
    a change to the package cannot move it.
    """
    best = math.inf
    for _ in range(repeats):
        start = time.perf_counter()
        acc, table = 0, {}
        for i in range(20_000):
            acc += i * 3 % 7
            table[i & 63] = acc
        best = min(best, time.perf_counter() - start)
    return best * 1e3


class Reference:
    """Reference-loop samples taken between units of the program's work.

    A shared machine runs at full speed or up to half slower in phases of a
    few seconds; the program and `python_loop_ms` slow down together. So the
    loop is timed once between consecutive units of work (a training step, a
    policy step, a frame of a corpus pass), and `scaled` gives a unit's time
    at the reference speed, judged by the samples next to it.
    """

    def __init__(self) -> None:
        self.samples: list[tuple[float, float, float]] = []  # (begin, end, loop ms)
        self._begins: list[float] = []

    def sample(self) -> None:
        begin = time.perf_counter()
        loop_ms = python_loop_ms(repeats=1)
        self.samples.append((begin, time.perf_counter(), loop_ms))
        self._begins.append(begin)

    def scaled(self, start: float, end: float) -> float:
        """Seconds of work in [start, end], without the samples inside it.

        Each stretch between two samples counts at `REFERENCE_LOOP_MS` over
        the mean of their loop times; the first and last stretches use the
        samples just outside the interval. Without samples it is wall time.
        """
        if not self.samples:
            return end - start
        first = bisect.bisect_left(self._begins, start)
        last = bisect.bisect_left(self._begins, end)
        inside = self.samples[first:last]
        before = self.samples[first - 1][2] if first > 0 else None
        after = self.samples[last][2] if last < len(self.samples) else None
        bounds = [before] + [ms for _, _, ms in inside] + [after]
        edges = [start] + [t for b, e, _ in inside for t in (b, e)] + [end]
        total = 0.0
        for k in range(len(inside) + 1):
            near = [ms for ms in bounds[k:k + 2] if ms is not None]
            total += (edges[2 * k + 1] - edges[2 * k]) * REFERENCE_LOOP_MS * len(near) / sum(near)
        return total


def file_loop_s(directory: Path) -> float:
    """Seconds to write `FILE_LOOP_FILES` new 4-KiB files into a new directory.

    Set-up is mostly file creation. On a shared machine its cost moves
    several-fold for minutes at a time, with the load on the file system and
    for seconds after many files were deleted. This loop, which the package
    never runs, moves with it. Its files stay until the run ends, because
    deleting them would slow the creations that follow.
    """
    target = Path(tempfile.mkdtemp(dir=directory))
    blob = bytes(4096)
    start = time.perf_counter()
    for i in range(FILE_LOOP_FILES):
        with open(target / f"f{i}", "wb") as fh:
            fh.write(blob)
    return time.perf_counter() - start


def set_up(spec: Workload, cfg: RunConfig, inputs: Inputs,
           out: Path) -> tuple[Corpora, dict[str, float]]:
    """Write the corpora (and on stage 2 the initial checkpoint), timed.

    Generating an episode and saving the checkpoint are compute, scaled by
    the reference loop timed around them. Writing the episodes is mostly
    file creation; right before each write `file_loop_s` runs once, so the
    file loop samples the file system as often as set-up writes to it, and
    the total write time is scaled by the file loop's total. (Scaling each
    write by its own sample, or subtracting a cost per file created, spread
    more: one 20-file sample is noisier than a whole set-up's.)
    `at_reference_s` is the sum.
    """
    wcfg = cfg.world_config()
    refs = out.parent / "file_loop"
    refs.mkdir(parents=True, exist_ok=True)
    reference = Reference()
    frames = {}
    compute_s = compute_ref_s = write_s = file_s = 0.0
    reference.sample()
    start = time.perf_counter()

    def compute(fn, *args):
        nonlocal compute_s, compute_ref_s
        begin = time.perf_counter()
        result = fn(*args)
        end = time.perf_counter()
        reference.sample()
        compute_s += end - begin
        compute_ref_s += reference.scaled(begin, end)
        return result

    for split, seeds in (("train", inputs.train_seeds), ("val", inputs.val_seeds)):
        frames[split] = 0
        for s in seeds:
            episode = compute(world.generate_episode, s, wcfg)
            file_s += file_loop_s(refs)
            begin = time.perf_counter()
            world.serialize_episode(episode, out / split)
            write_s += time.perf_counter() - begin
            frames[split] += len(episode.frames)
    init_ckpt = None
    if spec.stage == 2:
        init_ckpt = out / "stage1_init.ckpt"
        state = compute(lambda: pipeline.Pipeline(cfg).stage1_params().state())
        compute(checkpoint.save_checkpoint, init_ckpt, state)
    episodes = len(inputs.train_seeds) + len(inputs.val_seeds)
    file_loop_us = file_s * 1e6 / (episodes * FILE_LOOP_FILES)
    timing = {"wall_s": time.perf_counter() - start, "compute_s": compute_s,
              "write_s": write_s,
              "at_reference_s": compute_ref_s + write_s * REFERENCE_FILE_US / file_loop_us,
              "python_loop_ms": statistics.median(ms for _, _, ms in reference.samples),
              "file_loop_us": file_loop_us}
    return Corpora(out / "train", out / "val", init_ckpt,
                   frames["train"], frames["val"]), timing


def tree_digest(root: Path) -> dict[str, str]:
    return {p.relative_to(root).as_posix(): hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(root.rglob("*")) if p.is_file()}


# ---------------------------------------------------------------------------
# cut points: always installed, they give the end-to-end numbers


@dataclass
class Round:
    traced: bool
    start: float = 0.0
    end: float = 0.0
    cpu_s: float = 0.0
    reference: Reference = field(default_factory=Reference)  # empty when traced
    step_ends: list[float] = field(default_factory=list)
    step_starts: list[float] = field(default_factory=list)  # after each step's loop sample
    step_frames: list[int] = field(default_factory=list)
    corpus_passes: list[tuple[float, float, int]] = field(default_factory=list)  # start, end, frames
    policy_starts: list[float] = field(default_factory=list)
    policy_ends: list[float] = field(default_factory=list)
    policy_resumes: list[float] = field(default_factory=list)  # after each policy step's loop sample
    rollouts: list[tuple[int, int]] = field(default_factory=list)  # (steps, policy calls)
    result: dict | None = None
    table: dict | None = None
    loss_rows: list[list[float]] = field(default_factory=list)
    error: str | None = None
    failures: list[str] = field(default_factory=list)

    @property
    def wall_s(self) -> float:
        return self.end - self.start

    def seconds(self, start: float, end: float) -> float:
        return self.reference.scaled(start, end)


class CutPoints:
    """Timestamps and counts taken at public call boundaries into `current`."""

    def __init__(self, sample_loop: bool):
        self.current = Round(traced=False)
        self.sample_loop = sample_loop  # time the reference loop between units of work
        self.encoded = 0                # Pipeline.encode_frame calls so far
        self.in_pass = False            # inside a validation or caching pass

    def pause(self) -> None:
        if self.sample_loop:
            self.current.reference.sample()

    def install(self, patches: Patches) -> None:
        patches.replace(optim.AdaptiveOptimizer, "step", self._stamp_step)
        patches.replace(train, "sample_clips", self._count_clip_frames)
        patches.replace(pipeline.Pipeline, "encode_frame", self._count_encoded)
        patches.replace(train, "stage1_metrics", self._time_validation)
        patches.replace(train, "flatten_cache", self._time_cache)
        patches.replace(pipeline.Pipeline, "policy_step", self._time_policy)
        patches.replace(evaluate, "run_rollout", self._count_rollout)

    def _stamp_step(self, fn):
        """Stamp the step's return, then time the reference loop once; the
        next step's time starts after the loop. Traced runs skip the loop, so
        that it weighs on neither side of the tracing overhead."""
        @functools.wraps(fn)
        def step(*args, **kwargs):
            result = fn(*args, **kwargs)
            self.current.step_ends.append(time.perf_counter())
            self.pause()
            self.current.step_starts.append(time.perf_counter())
            return result
        return step

    def _count_clip_frames(self, fn):
        @functools.wraps(fn)
        def sample_clips(*args, **kwargs):
            clips = fn(*args, **kwargs)
            self.current.step_frames.append(sum(len(c.frames) for c in clips))
            return clips
        return sample_clips

    def _count_encoded(self, fn):
        """Within a corpus pass, the reference loop runs before each frame."""
        @functools.wraps(fn)
        def encode_frame(*args, **kwargs):
            if self.in_pass:
                self.pause()
            self.encoded += 1
            return fn(*args, **kwargs)
        return encode_frame

    def _pass(self, fn, frames):
        """Time a corpus pass; `frames(result, encoded)` is what it covered."""
        @functools.wraps(fn)
        def corpus_pass(*args, **kwargs):
            encoded, self.in_pass = self.encoded, True
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                self.in_pass = False
            self.current.corpus_passes.append(
                (start, time.perf_counter(), frames(result, self.encoded - encoded)))
            return result
        return corpus_pass

    def _time_validation(self, fn):
        """A stage-1 validation pass counts the frames it encoded."""
        return self._pass(fn, lambda result, encoded: encoded)

    def _time_cache(self, fn):
        """A stage-2 feature cache counts the entries it returned."""
        return self._pass(fn, lambda result, encoded: len(result))

    def _time_policy(self, fn):
        """Stamp a policy step's start and return, then time the reference loop."""
        @functools.wraps(fn)
        def policy_step(*args, **kwargs):
            data = self.current
            data.policy_starts.append(time.perf_counter())
            result = fn(*args, **kwargs)
            data.policy_ends.append(time.perf_counter())
            self.pause()
            data.policy_resumes.append(time.perf_counter())
            return result
        return policy_step

    def _count_rollout(self, fn):
        @functools.wraps(fn)
        def run_rollout(*args, **kwargs):
            calls = len(self.current.policy_ends)
            result = fn(*args, **kwargs)
            self.current.rollouts.append(
                (result.steps, len(self.current.policy_ends) - calls))
            return result
        return run_rollout


# ---------------------------------------------------------------------------
# spans: installed only for traced rounds


def install_spans(patches: Patches, recorder: Recorder) -> None:
    """Wrap each layer's public functions where their callers look them up."""
    def tape_size(args, result):
        recorder.counts["tape_entries"].append(len(args[0]))

    def track_counts(args, result):
        recorder.counts["track_anchors"].append(result[1]["track_anchors"])
        recorder.counts["track_skipped"].append(result[1]["track_skipped"])

    def episode_frames(args, result):
        recorder.counts["generated_frames"].append(len(result.frames))

    def corpus_frames(args, result):
        recorder.counts["loaded_frames"].append(sum(len(f) for f in result.frames))

    targets = [
        ("train.train_stage1", [(train, "train_stage1")], None),
        ("train.train_stage2", [(train, "train_stage2")], None),
        ("train.Corpus.load", [(train.Corpus, "load")], corpus_frames),
        ("train.stage1_metrics", [(train, "stage1_metrics")], None),
        ("train.flatten_cache", [(train, "flatten_cache")], None),
        ("train.action_accuracy", [(train, "action_accuracy")], None),
        ("world.generate_episode", [(world, "generate_episode")], episode_frames),
        ("world.serialize_episode", [(world, "serialize_episode")], None),
        ("world.World.render", [(world.World, "render")], None),
        ("world.World.step", [(world.World, "step")], None),
        ("pipeline.Pipeline.stage1_batch_loss",
         [(pipeline.Pipeline, "stage1_batch_loss")], track_counts),
        ("pipeline.Pipeline.encode_frame", [(pipeline.Pipeline, "encode_frame")], None),
        ("pipeline.Pipeline.encode_episode_cache",
         [(pipeline.Pipeline, "encode_episode_cache")], None),
        ("pipeline.Pipeline.stage2_logits", [(pipeline.Pipeline, "stage2_logits")], None),
        ("pipeline.Pipeline.policy_step", [(pipeline.Pipeline, "policy_step")], None),
        ("frontend.PatchEmbedder.__call__", [(frontend.PatchEmbedder, "__call__")], None),
        ("slots.SlotAttention.encode_frame", [(slots.SlotAttention, "encode_frame")], None),
        ("slots.SlotHeads.__call__", [(slots.SlotHeads, "__call__")], None),
        ("task_filter.TaskFilter.__call__", [(task_filter.TaskFilter, "__call__")], None),
        ("relations.RelationEncoder.__call__",
         [(relations.RelationEncoder, "__call__")], None),
        ("decoder.ActionDecoder.assemble_bundle",
         [(decoder.ActionDecoder, "assemble_bundle")], None),
        ("decoder.ActionDecoder.decode_actions",
         [(decoder.ActionDecoder, "decode_actions")], None),
        ("losses.match_frame", [(pipeline, "match_frame"), (train, "match_frame")], None),
        ("losses.hungarian_match", [(losses, "hungarian_match")], None),
        ("losses.giou_pairs", [(losses, "giou_pairs")], None),
        ("losses.slot_attn_loss", [(pipeline, "slot_attn_loss")], None),
        ("losses.track_loss", [(pipeline, "track_loss")], None),
        ("losses.relevance_loss", [(pipeline, "relevance_loss")], None),
        ("losses.action_ce", [(train, "action_ce")], None),
        ("tensor.GradTape.backward", [(tensor.GradTape, "backward")], tape_size),
        ("optim.AdaptiveOptimizer.step", [(optim.AdaptiveOptimizer, "step")], None),
        ("optim.AdaptiveOptimizer.zero_grad",
         [(optim.AdaptiveOptimizer, "zero_grad")], None),
        ("evaluate.evaluate", [(evaluate, "evaluate")], None),
        ("evaluate.run_rollout", [(evaluate, "run_rollout")], None),
        ("checkpoint.save_checkpoint",
         [(checkpoint, "save_checkpoint"), (train, "save_checkpoint")], None),
        ("checkpoint.load_checkpoint",
         [(checkpoint, "load_checkpoint"), (train, "load_checkpoint")], None),
    ]
    for name, owners, on_return in targets:
        for owner, attr in owners:
            patches.replace(owner, attr,
                            lambda fn, name=name, cb=on_return: recorder.wrap(fn, name, cb))


# ---------------------------------------------------------------------------
# one round and its checks


def run_round(spec: Workload, cfg: RunConfig, corpora: Corpora, inputs: Inputs,
              out: Path, data: Round) -> None:
    if spec.stage == 1:
        data.result = train.train_stage1(cfg, corpora.train, out, val_dir=corpora.val)
    else:
        data.result = train.train_stage2(cfg, corpora.init_ckpt, corpora.train, out,
                                         val_dir=corpora.val)
    data.table = evaluate.evaluate(data.result["pipeline"], cfg, ROLLOUTS,
                                   base_seed=inputs.rollout_base, out_dir=out / "eval")


def round_units(spec: Workload, corpora: Corpora) -> int:
    """Steps, cached frames and rollouts one round attempts."""
    cached = corpora.train_frames + corpora.val_frames if spec.stage == 2 else 0
    return spec.iters + cached + ROLLOUTS


def completed_units(spec: Workload, data: Round) -> int:
    cached = sum(n for _, _, n in data.corpus_passes) if spec.stage == 2 else 0
    return len(data.step_ends) + cached + len(data.rollouts)


def _unequal_params(saved: dict[str, np.ndarray], group) -> list[str]:
    return [name for name, t in group.items()
            if name not in saved or not np.array_equal(saved[name], t.data)]


def check_round(spec: Workload, cfg: RunConfig, corpora: Corpora, out: Path,
                data: Round) -> list[str]:
    """What the round wrote and returned, against what was asked for."""
    failures: list[str] = []
    stage = spec.stage
    lines = (out / f"stage{stage}_loss.csv").read_text().splitlines()
    header = train.LOSS_CSV_HEADER if stage == 1 else "step,action_ce"
    if not lines or lines[0] != header:
        failures.append(f"stage{stage}_loss.csv: unexpected header")
    data.loss_rows = [[float(v) for v in line.split(",")] for line in lines[1:]]
    if [int(row[0]) for row in data.loss_rows] != list(range(spec.iters)):
        failures.append(f"stage{stage}_loss.csv holds {len(data.loss_rows)} rows, "
                        f"expected steps 0..{spec.iters - 1}")
    if not all(math.isfinite(v) for row in data.loss_rows for v in row):
        failures.append(f"stage{stage}_loss.csv holds a non-finite loss")
    result = data.result
    if result["steps"] != spec.iters or len(data.step_ends) != spec.iters:
        failures.append(f"{result['steps']} optimizer steps, expected {spec.iters}")
    history = result["history"]
    keys = ("iou", "auc") if stage == 1 else ("min_acc", "mean_acc")
    if (len(history) != 1 or history[0]["step"] != spec.iters
            or not all(math.isfinite(history[0][k]) for k in keys)):
        failures.append(f"validation history {history} is not one finite row "
                        f"at step {spec.iters}")
    pipe = result["pipeline"]
    saved = checkpoint.load_checkpoint(result["checkpoint"])
    trained = pipe.stage1_params() if stage == 1 else pipe.stage2_params()
    failures += [f"checkpoint does not load back equal to parameter {name}"
                 for name in _unequal_params(saved, trained)]
    if stage == 2:
        initial = checkpoint.load_checkpoint(corpora.init_ckpt)
        failures += [f"stage-1 parameter {name} moved during stage 2"
                     for name in _unequal_params(initial, pipe.stage1_params())]
    covered = [n for _, _, n in data.corpus_passes]
    expected = ([corpora.val_frames] if stage == 1
                else [corpora.train_frames, corpora.val_frames])
    if covered != expected:
        failures.append(f"corpus passes covered {covered} frames, corpora hold {expected}")
    if data.table["rollouts"] != ROLLOUTS or len(data.rollouts) != ROLLOUTS:
        failures.append(f"{data.table['rollouts']} rollouts reported, "
                        f"{ROLLOUTS} asked for")
    for steps, calls in data.rollouts:
        if steps != calls or not 1 <= steps <= cfg.rollout_horizon:
            failures.append(f"rollout reports {steps} steps for {calls} policy_step calls")
    return failures


def round_signature(data: Round) -> tuple:
    """What must repeat bitwise from one round to the next."""
    return (data.loss_rows, data.result["history"], data.table, data.rollouts,
            [n for _, _, n in data.corpus_passes])


def frozen_check_fires(cfg: RunConfig, corpora: Corpora, out: Path) -> bool:
    """Nudge a stage-1 parameter inside `train_stage2`; its own check must raise."""
    patches = Patches()

    def nudge(fn):
        @functools.wraps(fn)
        def flatten_cache(pipe, corpus):
            result = fn(pipe, corpus)
            next(iter(pipe.stage1_params().items()))[1].data[...] += 1e-3
            return result
        return flatten_cache

    patches.replace(train, "flatten_cache", nudge)
    one_step = load_config(overrides=[f"subset={cfg.subset}", "stage2_iters=1"])
    try:
        train.train_stage2(one_step, corpora.init_ckpt, corpora.val, out)
    except train.TrainingError as exc:
        return "changed during stage 2" in str(exc)
    finally:
        patches.undo()
    return False


# ---------------------------------------------------------------------------
# the run


@dataclass
class Metric:
    value: float | None
    unit: str
    samples: int


@dataclass
class Report:
    correct: bool
    attempted: int
    failed: int
    metrics: dict[str, Metric]
    failures: list[str]
    rounds: int
    quality: dict   # fixed-seed learning outcome of round 0; repeats bitwise
    samples: dict[str, list[float]]   # per-step seconds behind the metrics
    setups: list[dict[str, float]]    # raw set-up timings behind `setup_s`


def _median(values) -> float | None:
    return statistics.median(values) if values else None


def _ms_percentile(seconds: list[float], q: float) -> float | None:
    return float(np.percentile(seconds, q)) * 1e3 if seconds else None


def _ratio(num: float, den: float) -> float | None:
    return num / den if den > 0 else None


def run_workload(spec: Workload, seed: int, seconds: float, trace: bool,
                 work: Path, spans_path: Path | None = None) -> Report:
    cfg = run_config(spec)
    inputs = make_inputs(spec, cfg, seed)
    recorder = Recorder()
    cuts = CutPoints(sample_loop=not trace)
    always, traced = Patches(), Patches()
    rounds: list[Round] = []
    failures: list[str] = []
    setups: list[dict[str, float]] = []
    try:
        cuts.install(always)
        if trace:
            install_spans(traced, recorder)
        digests = []
        for i in range(SETUP_REPEATS):
            corpora, timing = set_up(spec, cfg, inputs, work / f"setup{i}")
            setups.append(timing)
            digests.append(tree_digest(work / f"setup{i}"))
        traced.undo()
        if any(d != digests[0] for d in digests):
            failures.append("set-up with one seed wrote different bytes")
        loop_ms = [python_loop_ms()]
        begin = time.perf_counter()
        while True:
            data = Round(traced=trace and len(rounds) % 2 == 1)
            cuts.current = data
            if data.traced:
                install_spans(traced, recorder)
            out = work / f"round{len(rounds)}"
            cpu = os.times()
            data.start = time.perf_counter()
            try:
                run_round(spec, cfg, corpora, inputs, out, data)
            except Exception:  # a raise fails the rest of the round, not the run
                data.error = traceback.format_exc()
            finally:
                data.end = time.perf_counter()
                traced.undo()
            now = os.times()
            data.cpu_s = (now.user - cpu.user) + (now.system - cpu.system)
            loop_ms.append(python_loop_ms())
            rounds.append(data)
            if data.error is not None:
                data.failures.append(data.error.strip().splitlines()[-1])
                break
            try:
                data.failures = check_round(spec, cfg, corpora, out, data)
            except Exception as exc:  # an unreadable output is a failed check
                data.failures = [f"output check raised {exc!r}"]
            if not data.failures and round_signature(data) != round_signature(rounds[0]):
                data.failures.append(f"round {len(rounds) - 1} did not repeat round 0")
            data.result.pop("pipeline")  # keep peak memory independent of round count
            elapsed = time.perf_counter() - begin
            if (len(rounds) >= MIN_ROUNDS
                    and elapsed + max(r.wall_s for r in rounds) > seconds):
                break
    finally:
        traced.undo()
        always.undo()
    if spec.stage == 2 and not frozen_check_fires(cfg, corpora, work / "frozen_probe"):
        failures.append("train_stage2 did not reject a moved stage-1 parameter")
    if spans_path is not None:
        recorder.write(spans_path)

    units = round_units(spec, corpora)
    attempted = units * len(rounds)
    failed = 0
    for i, data in enumerate(rounds):
        if data.error is not None:
            failed += units - completed_units(spec, data)
        elif data.failures:
            failed += units
        failures += [f"round {i}: {f}" for f in data.failures]
    good = [r for r in rounds if r.error is None and not r.failures]
    metrics = (per_layer(cfg, corpora, rounds, recorder, min(loop_ms)) if trace
               else end_to_end(spec, cfg, good, setups, attempted, failed))
    return Report(correct=not failures and failed == 0, attempted=attempted,
                  failed=failed, metrics=metrics, failures=failures,
                  rounds=len(rounds), quality=quality(good[0]) if good else {},
                  samples=over_rounds(good, statistics.median), setups=setups)


def val_score(stage: int, data: Round) -> float:
    """Relevance AUC after stage 1, mean action accuracy after stage 2.

    Stage-1 box IoU and stage-2 minimum accuracy after one short round
    spread too far between seeds to carry a bound; the digest guards them.
    """
    row = data.result["history"][-1]
    return row["auc"] if stage == 1 else row["mean_acc"]


def quality(data: Round) -> dict:
    """Losses, validation scores and rollouts of a round, with their digest.

    For one seed the digest must not change unless a change means to alter
    what is learned.
    """
    digest = hashlib.sha256(repr(round_signature(data)).encode()).hexdigest()
    return {"loss_final": data.loss_rows[-1][-1],
            "validation": data.result["history"][-1],
            "rollout_success": data.table["average"],
            "rollout_steps": [steps for steps, _ in data.rollouts],
            "digest": digest}


def rollout_step_s(data: Round) -> list[float]:
    """Seconds from one `policy_step` return to the next within each rollout,
    without the reference loop after the first: one world step, one render
    and one policy step each."""
    steps, at = [], 0
    for _, calls in data.rollouts:
        ends = data.policy_ends[at + 1:at + calls]
        steps += [data.seconds(a, b) for a, b in zip(data.policy_resumes[at:at + calls], ends)]
        at += calls
    return steps


def over_rounds(rounds: list[Round], combine) -> dict[str, list[float]]:
    """Seconds per training step, corpus pass, policy step and rollout step,
    at the reference speed in untraced runs, each step's repeats over
    `rounds` combined into one by `combine` (median or min)."""
    def each(series):
        return [combine(values) for values in zip(*series)]
    return {"train_step_s": each([[r.seconds(a, b) for a, b
                                   in zip(r.step_starts, r.step_ends[1:])] for r in rounds]),
            "corpus_pass_s": each([[r.seconds(a, b) for a, b, _ in r.corpus_passes]
                                   for r in rounds]),
            "policy_step_s": each([[r.seconds(a, b) for a, b
                                    in zip(r.policy_starts, r.policy_ends)] for r in rounds]),
            "rollout_step_s": each([rollout_step_s(r) for r in rounds])}


def end_to_end(spec: Workload, cfg: RunConfig, good: list[Round],
               setups: list[dict[str, float]], attempted: int,
               failed: int) -> dict[str, Metric]:
    """User-visible numbers from rounds that passed every check.

    A training step, a corpus pass, a policy step and a rollout step each
    count at the reference speed (`Reference.scaled`) and at their median
    over the rounds; the percentiles are taken over the distinct steps.
    (A step's fastest repeat was noisier: it picks the repeats whose loop
    samples ran slow.) Set-up times are scaled as they are taken, by `set_up`.
    """
    first = good[0] if good else Round(traced=False)
    typical = over_rounds(good, statistics.median)
    steps = typical["train_step_s"]
    policy = typical["policy_step_s"]
    rollout = typical["rollout_step_s"]
    if spec.stage == 1:
        step_frames = sum(first.step_frames[1:len(first.step_ends)])
    else:
        step_frames = cfg.batch_frames * len(steps)
    pass_frames = sum(n for _, _, n in first.corpus_passes)
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return {
        "setup_s": Metric(_median([t["at_reference_s"] for t in setups]), "s",
                          len(setups)),
        "peak_rss_mb": Metric(peak_kb / 1024.0, "MB", 1),
        "ok_frac": Metric(1.0 - failed / attempted if attempted else None, "frac",
                          attempted),
        "train_frames_per_s": Metric(_ratio(step_frames, sum(steps)), "1/s", len(steps)),
        "train_step_ms_p50": Metric(_ms_percentile(steps, 50), "ms", len(steps)),
        "train_loss_final": Metric(first.loss_rows[-1][-1] if good else None, "loss", 1),
        "val_score": Metric(val_score(spec.stage, first) if good else None, "frac", 1),
        "encode_frames_per_s": Metric(
            _ratio(pass_frames, sum(typical["corpus_pass_s"])), "1/s", pass_frames),
        "rollout_steps_per_s": Metric(_ratio(len(rollout), sum(rollout)), "1/s",
                                      len(rollout)),
        "policy_step_ms_p50": Metric(_ms_percentile(policy, 50), "ms", len(policy)),
    }


# metric -> span whose mean inclusive time per call it reports
SPAN_MS = {
    "world.render_ms": "world.World.render",
    "world.step_ms": "world.World.step",
    "pipeline.stage1_batch_loss_ms": "pipeline.Pipeline.stage1_batch_loss",
    "pipeline.encode_frame_ms": "pipeline.Pipeline.encode_frame",
    "pipeline.stage2_logits_ms": "pipeline.Pipeline.stage2_logits",
    "pipeline.policy_step_ms": "pipeline.Pipeline.policy_step",
    "frontend.embed_ms": "frontend.PatchEmbedder.__call__",
    "slots.encode_frame_ms": "slots.SlotAttention.encode_frame",
    "slots.heads_ms": "slots.SlotHeads.__call__",
    "task_filter.ms": "task_filter.TaskFilter.__call__",
    "relations.ms": "relations.RelationEncoder.__call__",
    "decoder.assemble_bundle_ms": "decoder.ActionDecoder.assemble_bundle",
    "decoder.decode_actions_ms": "decoder.ActionDecoder.decode_actions",
    "losses.match_frame_ms": "losses.match_frame",
    "losses.hungarian_ms": "losses.hungarian_match",
    "losses.slot_attn_ms": "losses.slot_attn_loss",
    "losses.giou_pairs_ms": "losses.giou_pairs",
    "losses.track_ms": "losses.track_loss",
    "losses.relevance_ms": "losses.relevance_loss",
    "losses.action_ce_ms": "losses.action_ce",
    "tensor.backward_ms": "tensor.GradTape.backward",
    "optim.step_ms": "optim.AdaptiveOptimizer.step",
    "optim.zero_grad_ms": "optim.AdaptiveOptimizer.zero_grad",
    "evaluate.rollout_ms": "evaluate.run_rollout",
    "checkpoint.save_ms": "checkpoint.save_checkpoint",
    "checkpoint.load_ms": "checkpoint.load_checkpoint",
}

LAYERS = ("train", "world", "pipeline", "frontend", "slots", "task_filter",
          "relations", "decoder", "losses", "tensor", "optim", "evaluate",
          "checkpoint")


def _mean(values) -> float:
    return sum(values) / len(values) if values else 0.0


def _timed_s(rounds: list[Round]) -> float:
    """Training steps, corpus passes and rollout steps of a round, each at
    its fastest repeat over `rounds`: most of a round, without its slow
    phases, which would swamp the small cost of tracing."""
    best = over_rounds(rounds, min)
    return sum(sum(best[k]) for k in ("train_step_s", "corpus_pass_s", "rollout_step_s"))


def per_layer(cfg: RunConfig, corpora: Corpora, rounds: list[Round],
              recorder: Recorder, loop_ms: float) -> dict[str, Metric]:
    """Layer numbers from the traced rounds, as measured (not scaled)."""
    spans = recorder.spans
    counts = recorder.counts
    every = span_stats(spans)
    metrics: dict[str, Metric] = {}
    for metric, name in SPAN_MS.items():
        calls, total, _ = every.get(name, (0, 0.0, 0.0))
        metrics[metric] = Metric(total / calls * 1e3 if calls else 0.0, "ms", calls)
    calls, _, self_s = every.get("pipeline.Pipeline.stage1_batch_loss", (0, 0.0, 0.0))
    metrics["pipeline.stage1_batch_loss_self_ms"] = Metric(
        self_s / calls * 1e3 if calls else 0.0, "ms", calls)
    for metric, name, key in (
            ("world.generate_ms_per_frame", "world.generate_episode", "generated_frames"),
            ("train.corpus_load_ms_per_frame", "train.Corpus.load", "loaded_frames")):
        frames = sum(counts[key])
        metrics[metric] = Metric(every[name][1] / frames * 1e3 if frames else 0.0,
                                 "ms", int(frames))
    for key, metric in (("tape_entries", "tensor.tape_entries_per_step"),
                        ("track_anchors", "losses.track_anchors"),
                        ("track_skipped", "losses.track_skipped")):
        metrics[metric] = Metric(_mean(counts[key]), "count", len(counts[key]))

    traced = [r for r in rounds if r.traced]
    plain = [r for r in rounds if not r.traced]
    traced_wall = sum(r.wall_s for r in traced)
    self_by_layer = dict.fromkeys(LAYERS, 0.0)
    for r in traced:
        for name, (_, _, self_s) in span_stats(spans, (r.start, r.end)).items():
            self_by_layer[name.split(".")[0]] += self_s
    for layer, self_s in self_by_layer.items():
        metrics[f"{layer}.self_pct"] = Metric(
            100.0 * self_s / traced_wall if traced_wall else 0.0, "%", len(traced))
    intervals = [(a, b) for r in traced for a, b in zip(r.step_starts, r.step_ends[1:])]
    step_s = sum(b - a for a, b in intervals)
    metrics["trace.step_coverage_pct"] = Metric(
        100.0 * covered_time(spans, intervals) / step_s if step_s else 0.0, "%",
        len(intervals))
    # Round 0 warms up; after it, as many untraced rounds as traced ones.
    pairs = [(p, t) for p, t in zip(plain[1:], traced)
             if not (p.error or p.failures or t.error or t.failures)]
    overhead = None
    if pairs:
        overhead = 100.0 * (_timed_s([t for _, t in pairs])
                            / _timed_s([p for p, _ in pairs]) - 1.0)
    metrics["trace.overhead_pct"] = Metric(overhead, "%", 2 * len(pairs))
    metrics["process.cpu_s_per_wall_s"] = Metric(
        _ratio(sum(r.cpu_s for r in plain), sum(r.wall_s for r in plain)), "s/s",
        len(plain))
    pipe = pipeline.Pipeline(cfg)
    for stage, group in ((1, pipe.stage1_params()), (2, pipe.stage2_params())):
        metrics[f"params.stage{stage}"] = Metric(
            float(sum(t.data.size for t in group.tensors())), "count", 1)
    metrics["corpus.train_frames"] = Metric(float(corpora.train_frames), "count", 1)
    metrics["corpus.val_frames"] = Metric(float(corpora.val_frames), "count", 1)
    metrics["process.python_loop_ms"] = Metric(loop_ms, "ms", len(rounds) + 1)
    return metrics
