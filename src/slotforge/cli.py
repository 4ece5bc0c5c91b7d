"""Command line surface: gen | train1 | train2 | eval | inspect | budget.

`gen` reads back what it wrote through the same check as `train1`, `train2`
and `inspect`, then prints the corpus statistics.

Exit codes: 0 success, 2 configuration error, 3 data error: an episode that
cannot be read or that `world.validate_episode` rejects, or a checkpoint that
is unreadable, corrupt or does not fit the model, 4 a run failed: a
non-finite value, or a stage-1 parameter that changed during stage 2. Each
error ends in one line on stderr. Exit 4's line says what failed: `training
failed:` from train1 and train2, `evaluation failed:` from eval, `inspection
failed:` from inspect; a non-finite value names the op that made it.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

import numpy as np

from .checkpoint import CheckpointError, load_checkpoint
from .config import SUBSET_PRESETS, ConfigError, load_config
from .optim import TrainingError
from .tensor import NonFiniteError
from .world import WorldError, dataset_statistics, generate_episode, serialize_episode

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_DATA = 3
EXIT_TRAINING = 4

FAILED = {"eval": "evaluation", "inspect": "inspection"}  # what exit 4 names, else training


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="slotforge",
        description="object/relation token pipeline on a synthetic desk world")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--config", type=Path, default=None,
                       help="flat key=value config file")
        p.add_argument("--override", action="append", default=[], metavar="K=V",
                       help="config override, repeatable")

    p = sub.add_parser("gen", help="generate synthetic episodes")
    common(p)
    p.add_argument("--subset", choices=list(SUBSET_PRESETS))
    p.add_argument("--episodes", type=int, default=20)
    p.add_argument("--out", type=Path, required=True)

    p = sub.add_parser("train1", help="train the slot encoder stack")
    common(p)
    p.add_argument("--data", type=Path, required=True)
    p.add_argument("--val", type=Path, default=None)
    p.add_argument("--out", type=Path, required=True)
    p.add_argument("--resume", type=Path, default=None)

    p = sub.add_parser("train2", help="behavior-clone the action decoder",
                       description="Behavior-clone the action decoder. Stage 2 always "
                       "starts from the --stage1 checkpoint and cannot resume.")
    common(p)
    p.add_argument("--data", type=Path, required=True)
    p.add_argument("--val", type=Path, default=None)
    p.add_argument("--stage1", type=Path, required=True)
    p.add_argument("--out", type=Path, required=True)

    p = sub.add_parser("eval", help="closed-loop rollout evaluation")
    common(p)
    p.add_argument("--stage1", type=Path, default=None, help="required unless --expert")
    p.add_argument("--stage2", type=Path, default=None, help="required unless --expert")
    p.add_argument("--rollouts", type=int, default=20)
    p.add_argument("--expert", action="store_true",
                   help="run the scripted expert instead of the policy; reads no checkpoint")
    p.add_argument("--out", type=Path, required=True)

    p = sub.add_parser("inspect", help="dump attention and relevance reports")
    common(p)
    p.add_argument("--stage1", type=Path, required=True)
    p.add_argument("--episode", type=Path, required=True)
    p.add_argument("--frame", type=int, default=0)
    p.add_argument("--out", type=Path, required=True)

    p = sub.add_parser("budget", help="token budget report")
    common(p)
    return parser


def _require_positive(name: str, value: int) -> None:
    if value < 1:
        raise ConfigError(f"{name} must be >= 1, got {value}")


def cmd_gen(args) -> int:
    from .train import load_corpus
    _require_positive("episodes", args.episodes)
    overrides = list(args.override)
    if args.subset:
        overrides.append(f"subset={args.subset}")
    cfg = load_config(args.config, overrides)
    world_cfg = cfg.world_config()
    for i in range(args.episodes):
        episode = generate_episode(cfg.seed + i, world_cfg)
        serialize_episode(episode, args.out)
    print(f"wrote {args.episodes} episodes to {args.out}")
    corpus = load_corpus(cfg, args.out, targets=False)
    for subset, row in dataset_statistics(corpus.episodes).items():
        print(f"{subset}: " + " ".join(f"{key}={value}" for key, value in row.items()))
    return EXIT_OK


def cmd_train1(args) -> int:
    from .train import train_stage1
    cfg = load_config(args.config, args.override)
    result = train_stage1(cfg, args.data, args.out, val_dir=args.val,
                          resume=args.resume)
    print(f"stage-1 finished after {result['steps']} steps; "
          f"checkpoint at {result['checkpoint']}")
    for row in result["history"]:
        print(f"  step {row['step']}: iou={row['iou']:.3f} auc={row['auc']:.3f}")
    return EXIT_OK


def cmd_train2(args) -> int:
    from .train import train_stage2
    cfg = load_config(args.config, args.override)
    result = train_stage2(cfg, args.stage1, args.data, args.out, val_dir=args.val)
    print(f"stage-2 finished after {result['steps']} steps; "
          f"checkpoint at {result['checkpoint']}")
    for row in result["history"]:
        print(f"  step {row['step']}: min_acc={row['min_acc']:.3f} "
              f"mean_acc={row['mean_acc']:.3f}")
    return EXIT_OK


def cmd_eval(args) -> int:
    from .evaluate import evaluate
    from .pipeline import Pipeline
    _require_positive("rollouts", args.rollouts)
    cfg = load_config(args.config, args.override)
    pipeline = None
    if not args.expert:
        if args.stage1 is None or args.stage2 is None:
            raise ConfigError("eval needs --stage1 and --stage2 unless --expert is given")
        pipeline = Pipeline(cfg)
        pipeline.stage1_params().load_state(load_checkpoint(args.stage1))
        pipeline.stage2_params().load_state(load_checkpoint(args.stage2))
    table = evaluate(pipeline, cfg, args.rollouts, out_dir=args.out)
    for row in table["rows"]:
        print(f"{row['task']}: {row['success']:.2f} over {row['rollouts']}")
    print(f"average: {table['average']:.3f} over {table['rollouts']} rollouts")
    return EXIT_OK


def cmd_inspect(args) -> int:
    from .pipeline import Pipeline
    from .reports import inspect_report
    from .train import check_episode
    from .world import load_episode
    cfg = load_config(args.config, args.override)
    pipeline = Pipeline(cfg)
    pipeline.stage1_params().load_state(load_checkpoint(args.stage1))
    episode = load_episode(args.episode)
    check_episode(cfg, episode, args.episode)
    summary = inspect_report(pipeline, episode, args.frame, args.out)
    print(f"task: {summary['task']}")
    print(f"selected slots: {summary['selected_slots']}")
    for s, pi in enumerate(summary["pi"]):
        matched = summary["matched"].get(str(s), "-")
        print(f"  slot {s:2d}: pi={pi:.4f} matched={matched}")
    return EXIT_OK


def cmd_budget(args) -> int:
    from .evaluate import budget_table
    print(budget_table(load_config(args.config, args.override)))
    return EXIT_OK


COMMANDS = {"gen": cmd_gen, "train1": cmd_train1, "train2": cmd_train2,
            "eval": cmd_eval, "inspect": cmd_inspect, "budget": cmd_budget}


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        out = getattr(args, "out", None)
        if out is not None:  # made by the command itself, so a failed run leaves none
            found = next(path for path in (out, *out.parents) if path.exists())
            if not found.is_dir():
                below = "" if found == out else f" is below {found}, which"
                raise ConfigError(f"--out {out}{below} exists and is not a directory")
        # a non-finite value raises NonFiniteError, which names its op, so
        # numpy's overflow warnings would only add lines before that one
        with np.errstate(all="ignore"):
            return COMMANDS[args.command](args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (WorldError, CheckpointError) as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except (NonFiniteError, TrainingError) as exc:
        print(f"{FAILED.get(args.command, 'training')} failed: {exc}", file=sys.stderr)
        return EXIT_TRAINING


if __name__ == "__main__":
    sys.exit(main())
