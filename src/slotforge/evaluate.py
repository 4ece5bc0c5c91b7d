"""Closed-loop rollout evaluation and the token budget report.

A rollout is one loop over a stream of actions: the policy's
(`policy_actions`, one greedy `policy_step` per frame) or the scripted
expert's (`world.expert_actions`, the same script that writes every corpus
episode). The loop steps the world with each action and stops at the
horizon, or once the carried sprite lies on the target and is released.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from itertools import islice
from pathlib import Path
from typing import Iterator

import numpy as np

from .config import RunConfig
from .pipeline import Pipeline
from .world import World, expert_actions


@dataclass
class RolloutResult:
    seed: int
    task: str
    success: bool
    steps: int


def policy_actions(pipeline: Pipeline, world: World, seed: int) -> Iterator[np.ndarray]:
    """The policy's greedy action for each frame of `world`, with its slots
    carried over from frame to frame when `cfg.carryover_on` is set; each pull
    is one `policy_step`."""
    carry, slots = pipeline.cfg.carryover_on, None
    while True:
        rgb, _ = world.render()
        action, slots = pipeline.policy_step(rgb, world.proprio(), world.task, slots,
                                             episode_key=seed, t=world.t)
        slots = slots if carry else None
        yield action


def run_rollout(pipeline: Pipeline | None, cfg: RunConfig, seed: int) -> RolloutResult:
    """One closed-loop episode of the policy, or of the scripted expert when
    `pipeline` is None: one loop that takes the controller's actions in turn.
    It ends once the object is placed and released, when the expert's script
    runs out, or at the horizon; no action is pulled after the last step."""
    world = World(cfg.world_config(), seed)
    actions = expert_actions(world) if pipeline is None else policy_actions(pipeline, world, seed)
    steps = 0
    for steps, action in enumerate(islice(actions, cfg.rollout_horizon), start=1):
        world.step(action)
        if world.success() and not world.carrying:
            break
    return RolloutResult(seed=seed, task=world.task,
                         success=world.success(), steps=steps)


def evaluate(pipeline: Pipeline | None, cfg: RunConfig, n_rollouts: int,
             base_seed: int | None = None, out_dir: str | Path | None = None) -> dict:
    """Success over seeded rollouts of the policy, or of the scripted expert
    when `pipeline` is None, grouped per task string like a results table row
    set: one row per task plus the average."""
    if n_rollouts < 1:
        raise ValueError(f"n_rollouts must be >= 1, got {n_rollouts}")
    base = cfg.seed * 100003 + 50021 if base_seed is None else base_seed
    results = [run_rollout(pipeline, cfg, base + i) for i in range(n_rollouts)]
    by_task: dict[str, list[RolloutResult]] = {}
    for r in results:
        by_task.setdefault(r.task, []).append(r)
    rows = [{"task": task, "rollouts": len(rs),
             "success": sum(r.success for r in rs) / len(rs)}
            for task, rs in sorted(by_task.items())]
    average = sum(r.success for r in results) / len(results)
    table = {"rows": rows, "average": average, "rollouts": len(results)}
    if out_dir is not None:
        out_dir = Path(out_dir)
        out_dir.mkdir(parents=True, exist_ok=True)
        with open(out_dir / "success.csv", "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["task", "rollouts", "success"])
            for row in rows:
                writer.writerow([row["task"], row["rollouts"], f"{row['success']:.3f}"])
            writer.writerow(["average", len(results), f"{average:.3f}"])
    return table


def _ratio_string(dense: int, tokens: int) -> tuple[float, str]:
    ratio = dense / tokens
    return ratio, f"{int(np.floor(ratio + 0.5))}×"


def token_budget_report(cfg: RunConfig) -> dict:
    """Token counts and reduction ratios for the configured run and for the
    256-dense-token reference setting. The configured rows count the object
    tokens a frame hands the decoder, plus the relation tokens when relations
    are on. Printed ratios round half-up to the nearest integer."""
    rows = []
    for label, dense, tokens in (
        ("reference-goal OC", 256, 4),
        ("reference-goal ORC", 256, 4 + 16),
        ("reference-other OC", 256, 4),
        ("reference-other ORC", 256, 4 + 24),
    ):
        ratio, printed = _ratio_string(dense, tokens)
        rows.append({"setting": label, "dense": dense, "tokens": tokens,
                     "ratio": ratio, "printed": printed})
    dense = (cfg.image_size // cfg.patch_size) ** 2
    oc = cfg.object_tokens
    orc = oc + (cfg.num_relations if cfg.relations_on else 0)
    for label, tokens in (("configured OC", oc), ("configured ORC", orc)):
        ratio, printed = _ratio_string(dense, tokens)
        rows.append({"setting": label, "dense": dense, "tokens": tokens,
                     "ratio": ratio, "printed": printed})
    return {"rows": rows}


def format_budget_table(report: dict) -> str:
    lines = [f"{'setting':24} {'tokens':>6} {'dense':>6} {'ratio':>8}  printed"]
    for row in report["rows"]:
        lines.append(f"{row['setting']:24} {row['tokens']:>6} {row['dense']:>6} "
                     f"{row['ratio']:>8.3f}  {row['printed']}")
    return "\n".join(lines)
