"""Closed-loop rollout evaluation and the token budget report."""

from __future__ import annotations

import csv
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .config import RunConfig
from .pipeline import Pipeline
from .world import ScriptedExpert, World


@dataclass
class RolloutResult:
    seed: int
    task: str
    success: bool
    steps: int


def run_rollout(pipeline: Pipeline | None, cfg: RunConfig, seed: int,
                expert: bool = False) -> RolloutResult:
    """One closed-loop episode; ends early once the object is placed and
    released, otherwise runs to the horizon. The expert needs no pipeline."""
    world = World(cfg.world_config(), seed)
    controller = ScriptedExpert(world) if expert else None
    slots = None
    steps = 0
    for t in range(cfg.rollout_horizon):
        if expert:
            if controller.done():
                break
            action = controller.action()
        else:
            rgb, _ = world.render()
            action, slots = pipeline.policy_step(rgb, world.proprio(), world.task, slots,
                                                 episode_key=seed, t=t)
        world.step(action)
        steps = t + 1
        if world.success() and not world.carrying:
            break
    return RolloutResult(seed=seed, task=world.task,
                         success=world.success(), steps=steps)


def evaluate(pipeline: Pipeline | None, cfg: RunConfig, n_rollouts: int,
             base_seed: int | None = None, expert: bool = False,
             out_dir: str | Path | None = None) -> dict:
    """Success over seeded rollouts, grouped per task string like a results
    table row set: one row per task plus the average."""
    if n_rollouts < 1:
        raise ValueError(f"n_rollouts must be >= 1, got {n_rollouts}")
    base = cfg.seed * 100003 + 50021 if base_seed is None else base_seed
    results = [run_rollout(pipeline, cfg, base + i, expert=expert)
               for i in range(n_rollouts)]
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
    256-dense-token reference setting. Printed ratios round half-up to the
    nearest integer."""
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
    oc = cfg.num_selected
    orc = cfg.num_selected + cfg.num_relations
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
