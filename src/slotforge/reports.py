"""Inspection reports: attention maps, box overlays, relevance tables."""

from __future__ import annotations

import csv
import json
from pathlib import Path

import numpy as np

from . import tensor as T
from . import pnm
from .config import ConfigError
from .losses import iou_matrix, match_frame, slot_relevance_labels
from .pipeline import Pipeline
from .train import Corpus
from .world import Episode


def inspect_report(pipeline: Pipeline, episode: Episode, frame_idx: int,
                   out_dir: str | Path, upscale: int = 8) -> dict:
    """Encode an episode up to `frame_idx`, then dump per-slot attention PGMs,
    predicted boxes, relevance scores, and relation attention summaries."""
    if not (0 <= frame_idx < len(episode.frames)):
        raise ConfigError(f"frame {frame_idx} outside episode of "
                          f"{len(episode.frames)} frames")
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    cfg = pipeline.cfg
    clip = Corpus([episode], cfg.patch_size).clip(0, 0, frame_idx + 1)

    with T.no_grad():
        for _, _, dense, slots, maps in pipeline.walk([clip]):
            pass
        record, targets = clip.frames[-1], clip.targets[-1]
        preds = pipeline.heads(slots)
        match = match_frame(preds.boxes.data, targets, cfg)
        scores, _ = pipeline.select(slots, pipeline.lang_filter(record.task))
        relation_attn = pipeline.relations.slot_attention_summary(
            dense, T.gather_rows(slots, scores.selected)) if cfg.relations_on else None

    grid = dense.grid_h
    for s in range(cfg.num_slots):
        column = maps.weights[:, s].reshape(grid, grid)
        peak = column.max()
        img = (column / peak * 255.0) if peak > 0 else column
        img = np.repeat(np.repeat(img, upscale, axis=0), upscale, axis=1)
        pnm.write_pgm(out_dir / f"slot_{s:02d}_attn.pgm", img)

    labels = slot_relevance_labels(match, targets.relevance, cfg.num_slots)
    gt_for_slot = dict(match.pairs)
    pairwise_iou = iou_matrix(preds.boxes.data, targets.boxes) \
        if targets.boxes.size else np.zeros((cfg.num_slots, 0))
    with open(out_dir / "slots.csv", "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["slot", "pi", "selected", "gt_relevance", "matched_instance",
                         "iou", "objectness", "cx", "cy", "w", "h"])
        for s in range(cfg.num_slots):
            matched = gt_for_slot.get(s)
            writer.writerow([
                s, f"{scores.scores[s]:.4f}", int(s in scores.selected),
                int(labels[s]),
                targets.instance_ids[matched] if matched is not None else "",
                f"{pairwise_iou[s, matched]:.4f}" if matched is not None else "",
                f"{preds.objectness.data[s, 0]:.4f}",
                *(f"{v:.4f}" for v in preds.boxes.data[s]),
            ])

    if relation_attn is not None:
        with open(out_dir / "relation_attention.csv", "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["relation_token"] + [f"slot_{i}" for i in scores.selected])
            for r in range(relation_attn.shape[0]):
                writer.writerow([r] + [f"{v:.4f}" for v in relation_attn[r]])

    summary = {
        "frame": frame_idx,
        "task": record.task,
        "selected_slots": scores.selected,
        "pi": [round(float(v), 6) for v in scores.scores],
        "matched": {str(s): targets.instance_ids[g] for s, g in match.pairs},
        "relation_tokens": 0 if relation_attn is None else int(relation_attn.shape[0]),
    }
    (out_dir / "report.json").write_text(json.dumps(summary, indent=2) + "\n")
    return summary
