"""Flat key=value run configuration: subset presets, a file and overrides.

`RunConfig` is the one config. Losses read it as it is, and the world reads
`RunConfig.world_config()`, the fields the two share. `SUBSET_PRESETS` is the
one table of subset presets, keyed by field name; a preset field left unset
takes its subset's value when the `RunConfig` is built, so
`RunConfig(subset=s)` is the config `load_config` gives for that subset.
"""

from __future__ import annotations

import dataclasses
import hashlib
import math
from dataclasses import dataclass
from pathlib import Path

from .language import COLORS, SHAPES
from .world import WorldConfig

SUBSET_PRESETS = {
    # slots hold every object plus the robot; the pools are the colors and
    # shapes the objects are drawn from
    "goal": dict(min_objects=4, max_objects=7, num_layouts=1, color_pool=4,
                 shape_pool=2, num_slots=16, num_relations=16),
    "object": dict(min_objects=10, max_objects=12, num_layouts=1, color_pool=6,
                   shape_pool=2, num_slots=24, num_relations=24),
    "spatial": dict(min_objects=9, max_objects=11, num_layouts=10, color_pool=6,
                    shape_pool=2, num_slots=24, num_relations=24),
    "long": dict(min_objects=26, max_objects=29, num_layouts=9, color_pool=8,
                 shape_pool=4, num_slots=32, num_relations=24),
    # two objects, for behavior cloning
    "pair": dict(min_objects=2, max_objects=2, num_layouts=1, color_pool=4,
                 shape_pool=2, num_slots=16, num_relations=16),
}


class ConfigError(Exception):
    pass


@dataclass
class RunConfig:
    subset: str = "goal"
    image_size: int = 64
    patch_size: int = 8
    width: int = 64
    num_slots: int | None = None  # None here and below: the subset's preset
    num_selected: int = 4
    num_relations: int | None = None
    refine_steps: int = 3
    action_bins: int = 256
    heads: int = 4
    seed: int = 0
    stage1_iters: int = 3000
    batch_clips: int = 4
    clip_len: int = 3
    stage2_iters: int = 4000
    batch_frames: int = 16
    lr: float = 3e-4
    grad_clip: float = 10.0
    lambda_slot_attn: float = 1.0
    lambda_track: float = 0.5
    lambda_int: float = 1.0
    lambda_box: float = 1.0
    lambda_obj: float = 0.5
    lambda_seg: float = 1.0
    cost_l1: float = 5.0
    cost_giou: float = 2.0
    tau: float = 0.1
    w_pos: float = 2.0
    w_neg: float = 1.0
    track_window: int = 2
    track_projection: bool = True
    filter_on: bool = True
    carryover_on: bool = True
    relations_on: bool = True
    residual_mlp: bool = True
    min_objects: int | None = None
    max_objects: int | None = None
    num_layouts: int | None = None
    color_pool: int | None = None
    shape_pool: int | None = None
    idle_frames: int = 0
    noop_eps: float = 1e-3
    eval_every: int = 200
    rollout_horizon: int = 80
    target_iou: float = 0.5
    target_auc: float = 0.95
    target_acc: float = 0.70
    early_stop_margin: float = 0.02

    def __post_init__(self):
        for name, value in SUBSET_PRESETS.get(self.subset, {}).items():
            if getattr(self, name) is None:
                setattr(self, name, value)
        self.validate()

    def validate(self) -> None:
        if self.subset not in SUBSET_PRESETS:
            raise ConfigError(f"unknown subset {self.subset!r}")
        for name in ("width", "heads", "patch_size", "image_size", "batch_clips",
                     "batch_frames", "eval_every", "num_layouts", "rollout_horizon",
                     "num_relations", "refine_steps", "track_window"):
            if getattr(self, name) < 1:
                raise ConfigError(f"{name} must be >= 1, got {getattr(self, name)}")
        for name in ("idle_frames", "seed", "stage1_iters", "stage2_iters"):
            if getattr(self, name) < 0:
                raise ConfigError(f"{name} must be >= 0, got {getattr(self, name)}")
        for name in ("lr", "grad_clip"):
            if not 0 < getattr(self, name) < math.inf:
                raise ConfigError(f"{name} must be finite and > 0, got {getattr(self, name)}")
        if not (2 <= self.min_objects <= self.max_objects):
            # every scene holds at least a carried object and a target
            raise ConfigError(f"need 2 <= min_objects <= max_objects, got "
                              f"{self.min_objects} and {self.max_objects}")
        for name, pool in (("color_pool", COLORS), ("shape_pool", SHAPES)):
            if not (1 <= getattr(self, name) <= len(pool)):
                raise ConfigError(f"{name} must lie in [1, {len(pool)}], "
                                  f"got {getattr(self, name)}")
        if self.color_pool * self.shape_pool < self.max_objects:
            # every object in a scene is a distinct color/shape pair
            raise ConfigError(f"color_pool {self.color_pool} x shape_pool "
                              f"{self.shape_pool} cannot give max_objects "
                              f"{self.max_objects} distinct objects")
        if self.num_slots < self.max_objects + 1:
            raise ConfigError(f"num_slots {self.num_slots} cannot hold max_objects "
                              f"{self.max_objects} plus the robot")
        if not (1 <= self.num_selected <= self.num_slots):
            raise ConfigError(f"num_selected {self.num_selected} must lie in "
                              f"[1, num_slots={self.num_slots}]")
        if self.image_size % self.patch_size:
            raise ConfigError(f"image_size {self.image_size} not divisible by "
                              f"patch_size {self.patch_size}")
        if self.width % self.heads:
            raise ConfigError(f"width {self.width} not divisible by heads {self.heads}")
        if self.action_bins < 2:
            raise ConfigError(f"action_bins must be >= 2, got {self.action_bins}")
        if not self.noop_eps >= 0:
            raise ConfigError(f"noop_eps must be >= 0, got {self.noop_eps}")
        if not all(0 <= getattr(self, name) < math.inf for name in (
                "lambda_slot_attn", "lambda_track", "lambda_int", "lambda_box",
                "lambda_obj", "lambda_seg", "cost_l1", "cost_giou", "w_pos", "w_neg")):
            raise ConfigError("loss weights must be finite and non-negative")
        if not 0 < self.tau < math.inf:
            raise ConfigError(f"temperature must be positive, got {self.tau}")
        if self.clip_len < 2:
            raise ConfigError("clip_len must be >= 2 for the tracking loss")

    @property
    def object_tokens(self) -> int:
        """Object tokens a frame hands the decoder: the slots the task filter
        keeps, or every slot with the filter off."""
        return self.num_selected if self.filter_on else self.num_slots

    def world_config(self) -> WorldConfig:
        """The world's view of this run: the fields WorldConfig shares with it."""
        return WorldConfig(**{f.name: getattr(self, f.name)
                              for f in dataclasses.fields(WorldConfig)})

    def to_text(self) -> str:
        lines = [f"{f.name} = {_format_value(getattr(self, f.name))}"
                 for f in dataclasses.fields(self)]
        return "\n".join(lines) + "\n"

    def hash(self) -> str:
        return hashlib.sha256(self.to_text().encode()).hexdigest()[:16]


def _format_value(v) -> str:
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, float):
        return format(v, ".17g")
    return str(v)


def _coerce(name: str, raw: str, target_type: type):
    raw = raw.strip()
    if target_type is bool:
        low = raw.lower()
        if low in ("true", "1", "yes", "on"):
            return True
        if low in ("false", "0", "no", "off"):
            return False
        raise ConfigError(f"{name}: expected a boolean, got {raw!r}")
    try:
        if target_type is int:
            return int(raw)
        if target_type is float:
            return float(raw)
    except ValueError as exc:
        raise ConfigError(f"{name}: expected {target_type.__name__}, got {raw!r}") from exc
    return raw


def _field_types() -> dict[str, type]:
    return {name: type(value) for name, value in vars(RunConfig()).items()}


def _parse_pair(pair: str, types: dict[str, type], where: str,
                malformed: str) -> tuple[str, object]:
    """One `key = value` pair, its value coerced to the field's type; errors
    begin with `where`."""
    if "=" not in pair:
        raise ConfigError(malformed)
    key, raw = (part.strip() for part in pair.split("=", 1))
    if key not in types:
        raise ConfigError(f"{where}unknown config key {key!r}")
    return key, _coerce(key, raw, types[key])


def parse_config_text(text: str, source: str = "<config>") -> dict:
    types = _field_types()
    values: dict = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.split("#", 1)[0].strip()
        if stripped:
            where = f"{source}:{lineno}: "
            key, value = _parse_pair(stripped, types, where,
                                     f"{where}expected 'key = value', got {line!r}")
            values[key] = value
    return values


def parse_overrides(pairs: list[str]) -> dict:
    types = _field_types()
    return dict(_parse_pair(pair, types, "", f"override {pair!r} must look like key=value")
                for pair in pairs)


def load_config(path: str | Path | None = None,
                overrides: list[str] | None = None) -> RunConfig:
    """Defaults, then the file, then overrides; a preset field that neither
    sets takes its subset's value."""
    values: dict = {}
    if path is not None:
        path = Path(path)
        try:
            text = path.read_text()
        except (OSError, UnicodeDecodeError) as exc:
            raise ConfigError(f"config file {path} cannot be read: {exc}") from None
        values.update(parse_config_text(text, str(path)))
    if overrides:
        values.update(parse_overrides(overrides))
    return RunConfig(**values)
