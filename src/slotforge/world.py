"""Deterministic 2-D sprite manipulation world with full annotations.

Every episode is a scripted pick-and-place: the gripper approaches one
sprite, grasps it, carries it onto a larger target sprite, and releases.
Frames come with an instance map (0 for background, i + 1 for instance i;
painter's order gives each pixel one owner), mask-tight boxes, stable
instance ids, task-relevance flags derived from the templated task string,
proprioception, and the executed action. Identical seeds reproduce episodes
bitwise.

Sprite sizes are tiered (robot < carried < distractor < target) so a moving
sprite can never fully occlude another: visible masks stay non-empty and
mask-tight boxes stay well defined under overlap.

A `WorldConfig` is the world's view of a run, built only by
`RunConfig.world_config()`; subset presets live in `config.SUBSET_PRESETS`
and apply when the `RunConfig` is built.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import pnm
from .decoder import action_to_bins, bin_centers, snap_action
from .language import COLORS, SHAPES, UnknownWordError, tokenize

BACKGROUND_RGB = (28, 28, 32)
ROBOT_RGB = (245, 245, 245)

COLOR_VALUES = {
    "red": (220, 40, 40), "green": (40, 180, 70), "blue": (60, 90, 220),
    "yellow": (235, 210, 50), "magenta": (200, 60, 200), "cyan": (60, 200, 200),
    "orange": (240, 150, 40), "purple": (130, 60, 210),
}


class WorldError(Exception):
    pass


class InfeasibleSceneError(WorldError):
    pass


class AllNoOpsError(WorldError):
    pass


class EpisodeParseError(WorldError):
    pass


MAX_STEP = 3.0        # gripper travel per unit action, in pixels
GRASP_RADIUS = 3.5    # a closing gripper this near the carried sprite grasps it
ARRIVE_EPS = 0.5      # the expert has arrived within this many pixels per axis
MAX_FRAMES = 200      # a scripted episode longer than this is an error


@dataclass
class WorldConfig:
    """The `RunConfig` fields the world reads, under the same names."""

    subset: str
    image_size: int
    min_objects: int
    max_objects: int
    num_layouts: int
    color_pool: int
    shape_pool: int
    noop_eps: float
    action_bins: int
    idle_frames: int

    def size_tier(self) -> tuple[int, int, int, int]:
        """(robot, carried, distractor, target) pixel sizes."""
        if self.max_objects <= 8:
            return 5, 8, 10, 13
        if self.max_objects <= 14:
            return 4, 6, 8, 12
        return 3, 5, 7, 12


@dataclass
class Sprite:
    instance_id: str
    noun: str
    shape: str
    color: tuple[int, int, int]
    size: int
    role: str  # robot | carried | target | distractor


@dataclass
class InstanceRecord:
    instance_id: str
    box: np.ndarray        # cxcywh normalized
    relevant: bool


@dataclass
class FrameRecord:
    t: int
    task: str
    action: np.ndarray     # 7 floats in [-1,1]
    proprio: np.ndarray    # gripper x, y, spare, open/close
    instances: list[InstanceRecord]
    rgb: np.ndarray        # HxWx3 float in [0,1], exact multiples of 1/255
    instance_map: np.ndarray  # uint8 HxW: 0 background, i + 1 for instances[i]


@dataclass
class Episode:
    frames: list[FrameRecord]
    subset: str
    seed: int
    layout_id: int
    carried_id: str
    target_id: str


def _footprint(shape: str, size: int) -> np.ndarray:
    ys, xs = np.mgrid[0:size, 0:size]
    cx = cy = size / 2.0
    dx = xs + 0.5 - cx
    dy = ys + 0.5 - cy
    if shape in ("square", "robot"):
        return np.ones((size, size), dtype=bool)
    if shape == "circle":
        return dx * dx + dy * dy <= (size / 2.0) ** 2
    if shape == "triangle":
        half_width = (ys + 1) * (size / 2.0) / size
        return np.abs(dx) <= half_width
    if shape == "diamond":
        return np.abs(dx) + np.abs(dy) <= size / 2.0
    raise WorldError(f"unknown shape {shape!r}")


_FOOTPRINTS: dict[tuple[str, int], np.ndarray] = {}


def footprint(shape: str, size: int) -> np.ndarray:
    key = (shape, size)
    if key not in _FOOTPRINTS:
        _FOOTPRINTS[key] = _footprint(shape, size)
    return _FOOTPRINTS[key]


def _sample_scene(cfg: WorldConfig, seed: int) -> tuple[list[Sprite], dict[str, np.ndarray], int]:
    """Sprites, initial positions, and layout id for one episode seed."""
    episode_rng = np.random.default_rng(np.random.SeedSequence([1001, seed]))
    layout_id = seed % cfg.num_layouts
    n_objects = int(episode_rng.integers(cfg.min_objects, cfg.max_objects + 1))
    layout_rng = np.random.default_rng(np.random.SeedSequence([2002, layout_id, n_objects]))

    pool = [(c, s) for c in COLORS[:cfg.color_pool] for s in SHAPES[:cfg.shape_pool]]
    if n_objects > len(pool):
        raise InfeasibleSceneError(
            f"{n_objects} objects exceed the {len(pool)} distinct color/shape combos")
    picks = episode_rng.choice(len(pool), size=n_objects, replace=False)
    robot_size, carried_size, distractor_size, target_size = cfg.size_tier()

    sprites: list[Sprite] = []
    shape_counts: dict[str, int] = {}
    for rank, pick in enumerate(picks):
        color_name, shape = pool[pick]
        role = "carried" if rank == 0 else ("target" if rank == 1 else "distractor")
        size = {"carried": carried_size, "target": target_size,
                "distractor": distractor_size}[role]
        shape_counts[shape] = shape_counts.get(shape, 0) + 1
        sprites.append(Sprite(
            instance_id=f"{shape}{shape_counts[shape]}",
            noun=f"{color_name} {shape}",
            shape=shape, color=COLOR_VALUES[color_name], size=size, role=role))
    sprites.append(Sprite(instance_id="robot1", noun="robot", shape="robot",
                          color=ROBOT_RGB, size=robot_size, role="robot"))

    if cfg.max_objects > 14:
        positions = _grid_place(cfg, sprites, layout_rng)
    else:
        positions = _rejection_place(cfg, sprites, layout_rng)
        jitter = episode_rng.uniform(-1.0, 1.0, size=(len(sprites), 2))
        for sprite, dj in zip(sprites, jitter):
            half = sprite.size / 2.0 + 1
            positions[sprite.instance_id] = np.clip(
                positions[sprite.instance_id] + dj, half, cfg.image_size - 1 - half)
    return sprites, positions, layout_id


def _rejection_place(cfg: WorldConfig, sprites: list[Sprite],
                     rng: np.random.Generator) -> dict[str, np.ndarray]:
    margin = 2.0
    placed: list[tuple[np.ndarray, float]] = []
    positions: dict[str, np.ndarray] = {}
    for sprite in sorted(sprites, key=lambda s: -s.size):
        half = sprite.size / 2.0
        lo, hi = half + 2.0, cfg.image_size - 1 - half - 2.0
        for _ in range(100):
            pos = rng.uniform(lo, hi, size=2)
            if all(np.max(np.abs(pos - other)) >= half + other_half + margin
                   for other, other_half in placed):
                placed.append((pos, half))
                positions[sprite.instance_id] = pos
                break
        else:
            raise InfeasibleSceneError(
                f"could not place {sprite.instance_id} after 100 attempts")
    return positions


def _grid_place(cfg: WorldConfig, sprites: list[Sprite],
                rng: np.random.Generator) -> dict[str, np.ndarray]:
    """Cell-aligned placement for crowded scenes; the target takes a 2x2 block."""
    cell = 8
    n_cells = cfg.image_size // cell
    target = next(s for s in sprites if s.role == "target")
    block_r = int(rng.integers(0, n_cells - 1))
    block_c = int(rng.integers(0, n_cells - 1))
    block = {(block_r + dr, block_c + dc) for dr in (0, 1) for dc in (0, 1)}
    free = [(r, c) for r in range(n_cells) for c in range(n_cells) if (r, c) not in block]
    others = [s for s in sprites if s.role != "target"]
    if len(others) > len(free):
        raise InfeasibleSceneError(f"{len(others)} sprites exceed {len(free)} grid cells")
    order = rng.permutation(len(free))
    positions = {target.instance_id: np.array([(block_c + 1) * cell, (block_r + 1) * cell],
                                              dtype=np.float64)}
    for sprite, slot in zip(others, order):
        r, c = free[slot]
        positions[sprite.instance_id] = np.array([c * cell + cell / 2, r * cell + cell / 2],
                                                 dtype=np.float64)
    return positions


def relevant_nouns(task: str) -> set[str]:
    """Noun phrases mentioned in a task string: 'robot' and color-shape pairs."""
    words = task.split()
    nouns = {"robot"} if "robot" in words else set()
    for a, b in zip(words, words[1:]):
        if a in COLORS and b in SHAPES:
            nouns.add(f"{a} {b}")
    return nouns


class World:
    """Closed-loop simulator for one sampled scene."""

    def __init__(self, cfg: WorldConfig, seed: int):
        self.cfg = cfg
        self.seed = seed
        self.sprites, self.positions, self.layout_id = _sample_scene(cfg, seed)
        self.carried_sprite = next(s for s in self.sprites if s.role == "carried")
        self.target_sprite = next(s for s in self.sprites if s.role == "target")
        self.robot = next(s for s in self.sprites if s.role == "robot")
        self.task = (f"robot put the {self.carried_sprite.noun} "
                     f"on the {self.target_sprite.noun}")
        self.gripper_closed = False
        self.carrying = False
        self.t = 0
        # draw order: static sprites first, then the carried object, robot on top
        indexed = list(enumerate(self.sprites))
        self._draw_order = ([(i, s) for i, s in indexed if s.role in ("distractor", "target")]
                            + [(i, s) for i, s in indexed if s.role == "carried"]
                            + [(i, s) for i, s in indexed if s.role == "robot"])
        # covers every spawnable goal position; sprites may clip at the border
        # but can never leave the frame entirely
        self._clamp_lo = 2.0
        self._clamp_hi = cfg.image_size - 3.0

    def gripper_pos(self) -> np.ndarray:
        return self.positions[self.robot.instance_id]

    def proprio(self) -> np.ndarray:
        pos = self.gripper_pos()
        s = self.cfg.image_size
        return np.array([pos[0] / s, pos[1] / s, 0.0,
                         1.0 if self.gripper_closed else -1.0])

    def step(self, action: np.ndarray) -> None:
        action = np.asarray(action, dtype=np.float64)
        if action.shape != (7,):
            raise WorldError(f"action must have 7 dims, got shape {action.shape}")
        if np.abs(action).max() > 1.0 + 1e-12:
            raise WorldError("action values outside [-1, 1]")
        delta = action[:2] * MAX_STEP
        new_pos = np.clip(self.gripper_pos() + delta, self._clamp_lo, self._clamp_hi)
        self.positions[self.robot.instance_id] = new_pos
        if self.carrying:
            self.positions[self.carried_sprite.instance_id] = new_pos.copy()
        self.gripper_closed = action[6] > 0
        if self.gripper_closed and not self.carrying:
            gap = np.linalg.norm(
                self.positions[self.carried_sprite.instance_id] - new_pos)
            if gap <= GRASP_RADIUS:
                self.carrying = True
                self.positions[self.carried_sprite.instance_id] = new_pos.copy()
        elif not self.gripper_closed:
            self.carrying = False
        self.t += 1

    def ownership(self) -> np.ndarray:
        """Per-pixel owning sprite index (painter's order), -1 for background."""
        s = self.cfg.image_size
        owner = np.full((s, s), -1, dtype=np.int16)
        for idx, sprite in self._draw_order:
            pos = self.positions[sprite.instance_id]
            size = sprite.size
            x0 = int(round(pos[0] - size / 2.0))
            y0 = int(round(pos[1] - size / 2.0))
            stamp = footprint(sprite.shape, size)
            sx0, sy0 = max(0, -x0), max(0, -y0)
            x0c, y0c = max(0, x0), max(0, y0)
            x1c, y1c = min(s, x0 + size), min(s, y0 + size)
            if x1c <= x0c or y1c <= y0c:
                continue
            view = stamp[sy0:sy0 + (y1c - y0c), sx0:sx0 + (x1c - x0c)]
            region = owner[y0c:y1c, x0c:x1c]
            region[view] = idx
        return owner

    def render(self) -> tuple[np.ndarray, np.ndarray]:
        owner = self.ownership()
        s = self.cfg.image_size
        rgb = np.empty((s, s, 3), dtype=np.uint8)
        rgb[...] = BACKGROUND_RGB
        for idx, sprite in enumerate(self.sprites):
            rgb[owner == idx] = sprite.color
        return rgb.astype(np.float64) / 255.0, owner

    def annotate(self, action: np.ndarray) -> FrameRecord:
        rgb, owner = self.render()
        nouns = relevant_nouns(self.task)
        instances = []
        for idx, sprite in enumerate(self.sprites):
            mask = owner == idx
            if not mask.any():
                raise WorldError(
                    f"instance {sprite.instance_id} fully occluded at t={self.t}")
            ys, xs = np.nonzero(mask)
            s = self.cfg.image_size
            box = np.array([
                (xs.min() + xs.max() + 1) / 2.0 / s,
                (ys.min() + ys.max() + 1) / 2.0 / s,
                (xs.max() - xs.min() + 1) / s,
                (ys.max() - ys.min() + 1) / s,
            ])
            instances.append(InstanceRecord(
                instance_id=sprite.instance_id, box=box,
                relevant=sprite.noun in nouns))
        return FrameRecord(t=self.t, task=self.task,
                           action=np.asarray(action, dtype=np.float64),
                           proprio=self.proprio(), instances=instances, rgb=rgb,
                           instance_map=(owner + 1).astype(np.uint8))

    def success(self) -> bool:
        """Carried sprite center inside the target sprite's extent."""
        carried = self.positions[self.carried_sprite.instance_id]
        target = self.positions[self.target_sprite.instance_id]
        half = self.target_sprite.size / 2.0
        return bool(np.all(np.abs(carried - target) <= half))


class ScriptedExpert:
    """Deterministic pick-and-place controller emitting bin-centered actions."""

    def __init__(self, world: World):
        self.world = world
        self.phase = "approach"
        self.idle_remaining = 0
        self.retreat_remaining = 0

    def done(self) -> bool:
        return self.phase == "done"

    def _move_action(self, target: np.ndarray, gripper: float) -> np.ndarray:
        bins = self.world.cfg.action_bins
        delta = np.clip(target - self.world.gripper_pos(), -MAX_STEP, MAX_STEP)
        action = np.zeros(7)
        action[0] = snap_action(delta[0] / MAX_STEP, bins)
        action[1] = snap_action(delta[1] / MAX_STEP, bins)
        action[6] = gripper  # recorded exactly as -1 or +1
        return action

    def _arrived(self, target: np.ndarray) -> bool:
        return bool(np.all(np.abs(target - self.world.gripper_pos())
                           < ARRIVE_EPS))

    def action(self) -> np.ndarray:
        world = self.world
        hold_closed, hold_open = 1.0, -1.0
        if self.phase == "approach":
            target = world.positions[world.carried_sprite.instance_id]
            if self._arrived(target):
                self.phase = "grasp"
            else:
                return self._move_action(target, -1.0)
        if self.phase == "grasp":
            self.phase = "carry"
            self.idle_remaining = world.cfg.idle_frames
            action = np.zeros(7)
            action[6] = hold_closed
            return action
        if self.phase == "carry":
            if self.idle_remaining > 0:
                self.idle_remaining -= 1
                action = np.zeros(7)
                action[6] = hold_closed
                return action
            target = world.positions[world.target_sprite.instance_id]
            if self._arrived(target):
                self.phase = "release"
            else:
                return self._move_action(target, 1.0)
        if self.phase == "release":
            self.phase = "retreat"
            self.retreat_remaining = 2
            action = np.zeros(7)
            action[6] = hold_open
            return action
        if self.phase == "retreat":
            self.retreat_remaining -= 1
            if self.retreat_remaining <= 0:
                self.phase = "done"
            away = np.sign(world.gripper_pos()
                           - world.positions[world.target_sprite.instance_id])
            away[away == 0] = 1.0
            target = world.gripper_pos() + away * MAX_STEP
            return self._move_action(target, -1.0)
        raise WorldError(f"expert queried in phase {self.phase!r}")


def filter_noops(actions: list[np.ndarray], eps: float,
                 initial_gripper: float = -1.0) -> list[int]:
    """Indices of frames that move or change the gripper state, in order."""
    if eps < 0:
        raise ValueError(f"no-op threshold must be >= 0, got {eps}")
    keep = []
    state = initial_gripper > 0
    for i, action in enumerate(actions):
        action = np.asarray(action)
        new_state = action[6] > 0
        if np.abs(action[:6]).max() >= eps or new_state != state:
            keep.append(i)
        state = new_state
    if not keep:
        raise AllNoOpsError("episode rejected: every frame is a no-op")
    return keep


def generate_episode(seed: int, cfg: WorldConfig) -> Episode:
    """Run the scripted expert in a fresh world; same seed, same bytes."""
    world = World(cfg, seed)
    expert = ScriptedExpert(world)
    frames: list[FrameRecord] = []
    while not expert.done():
        if len(frames) >= MAX_FRAMES:
            raise WorldError(f"episode {seed} exceeded {MAX_FRAMES} frames")
        action = expert.action()
        frames.append(world.annotate(action))
        world.step(action)
    if not world.success():
        raise WorldError(f"scripted episode {seed} failed its own task")
    frames = [frames[i] for i in filter_noops([f.action for f in frames], cfg.noop_eps)]
    if len(frames) < 2:
        raise WorldError(f"episode {seed} shorter than 2 frames after filtering")
    for new_t, frame in enumerate(frames):
        frame.t = new_t
    return Episode(frames=frames, subset=cfg.subset, seed=seed,
                   layout_id=world.layout_id,
                   carried_id=world.carried_sprite.instance_id,
                   target_id=world.target_sprite.instance_id)


# ---------------------------------------------------------------------------
# serialization: one jsonl per episode; each frame has a PPM image and a PGM
# instance map beside it, so an episode is 2 files per frame plus 2


def _fmt(x: float) -> str:
    return format(float(x), ".17g")


def _fmt_list(values) -> str:
    return "[" + ",".join(_fmt(v) for v in values) + "]"


def episode_stem(seed: int) -> str:
    return f"ep_{seed:06d}"


def serialize_episode(episode: Episode, out_dir: str | Path) -> Path:
    out_dir = Path(out_dir)
    stem = episode_stem(episode.seed)
    sidecar = out_dir / stem
    sidecar.mkdir(parents=True, exist_ok=True)
    lines = []
    for frame in episode.frames:
        frame_file = f"{stem}/t{frame.t:03d}_rgb.ppm"
        map_file = f"{stem}/t{frame.t:03d}_map.pgm"
        pnm.write_ppm(out_dir / frame_file,
                      np.round(frame.rgb * 255.0).astype(np.uint8))
        pnm.write_pgm(out_dir / map_file, frame.instance_map)
        inst_parts = [
            '{"id":%s,"box":%s,"relevant":%s}' % (
                json.dumps(inst.instance_id), _fmt_list(inst.box),
                "true" if inst.relevant else "false")
            for inst in frame.instances]
        lines.append(
            '{"t":%d,"task":%s,"action":%s,"proprio":%s,"frame_file":%s,"map_file":%s,'
            '"instances":[%s]}'
            % (frame.t, json.dumps(frame.task), _fmt_list(frame.action),
               _fmt_list(frame.proprio), json.dumps(frame_file), json.dumps(map_file),
               ",".join(inst_parts)))
    path = out_dir / f"{stem}.jsonl"
    path.write_text("\n".join(lines) + "\n")
    meta = {"subset": episode.subset, "seed": episode.seed,
            "layout_id": episode.layout_id, "carried_id": episode.carried_id,
            "target_id": episode.target_id}
    (out_dir / f"{stem}.meta.json").write_text(json.dumps(meta))
    return path


def check_frame_size(episode: Episode, image_size: int) -> None:
    """A frame that is not image_size x image_size is a data error."""
    for record in episode.frames:
        h, w = record.rgb.shape[:2]
        if (h, w) != (image_size, image_size):
            raise WorldError(f"frame t={record.t} is {h}x{w}, not image_size {image_size}")


def _numbers(values, n: int, what: str, where: str) -> np.ndarray:
    """A JSON list of exactly n numbers as float64; anything else is a data error."""
    if not (isinstance(values, list) and len(values) == n
            and all(type(v) in (int, float) for v in values)):
        raise EpisodeParseError(f"{where}: malformed record: {what} is not {n} numbers")
    return np.asarray(values, dtype=np.float64)


def _task(task, where: str) -> str:
    """A task string of vocabulary words; anything else is a data error."""
    if not isinstance(task, str):
        raise EpisodeParseError(f"{where}: malformed record: task is not a string")
    try:
        tokenize(task)
    except UnknownWordError as exc:
        raise EpisodeParseError(f"{where}: malformed record: task {task!r}: {exc}") from exc
    return task


def load_episode(path: str | Path) -> Episode:
    path = Path(path)
    base = path.parent
    try:
        text = path.read_text()
    except OSError as exc:
        raise EpisodeParseError(f"{path}: cannot read episode: {exc.strerror}") from exc
    except UnicodeDecodeError as exc:
        raise EpisodeParseError(f"{path}: not a text episode file: {exc.reason}") from exc
    frames: list[FrameRecord] = []
    for lineno, line in enumerate(text.splitlines(), start=1):
        if not line.strip():
            continue
        where = f"{path}:{lineno}"
        try:
            rec = json.loads(line)
        except json.JSONDecodeError as exc:
            raise EpisodeParseError(f"{where}: malformed record: {exc}") from exc
        if not isinstance(rec, dict):
            raise EpisodeParseError(f"{where}: malformed record: not a JSON object")
        if "map_file" not in rec:
            raise EpisodeParseError(
                f"{where}: record names no instance map (an older corpus layout); "
                "regenerate the corpus with `slotforge gen`")
        try:
            if type(rec["t"]) is not int:
                raise EpisodeParseError(f"{where}: malformed record: t is not an integer")
            if not (isinstance(rec["instances"], list) and rec["instances"]
                    and all(isinstance(inst, dict) for inst in rec["instances"])):
                raise EpisodeParseError(
                    f"{where}: malformed record: instances is not a non-empty list of objects")
            task = _task(rec["task"], where)
            rgb = pnm.read_ppm(base / rec["frame_file"]).astype(np.float64) / 255.0
            instances = [
                InstanceRecord(
                    instance_id=inst["id"],
                    box=_numbers(inst["box"], 4, "box", where),
                    relevant=bool(inst["relevant"]),
                )
                for inst in rec["instances"]
            ]
            instance_map = pnm.read_pgm(base / rec["map_file"])
            frames.append(FrameRecord(
                t=rec["t"], task=task,
                action=_numbers(rec["action"], 7, "action", where),
                proprio=_numbers(rec["proprio"], 4, "proprio", where),
                instances=instances, rgb=rgb, instance_map=instance_map))
        except KeyError as exc:
            raise EpisodeParseError(f"{where}: missing field {exc}") from exc
        except (OSError, pnm.PnmError) as exc:
            raise EpisodeParseError(f"{where}: cannot read frame: {exc}") from exc
        if instance_map.shape != rgb.shape[:2]:
            raise EpisodeParseError(
                f"{where}: instance map is {instance_map.shape[0]}x{instance_map.shape[1]}, "
                f"frame is {rgb.shape[0]}x{rgb.shape[1]}")
        if instance_map.max() > len(instances):
            raise EpisodeParseError(
                f"{where}: instance map value {instance_map.max()} exceeds the record's "
                f"{len(instances)} instances")
    if not frames:
        raise EpisodeParseError(f"{path}: no frame records")
    meta_path = base / (path.stem + ".meta.json")
    try:
        meta = json.loads(meta_path.read_text()) if meta_path.exists() else {}
        if not isinstance(meta, dict):
            raise ValueError("not a JSON object")
        seed, layout_id = int(meta.get("seed", -1)), int(meta.get("layout_id", -1))
    except (OSError, ValueError, TypeError) as exc:
        raise EpisodeParseError(f"{meta_path}: malformed metadata: {exc}") from exc
    return Episode(frames=frames, subset=meta.get("subset", "unknown"),
                   seed=seed, layout_id=layout_id,
                   carried_id=meta.get("carried_id", ""),
                   target_id=meta.get("target_id", ""))


def episode_files(data_dir: str | Path) -> list[Path]:
    return sorted(Path(data_dir).glob("ep_*.jsonl"))


# ---------------------------------------------------------------------------
# validation and statistics


def validate_episode(episode: Episode, noop_eps: float) -> list[str]:
    """Errors of one episode; `noop_eps` is the run's `RunConfig.noop_eps`."""
    errors: list[str] = []
    first_ids = [inst.instance_id for inst in episode.frames[0].instances]
    if len(episode.frames) < 2:
        errors.append("episode shorter than 2 frames")
    for frame_idx, frame in enumerate(episode.frames):
        ids = [inst.instance_id for inst in frame.instances]
        if ids != first_ids:
            errors.append(f"t={frame.t}: instance ids changed: {ids} != {first_ids}")
        nouns = relevant_nouns(frame.task)
        for i, inst in enumerate(frame.instances):
            mask = frame.instance_map == i + 1
            if not mask.any():
                errors.append(f"t={frame.t}: {inst.instance_id} has an empty mask")
                continue
            ys, xs = np.nonzero(mask)
            size = frame.rgb.shape[0]
            box_px = np.array([inst.box[0] * size - inst.box[2] * size / 2,
                               inst.box[1] * size - inst.box[3] * size / 2,
                               inst.box[0] * size + inst.box[2] * size / 2,
                               inst.box[1] * size + inst.box[3] * size / 2])
            tight = np.array([xs.min(), ys.min(), xs.max() + 1, ys.max() + 1])
            if np.abs(box_px - tight).max() > 1.0:
                errors.append(f"t={frame.t}: {inst.instance_id} box deviates "
                              f"{np.abs(box_px - tight).max():.2f}px from its mask")
            if inst.box[2] <= 0 or inst.box[3] <= 0:
                errors.append(f"t={frame.t}: {inst.instance_id} degenerate box")
            expected = _noun_for_instance(inst.instance_id, frame.rgb[ys[0], xs[0]]) in nouns
            if bool(inst.relevant) != expected:
                errors.append(f"t={frame.t}: {inst.instance_id} relevance flag "
                              f"{inst.relevant} contradicts task string")
        if frame.action.shape != (7,) or np.abs(frame.action).max() > 1.0:
            errors.append(f"t={frame.t}: invalid action vector")
        if frame.t != frame_idx:
            errors.append(f"frame index {frame.t} not contiguous")
    try:
        kept = filter_noops([f.action for f in episode.frames], noop_eps)
        if kept != list(range(len(episode.frames))):
            dropped = sorted(set(range(len(episode.frames))) - set(kept))
            errors.append(f"no-op frames present at {dropped}")
    except AllNoOpsError:
        errors.append("all frames are no-ops")
    return errors


def _noun_for_instance(instance_id: str, pixel: np.ndarray) -> str:
    """Recover the noun phrase for an instance from its id and one of its pixels."""
    if instance_id.startswith("robot"):
        return "robot"
    shape = instance_id.rstrip("0123456789")
    rgb255 = np.round(pixel * 255.0).astype(int)
    for name, value in COLOR_VALUES.items():
        if tuple(rgb255) == value:
            return f"{name} {shape}"
    return f"unknown {shape}"


def validate_dataset(data_dir: str | Path, noop_eps: float) -> tuple[dict, list[str]]:
    """Validate every episode file; returns (statistics, error list)."""
    errors: list[str] = []
    episodes: list[Episode] = []
    files = episode_files(data_dir)
    if not files:
        errors.append(f"{data_dir}: no episode files found")
    for path in files:
        try:
            episode = load_episode(path)
        except EpisodeParseError as exc:
            errors.append(str(exc))
            continue
        for err in validate_episode(episode, noop_eps):
            errors.append(f"{path.name}: {err}")
        episodes.append(episode)
    return dataset_statistics(episodes), errors


def dataset_statistics(episodes: list[Episode]) -> dict:
    """Per-subset corpus summary: tasks, layouts, objects, frames, boxes."""
    stats: dict[str, dict] = {}
    for ep in episodes:
        row = stats.setdefault(ep.subset, {
            "episodes": 0, "tasks": set(), "layouts": set(), "objects": 0,
            "tr_objects_min": np.inf, "tr_objects_max": 0,
            "frames": 0, "bboxes": 0, "tr_bboxes": 0,
        })
        row["episodes"] += 1
        row["tasks"].add(ep.frames[0].task)
        row["layouts"].add(ep.layout_id)
        n_instances = len(ep.frames[0].instances)
        row["objects"] = max(row["objects"], n_instances - 1)  # robot excluded
        for frame in ep.frames:
            n_rel = sum(1 for i in frame.instances if i.relevant)
            row["tr_objects_min"] = min(row["tr_objects_min"], n_rel)
            row["tr_objects_max"] = max(row["tr_objects_max"], n_rel)
            row["frames"] += 1
            row["bboxes"] += len(frame.instances)
            row["tr_bboxes"] += n_rel
    return {
        subset: {
            "episodes": row["episodes"],
            "tasks": len(row["tasks"]),
            "layouts": len(row["layouts"]),
            "objects": row["objects"],
            "tr_objects": f"{int(row['tr_objects_min'])}-{int(row['tr_objects_max'])}",
            "frames": row["frames"],
            "bboxes": row["bboxes"],
            "tr_bboxes": row["tr_bboxes"],
        }
        for subset, row in stats.items()
    }
