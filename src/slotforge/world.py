"""Deterministic 2-D sprite manipulation world with full annotations.

Every episode is a scripted pick-and-place: the gripper approaches one
sprite, grasps it, carries it onto a larger target sprite, and releases.
Frames come with an instance map (0 for background, i + 1 for instance i;
painter's order gives each pixel one owner), mask-tight boxes, stable
instance ids, task-relevance flags derived from the templated task string,
proprioception, and the executed action. Identical seeds reproduce episodes
bitwise.

The script is one generator, `expert_actions`, which computes each action
only after the world has taken the one before. `generate_episode` walks it
through `World.step`, recording only each frame's sprite positions and
proprioception, then draws and labels the whole walk as one film;
`evaluate.run_rollout` runs the same script as the `eval --expert` baseline.

Sprite sizes are tiered (robot < carried < distractor < target) so a moving
sprite can never fully occlude another: visible masks stay non-empty and
mask-tight boxes stay well defined under overlap.

What is fixed for an episode is built once, when its `World` is made: the
task's nouns and each sprite's relevance flag, the color palette, and each
sprite's footprint in draw order; the expert builds the action bin centers
once. Drawing loops over the sprites once per film, be it one frame or a
whole episode: `World.draw` stamps each sprite's footprint, at its corner
rounded from its position, into the instance maps in painter's order, with
one slice for all the frames in which the sprite stays put, then colors every
pixel with one palette lookup by its owner. `World.render` is its one-frame
case. `World.film` labels a walk's frames: every instance's mask-tight box
comes from row and column occupancy in a window at its sprite's corner, the
only place its pixels can be, all windows of the film at once. `tight_boxes`
finds the same boxes from one pass over a whole instance map;
`validate_episode` checks a frame's boxes against it, all of a frame's
instances as arrays, so the check shares no code with the labeller.

On disk an episode is 4 files: its records (`.jsonl`), its `.meta.json`, and
two films, `_rgb.ppm` and `_map.pgm`, which hold its frames and instance maps.
`load_episode` rejects what cannot be read as an episode. `validate_episode`
is the one check of what an episode says: every command that reads a corpus
runs it through `train.check_episode`, and `gen` runs it on what it wrote.

A `WorldConfig` is the world's view of a run, built only by
`RunConfig.world_config()`; subset presets live in `config.SUBSET_PRESETS`
and apply when the `RunConfig` is built.
"""

from __future__ import annotations

import functools
import itertools
import json
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Iterator

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from . import pnm
from .decoder import bin_centers, snap_action
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
GRIPPER_STARTS_CLOSED = False  # every episode starts with the gripper open
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
    rgb: np.ndarray        # uint8 HxWx3, the palette colors as drawn
    instance_map: np.ndarray  # uint8 HxW: 0 background, i + 1 for instances[i]


@dataclass
class Episode:
    frames: list[FrameRecord]
    subset: str
    seed: int
    layout_id: int
    carried_id: str
    target_id: str


@functools.cache
def footprint(shape: str, size: int) -> np.ndarray:
    """A `shape` sprite's boolean mask in its size x size square, built once
    per (shape, size) and shared by every caller, which only reads it."""
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
    placed: list[tuple[float, float, float]] = []  # x, y and half size, plain floats
    positions: dict[str, np.ndarray] = {}
    for sprite in sorted(sprites, key=lambda s: -s.size):
        half = sprite.size / 2.0
        lo, hi = half + 2.0, cfg.image_size - 1 - half - 2.0
        if hi < lo:  # sprites go largest first, so this raises before any draw
            raise InfeasibleSceneError(f"{sprite.instance_id} ({sprite.size} px) cannot fit "
                                       f"a {cfg.image_size}x{cfg.image_size} frame")
        for _ in range(100):
            pos = rng.uniform(lo, hi, size=2)
            x, y = pos.tolist()
            if all(max(abs(x - ox), abs(y - oy)) >= half + other_half + margin
                   for ox, oy, other_half in placed):
                placed.append((x, y, half))
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
    if n_cells < 2:
        raise InfeasibleSceneError(f"{target.instance_id} needs a 2x2 block of {cell}-pixel "
                                   f"cells; the frame is {cfg.image_size}x{cfg.image_size}")
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


def tight_boxes(instance_map: np.ndarray, count: int) -> tuple[np.ndarray, np.ndarray]:
    """The mask-tight pixel boxes of instances 1..count of an instance map,
    from one pass over it: (visible, boxes), where visible[i] says whether
    instance i + 1 owns a pixel and boxes[i] is its (x0, y0, x1, y1), ends
    exclusive, which means nothing where it is not visible. Map values above
    `count` are ignored."""
    h, w = instance_map.shape
    n = max(h, w)
    # one bincount of the occupied (instance, column) and (instance, row) pairs:
    # instance i's columns count at 2n·i + x, its rows at 2n·i + n + y
    ids = instance_map.astype(np.intp) * (2 * n)
    keys = np.concatenate([(ids + np.arange(w)).ravel(),
                           (ids + (n + np.arange(h)[:, None])).ravel()])
    occupied = np.bincount(keys, minlength=(count + 1) * 2 * n)[2 * n:(count + 1) * 2 * n] > 0
    occupied = occupied.reshape(count, 2, n)  # [i, 0] columns, [i, 1] rows
    # first and one past the last occupied index, columns then rows
    boxes = np.concatenate([occupied.argmax(axis=2), n - occupied[:, :, ::-1].argmax(axis=2)],
                           axis=1)
    return occupied[:, 0].any(axis=1), boxes


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
        self.sprites, self.positions, self.layout_id = _sample_scene(cfg, seed)
        self.carried_sprite = next(s for s in self.sprites if s.role == "carried")
        self.target_sprite = next(s for s in self.sprites if s.role == "target")
        self.robot = next(s for s in self.sprites if s.role == "robot")
        self.task = (f"robot put the {self.carried_sprite.noun} "
                     f"on the {self.target_sprite.noun}")
        nouns = relevant_nouns(self.task)
        self._labels = [(sprite.instance_id, sprite.noun in nouns) for sprite in self.sprites]
        self.gripper_closed = GRIPPER_STARTS_CLOSED
        self.carrying = False
        self.t = 0
        # draw order: static sprites first, then the carried object, robot on top;
        # sprite k stamps k + 1 through its footprint, or its whole square (None)
        order = [(k, sprite) for role in (("distractor", "target"), ("carried",), ("robot",))
                 for k, sprite in enumerate(self.sprites) if sprite.role in role]
        self._stamps = []
        for k, sprite in order:
            stamp = footprint(sprite.shape, sprite.size)
            self._stamps.append((k, sprite.size, None if stamp.all() else stamp))
        self._halves = np.array([[sprite.size / 2.0] for sprite in self.sprites])
        # covers every spawnable goal position; sprites may clip at the border
        # but can never leave the frame entirely
        self._clamp_lo = 2.0
        self._clamp_hi = cfg.image_size - 3.0
        # row k + 1 is the color of sprite k, row 0 the background
        self._palette = np.array([BACKGROUND_RGB] + [sprite.color for sprite in self.sprites],
                                 dtype=np.uint8)

    def gripper_pos(self) -> np.ndarray:
        return self.positions[self.robot.instance_id]

    def proprio(self) -> np.ndarray:
        x, y = self.gripper_pos().tolist()
        s = self.cfg.image_size
        return np.array([x / s, y / s, 0.0, 1.0 if self.gripper_closed else -1.0])

    def step(self, action: np.ndarray) -> None:
        action = np.asarray(action, dtype=np.float64)
        if action.shape != (7,):
            raise WorldError(f"action must have 7 dims, got shape {action.shape}")
        values = action.tolist()
        if not all(abs(v) <= 1.0 + 1e-12 for v in values):  # NaN fails it too
            raise WorldError("action values outside [-1, 1]")
        lo, hi = self._clamp_lo, self._clamp_hi
        new_pos = np.array([min(max(p + v * MAX_STEP, lo), hi)  # np.clip, on plain floats
                            for p, v in zip(self.gripper_pos().tolist(), values)])
        self.positions[self.robot.instance_id] = new_pos
        if self.carrying:
            self.positions[self.carried_sprite.instance_id] = new_pos.copy()
        self.gripper_closed = values[6] > 0
        if self.gripper_closed and not self.carrying:
            gap = np.linalg.norm(
                self.positions[self.carried_sprite.instance_id] - new_pos)
            if gap <= GRASP_RADIUS:
                self.carrying = True
                self.positions[self.carried_sprite.instance_id] = new_pos.copy()
        elif not self.gripper_closed:
            self.carrying = False
        self.t += 1

    def sprite_positions(self) -> list[np.ndarray]:
        """Every sprite's position, in sprite order. `step` replaces a moved
        sprite's position array and never writes into one, so a list taken
        before a step still holds the positions of its frame."""
        return [self.positions[sprite.instance_id] for sprite in self.sprites]

    def walk(self, actions: Iterable[np.ndarray]) -> Iterator[tuple[int, np.ndarray, list, np.ndarray]]:
        """Take `actions` in turn, yielding before each the frame it acts on as
        a film records it, drawing nothing: (t, action, sprite positions,
        proprioception)."""
        for action in actions:
            yield self.t, action, self.sprite_positions(), self.proprio()
            self.step(action)

    def corners(self, positions: list[list[np.ndarray]]) -> np.ndarray:
        """Every sprite's top-left pixel (x0, y0), intp n x sprites x 2, where
        `positions[t]` holds frame t's `sprite_positions()`: each position
        less half the sprite's size, rounded half to even as plain floats round."""
        return np.rint(np.asarray(positions) - self._halves).astype(np.intp)

    def draw(self, corners: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """(rgb, instance maps) of the n frames of `corners`. The maps are uint8
        n x S x S: k + 1 where sprite k owns the pixel in painter's order, 0
        for background; the frames are uint8 n x S x S x 3, one palette lookup
        per pixel by its owner. A sprite stamps one run of frames at a time,
        the frames in which its corner stays put: a sprite that never moves
        stamps every frame with one slice, a moving one frame by frame."""
        s = self.cfg.image_size
        maps = np.zeros((len(corners), s, s), dtype=np.uint8)
        tracks = corners.transpose(1, 0, 2).tolist()  # [sprite][frame] -> [x0, y0]
        for k, size, stamp in self._stamps:
            b = 0
            for (x0, y0), run in itertools.groupby(tracks[k]):
                a, b = b, b + len(list(run))
                x0c, y0c = max(0, x0), max(0, y0)
                x1c, y1c = min(s, x0 + size), min(s, y0 + size)
                if x1c <= x0c or y1c <= y0c:
                    continue
                window = maps[a:b, y0c:y1c, x0c:x1c]
                if stamp is None:
                    window[...] = k + 1
                else:
                    np.copyto(window, k + 1, where=stamp[y0c - y0:y1c - y0, x0c - x0:x1c - x0])
        return np.take(self._palette, maps, axis=0), maps

    def render(self) -> tuple[np.ndarray, np.ndarray]:
        """(rgb, instance_map) of the current state: `draw`'s one-frame case."""
        rgb, maps = self.draw(self.corners([self.sprite_positions()]))
        return rgb[0], maps[0]

    def film(self, positions: list[list[np.ndarray]]) -> tuple[np.ndarray, np.ndarray, list]:
        """(rgb, instance maps, instances) of the frames of `positions`, as
        `corners` reads it, in one `draw`: instances[t] labels frame t. Every
        instance's mask-tight box is found in a window at its sprite's corner,
        the only place its pixels can be, all windows of the film at once. A
        sprite with no visible pixel is an error that names the first such
        frame and, in it, the first such sprite in sprite order."""
        corners = self.corners(positions)
        rgb, maps = self.draw(corners)
        n, count = corners.shape[:2]
        s, reach = self.cfg.image_size, max(sprite.size for sprite in self.sprites)
        # a reach x reach window from a sprite's corner holds its whole stamp;
        # one over the border reads a zero margin, and a corner clipped here
        # is a sprite off the frame, which owns no pixel either way
        corners = np.clip(corners, -reach, s)
        framed = np.zeros((n, s + 2 * reach, s + 2 * reach), dtype=np.uint8)
        framed[:, reach:reach + s, reach:reach + s] = maps
        windows = sliding_window_view(framed, (reach, reach), axis=(1, 2))[
            np.arange(n)[:, None], corners[..., 1] + reach, corners[..., 0] + reach]
        owned = windows == np.arange(1, count + 1)[:, None, None]
        # [t, k, 0] the window's occupied columns, [t, k, 1] its occupied rows
        occupied = np.stack([owned.any(axis=2), owned.any(axis=3)], axis=2)
        visible = occupied[:, :, 0].any(axis=2)
        if not visible.all():
            t, k = divmod(int(np.argmin(visible)), count)
            raise WorldError(f"instance {self.sprites[k].instance_id} fully occluded at t={t}")
        # the first and one past the last occupied pixel, (x, y) each
        lo = corners + occupied.argmax(axis=3)
        hi = corners + reach - occupied[..., ::-1].argmax(axis=3)
        boxes = np.concatenate([(lo + hi) / 2.0 / s, (hi - lo) / s], axis=2)
        instances = [[InstanceRecord(instance_id, box, relevant)
                      for (instance_id, relevant), box in zip(self._labels, frame_boxes)]
                     for frame_boxes in boxes]
        return rgb, maps, instances

    def success(self) -> bool:
        """Carried sprite center inside the target sprite's extent."""
        carried = self.positions[self.carried_sprite.instance_id]
        target = self.positions[self.target_sprite.instance_id]
        half = self.target_sprite.size / 2.0
        return bool(np.all(np.abs(carried - target) <= half))


def expert_actions(world: World) -> Iterator[np.ndarray]:
    """The scripted pick-and-place as bin-centered actions, each computed
    after `world` has taken the one before: moves to the carried sprite with
    the gripper open, one close, `idle_frames` closed holds, moves onto the
    target with the gripper closed, one open, and two moves away from the
    target."""
    centers = bin_centers(world.cfg.action_bins)
    carried, target = world.carried_sprite.instance_id, world.target_sprite.instance_id

    def arrived(sprite_id: str) -> bool:
        (x, y), (gx, gy) = world.positions[sprite_id].tolist(), world.gripper_pos().tolist()
        return abs(x - gx) < ARRIVE_EPS and abs(y - gy) < ARRIVE_EPS

    def hold(gripper: float) -> np.ndarray:
        action = np.zeros(7)
        action[6] = gripper  # recorded exactly as -1 or +1
        return action

    def move(goal: np.ndarray, gripper: float) -> np.ndarray:
        delta = [min(max(g - p, -MAX_STEP), MAX_STEP) / MAX_STEP  # np.clip, on plain floats
                 for g, p in zip(goal.tolist(), world.gripper_pos().tolist())]
        action = hold(gripper)
        action[:2] = snap_action(np.array(delta), centers)
        return action

    while not arrived(carried):
        yield move(world.positions[carried], -1.0)
    for _ in range(1 + world.cfg.idle_frames):  # the close, then the holds
        yield hold(1.0)
    while not arrived(target):
        yield move(world.positions[target], 1.0)
    yield hold(-1.0)
    for _ in range(2):
        away = np.sign(world.gripper_pos() - world.positions[target])
        away[away == 0] = 1.0
        yield move(world.gripper_pos() + away * MAX_STEP, -1.0)


def filter_noops(actions: list[np.ndarray], eps: float) -> list[int]:
    """Indices of frames that move or change the gripper state, in order."""
    if eps < 0:
        raise ValueError(f"no-op threshold must be >= 0, got {eps}")
    keep = []
    state = GRIPPER_STARTS_CLOSED
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
    """Run the scripted expert in a fresh world; same seed, same bytes. The
    walk takes each action in the world and records only the frame it acted
    on: the sprite positions and proprioception. Nothing is drawn during it.
    Then `World.film` draws, colors and labels every frame of the walk at
    once, so an occluded frame is an error even where the walk then ran over
    `MAX_FRAMES`. The frames kept after no-op filtering are views of the
    film's arrays."""
    world = World(cfg, seed)
    actions, positions, proprios = [], [], []
    overran = False
    for t, action, sprite_positions, proprio in world.walk(expert_actions(world)):
        if t == MAX_FRAMES:
            overran = True
            break
        actions.append(action)
        positions.append(sprite_positions)
        proprios.append(proprio)
    rgb, maps, instances = world.film(positions)
    if overran:
        raise WorldError(f"episode {seed} exceeded {MAX_FRAMES} frames")
    if not world.success():
        raise WorldError(f"scripted episode {seed} failed its own task")
    keep = filter_noops(actions, cfg.noop_eps)
    if len(keep) < 2:
        raise WorldError(f"episode {seed} shorter than 2 frames after filtering")
    frames = [FrameRecord(t=t, task=world.task, action=actions[i], proprio=proprios[i],
                          instances=instances[i], rgb=rgb[i], instance_map=maps[i])
              for t, i in enumerate(keep)]
    return Episode(frames=frames, subset=cfg.subset, seed=seed,
                   layout_id=world.layout_id,
                   carried_id=world.carried_sprite.instance_id,
                   target_id=world.target_sprite.instance_id)


# ---------------------------------------------------------------------------
# serialization: a film stacks an episode's S x S frames (or instance maps) top
# to bottom, so the frame of record k is rows k*S to (k+1)*S of each film


def _fmt_list(values: np.ndarray) -> str:
    return "[" + ",".join([format(v, ".17g") for v in values.tolist()]) + "]"


def serialize_episode(episode: Episode, out_dir: str | Path) -> Path:
    """Write an episode's 4 files; returns the `.jsonl` path. Each task string
    and instance id is JSON-encoded once per episode, not once per record."""
    out_dir = Path(out_dir)
    stem = f"ep_{episode.seed:06d}"
    pnm.write_ppm(out_dir / f"{stem}_rgb.ppm", np.concatenate([f.rgb for f in episode.frames]))
    pnm.write_pgm(out_dir / f"{stem}_map.pgm",
                  np.concatenate([f.instance_map for f in episode.frames]))
    quoted = functools.cache(json.dumps)
    lines = []
    for frame in episode.frames:
        inst_parts = [
            '{"id":%s,"box":%s,"relevant":%s}' % (
                quoted(inst.instance_id), _fmt_list(inst.box),
                "true" if inst.relevant else "false")
            for inst in frame.instances]
        lines.append(
            '{"t":%d,"task":%s,"action":%s,"proprio":%s,"instances":[%s]}'
            % (frame.t, quoted(frame.task), _fmt_list(frame.action),
               _fmt_list(frame.proprio), ",".join(inst_parts)))
    path = out_dir / f"{stem}.jsonl"
    path.write_text("\n".join(lines) + "\n")
    meta = {"subset": episode.subset, "seed": episode.seed,
            "layout_id": episode.layout_id, "carried_id": episode.carried_id,
            "target_id": episode.target_id}
    (out_dir / f"{stem}.meta.json").write_text(json.dumps(meta))
    return path


def _numbers(values, n: int, what: str, where: str) -> np.ndarray:
    """A JSON list of n finite numbers below 1e308 in size as float64, else a data error."""
    if not (isinstance(values, list) and len(values) == n
            and all(type(v) in (int, float) and abs(v) < 1e308 for v in values)):
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
    """The episode of a `.jsonl` file and its two films. Each film is read
    once per episode and a frame is a view of S rows of it, where S is the
    film's width; one pass over the map film checks every frame's peak against
    its record's instance count. Any flaw is an `EpisodeParseError` naming
    the file, and a record's line."""
    path = Path(path)
    try:
        text = path.read_text()
    except OSError as exc:
        raise EpisodeParseError(f"{path}: cannot read episode: {exc.strerror}") from exc
    except UnicodeDecodeError as exc:
        raise EpisodeParseError(f"{path}: not a text episode file: {exc.reason}") from exc
    records: list[tuple[str, dict]] = []
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
        if "frame_file" in rec or "map_file" in rec:
            raise EpisodeParseError(
                f"{where}: record names its own image files (an older corpus layout); "
                "regenerate the corpus with `slotforge gen`")
        try:
            if type(rec["t"]) is not int:
                raise EpisodeParseError(f"{where}: malformed record: t is not an integer")
            if not (isinstance(rec["instances"], list) and rec["instances"]
                    and all(isinstance(inst, dict) for inst in rec["instances"])):
                raise EpisodeParseError(
                    f"{where}: malformed record: instances is not a non-empty list of objects")
            task = _task(rec["task"], where)
            instances = []
            for inst in rec["instances"]:
                if not (isinstance(inst["id"], str) and inst["id"]):
                    raise EpisodeParseError(f"{where}: malformed record: instance id is not "
                                            "a non-empty string")
                if not isinstance(inst["relevant"], bool):
                    raise EpisodeParseError(f"{where}: malformed record: instance relevant "
                                            "is not true or false")
                instances.append(InstanceRecord(
                    inst["id"], _numbers(inst["box"], 4, "box", where), inst["relevant"]))
            records.append((where, dict(
                t=rec["t"], task=task,
                action=_numbers(rec["action"], 7, "action", where),
                proprio=_numbers(rec["proprio"], 4, "proprio", where),
                instances=instances)))
        except KeyError as exc:
            raise EpisodeParseError(f"{where}: missing field {exc}") from exc
    if not records:
        raise EpisodeParseError(f"{path}: no frame records")
    rgb_path, map_path = (path.with_name(path.stem + end) for end in ("_rgb.ppm", "_map.pgm"))
    try:
        rgb, instance_maps = pnm.read_ppm(rgb_path), pnm.read_pgm(map_path)
    except (OSError, pnm.PnmError) as exc:
        raise EpisodeParseError(f"cannot read film: {exc}") from exc
    n, s = len(records), rgb.shape[1]
    for film, (h, w) in ((rgb_path, rgb.shape[:2]), (map_path, instance_maps.shape)):
        if (h, w) != (n * s, s):
            raise EpisodeParseError(f"{film}: film is {h}x{w}, not {n} frames of {s}x{s}")
    for (where, fields), peak in zip(records, instance_maps.reshape(n, -1).max(axis=1)):
        if peak > len(fields["instances"]):
            raise EpisodeParseError(f"{where}: instance map value {peak} exceeds the record's "
                                    f"{len(fields['instances'])} instances")
    frames = [FrameRecord(rgb=rgb[k * s:(k + 1) * s],
                          instance_map=instance_maps[k * s:(k + 1) * s], **fields)
              for k, (_, fields) in enumerate(records)]
    meta_path = path.with_name(path.stem + ".meta.json")
    try:
        meta = json.loads(meta_path.read_text()) if meta_path.exists() else {}
        if not isinstance(meta, dict):
            raise ValueError("not a JSON object")
        for key, kind in (("seed", int), ("layout_id", int), ("subset", str),
                          ("carried_id", str), ("target_id", str)):  # a bool is no int here
            if key in meta and type(meta[key]) is not kind:
                raise ValueError(f"{key} is not {'an integer' if kind is int else 'a string'}")
    except (OSError, ValueError) as exc:
        raise EpisodeParseError(f"{meta_path}: malformed metadata: {exc}") from exc
    return Episode(frames=frames, subset=meta.get("subset", "unknown"),
                   seed=meta.get("seed", -1), layout_id=meta.get("layout_id", -1),
                   carried_id=meta.get("carried_id", ""),
                   target_id=meta.get("target_id", ""))


def episode_files(data_dir: str | Path) -> list[Path]:
    return sorted(Path(data_dir).glob("ep_*.jsonl"))


# ---------------------------------------------------------------------------
# validation and statistics


def validate_episode(episode: Episode, noop_eps: float, image_size: int | None = None,
                     num_slots: int | None = None) -> list[str]:
    """Errors of one episode; `noop_eps` is the run's `RunConfig.noop_eps`. Given
    `image_size`, a frame of another size is an error; given `num_slots`, so is a
    frame with more instances than slots. A frame's instances are checked as
    arrays against one `tight_boxes` pass, and its lines come in instance order."""
    errors: list[str] = []
    first_ids = [inst.instance_id for inst in episode.frames[0].instances]
    first_task = episode.frames[0].task
    first_nouns = relevant_nouns(first_task)
    if len(episode.frames) < 2:
        errors.append("episode shorter than 2 frames")
    for frame_idx, frame in enumerate(episode.frames):
        size = frame.rgb.shape[0]  # frames are square: a film is one frame wide
        if image_size is not None and size != image_size:
            errors.append(f"frame t={frame.t} is {size}x{size}, not image_size {image_size}")
        if num_slots is not None and len(frame.instances) > num_slots:
            errors.append(f"frame t={frame.t} has {len(frame.instances)} instances, "
                          f"more than num_slots {num_slots}")
        ids = [inst.instance_id for inst in frame.instances]
        if ids != first_ids:
            errors.append(f"t={frame.t}: instance ids changed: {ids} != {first_ids}")
        if frame.task != first_task:  # both stages filter an episode by its t=0 task
            errors.append(f"t={frame.t}: task changed: {frame.task!r} != {first_task!r}")
        nouns = first_nouns if frame.task == first_task else relevant_nouns(frame.task)
        k = len(frame.instances)
        visible, tight_px = tight_boxes(frame.instance_map, k)
        boxes = np.array([inst.box for inst in frame.instances]).reshape(k, 4)
        center, half = boxes[:, :2] * size, boxes[:, 2:] * size / 2  # in pixels
        deviation = np.abs(np.concatenate([center - half, center + half], axis=1)
                           - tight_px).max(axis=1)
        degenerate = (boxes[:, 2] <= 0) | (boxes[:, 3] <= 0)
        # the noun comes from the instance's first pixel in raster order
        y = tight_px[:, 1]
        x = np.argmax(frame.instance_map[y] == np.arange(1, k + 1)[:, None], axis=1)
        expected = [_noun_for_instance(inst.instance_id, rgb) in nouns
                    for inst, rgb in zip(frame.instances, frame.rgb[y, x].tolist())]
        wrong = np.array([bool(inst.relevant) for inst in frame.instances]) != expected
        for i in np.flatnonzero(~visible | (deviation > 1.0) | degenerate | wrong).tolist():
            inst = frame.instances[i]
            if not visible[i]:
                errors.append(f"t={frame.t}: {inst.instance_id} has an empty mask")
                continue
            if deviation[i] > 1.0:
                errors.append(f"t={frame.t}: {inst.instance_id} box deviates "
                              f"{deviation[i]:.2f}px from its mask")
            if degenerate[i]:
                errors.append(f"t={frame.t}: {inst.instance_id} degenerate box")
            if wrong[i]:
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


_COLOR_NAMES = {value: name for name, value in COLOR_VALUES.items()}


def _noun_for_instance(instance_id: str, rgb: list[int]) -> str:
    """Recover the noun phrase for an instance from its id and one of its pixels."""
    if instance_id.startswith("robot"):
        return "robot"
    return f"{_COLOR_NAMES.get(tuple(rgb), 'unknown')} {instance_id.rstrip('0123456789')}"


def dataset_statistics(episodes: list[Episode]) -> dict:
    """Per-subset corpus summary, subsets in first-seen order: episodes, distinct
    t=0 tasks and layouts, the most objects in a scene (robot excluded), the range
    of task-relevant instances per frame, frames, boxes and task-relevant boxes."""
    stats = {}
    for subset in dict.fromkeys(ep.subset for ep in episodes):
        group = [ep for ep in episodes if ep.subset == subset]
        frames = [frame for ep in group for frame in ep.frames]
        relevant = [sum(inst.relevant for inst in frame.instances) for frame in frames]
        stats[subset] = {
            "episodes": len(group),
            "tasks": len({ep.frames[0].task for ep in group}),
            "layouts": len({ep.layout_id for ep in group}),
            "objects": max(len(ep.frames[0].instances) for ep in group) - 1,
            "tr_objects": f"{min(relevant)}-{max(relevant)}",
            "frames": len(frames),
            "bboxes": sum(len(frame.instances) for frame in frames),
            "tr_bboxes": sum(relevant),
        }
    return stats
