"""Frame labels and their checks: occlusion errors, boxes and the validator's lines.

`World.film` refuses a walk in which a sprite has no visible pixel in some
frame, and `validate_episode` reports each label that disagrees with the
instance map or the frame. Both messages are part of the interface (the CLI
prints them), so they are pinned here word for word. The film's boxes, read
from each sprite's stamp window, equal `tight_boxes` of the whole map.
"""

import copy

import numpy as np
import pytest

from slotforge.config import SUBSET_PRESETS, RunConfig
from slotforge.world import (COLOR_VALUES, MAX_FRAMES, World, WorldError, generate_episode,
                             tight_boxes, validate_episode)

NOOP_EPS = RunConfig().noop_eps


def goal_world(seed=3):
    return World(RunConfig(subset="goal").world_config(), seed)


def hide(world, sprite, at=-100.0):
    world.positions[sprite.instance_id] = np.array([at, at])


@pytest.mark.parametrize("at", [-100.0, 200.0], ids=["before-the-frame", "past-the-frame"])
def test_a_sprite_outside_the_frame_is_fully_occluded(at):
    world = goal_world()
    walk = [world.sprite_positions()]
    world.step(np.zeros(7))
    distractor = next(s for s in world.sprites if s.role == "distractor")
    hide(world, distractor, at)
    walk.append(world.sprite_positions())
    with pytest.raises(WorldError) as err:
        world.film(walk)
    assert str(err.value) == f"instance {distractor.instance_id} fully occluded at t=1"


def test_the_error_names_the_first_hidden_sprite_in_sprite_order():
    # the carried sprite comes first in sprite order but after every
    # distractor in draw order
    world = goal_world()
    carried = world.carried_sprite
    distractor = next(s for s in world.sprites if s.role == "distractor")
    hide(world, distractor)
    hide(world, carried)
    with pytest.raises(WorldError) as err:
        world.film([world.sprite_positions()])
    assert str(err.value) == f"instance {carried.instance_id} fully occluded at t=0"


def hiding(monkeypatch, plan):
    """Make `World.step` move distractors off the frame once the world's clock
    reaches a time of `plan`, {t: distractor ranks}, from frame t on."""
    step = World.step

    def hiding_step(world, action):
        step(world, action)
        distractors = [s for s in world.sprites if s.role == "distractor"]
        for rank in plan.get(world.t, ()):
            hide(world, distractors[rank])

    monkeypatch.setattr(World, "step", hiding_step)
    return [s.instance_id for s in goal_world().sprites if s.role == "distractor"]


@pytest.mark.parametrize("plan, hidden, t", [
    ({3: [1], 5: [0]}, 1, 3),   # the first occluded frame of the walk wins
    ({4: [1, 0]}, 0, 4),        # in it, the first hidden sprite in sprite order
])
def test_generation_names_the_first_occluded_frame_then_sprite(monkeypatch, plan, hidden, t):
    ids = hiding(monkeypatch, plan)
    with pytest.raises(WorldError) as err:
        generate_episode(3, RunConfig(subset="goal").world_config())
    assert str(err.value) == f"instance {ids[hidden]} fully occluded at t={t}"


@pytest.mark.parametrize("t, message", [
    (150, "instance {} fully occluded at t=150"),
    (MAX_FRAMES, f"episode 3 exceeded {MAX_FRAMES} frames"),  # past the last frame kept
])
def test_an_occluded_frame_wins_over_the_frame_cap_only_when_it_comes_first(monkeypatch, t,
                                                                           message):
    ids = hiding(monkeypatch, {t: [0]})
    cfg = RunConfig(subset="goal", idle_frames=2 * MAX_FRAMES).world_config()
    with pytest.raises(WorldError) as err:
        generate_episode(3, cfg)
    assert str(err.value) == message.format(ids[0])


def pixel_boxes(instance_map, count):
    """The boxes of a map as `tight_boxes` finds them, in the records' form."""
    s = instance_map.shape[0]
    visible, px = tight_boxes(instance_map, count)
    lo, hi = px[:, :2], px[:, 2:]
    return visible, np.concatenate([(lo + hi) / 2.0 / s, (hi - lo) / s], axis=1)


@pytest.mark.parametrize("subset", sorted(SUBSET_PRESETS))
def test_generated_boxes_equal_the_whole_map_boxes(subset):
    cfg = RunConfig(subset=subset).world_config()
    for seed in range(50):
        for frame in generate_episode(seed, cfg).frames:
            visible, boxes = pixel_boxes(frame.instance_map, len(frame.instances))
            assert visible.all()
            assert np.array_equal(np.array([inst.box for inst in frame.instances]), boxes)


def test_film_boxes_of_sprites_over_the_border_equal_the_whole_map_boxes():
    # each sprite in turn pushed over each edge and a corner, part of it in frame;
    # no generated episode clips a sprite
    world = goal_world()
    s, home = world.cfg.image_size, world.sprite_positions()
    walk = []
    for x, y in ((0.5, 30.0), (s - 1.5, 30.0), (30.0, 1.0), (30.0, s - 2.0), (1.0, s - 1.0)):
        for k in range(len(home)):
            walk.append(home[:k] + [np.array([x, y])] + home[k + 1:])
    _, maps, instances = world.film(walk)
    for instance_map, frame_instances in zip(maps, instances):
        visible, boxes = pixel_boxes(instance_map, len(frame_instances))
        assert visible.all()
        assert np.array_equal(np.array([inst.box for inst in frame_instances]), boxes)


def pixels(frame, i):
    ys, xs = np.nonzero(frame.instance_map == i + 1)
    return ys, xs


def recolor(frame, y, x, color_name):
    frame.rgb[y, x] = COLOR_VALUES[color_name]


@pytest.fixture(scope="module")
def episode():
    return generate_episode(9, RunConfig(subset="goal").world_config())


def test_the_validator_reports_each_bad_label_in_its_own_words(episode):
    ep = copy.deepcopy(episode)
    frame = ep.frames[0]
    ids = [inst.instance_id for inst in frame.instances]
    assert ids == ["circle1", "square1", "square2", "circle2", "circle3", "robot1"]
    size = frame.rgb.shape[0]
    frame.instance_map[frame.instance_map == 3] = 0           # square2: no pixel left
    frame.instances[0].box = frame.instances[0].box + [2.0 / size, 0, 0, 0]
    frame.instances[1].box = frame.instances[1].box * [1, 1, 0, 1]
    frame.instances[3].relevant = not frame.instances[3].relevant
    frame.instance_map[0, 0] = 200                            # an id no record has
    assert validate_episode(ep, NOOP_EPS) == [
        "t=0: circle1 box deviates 2.00px from its mask",
        "t=0: square1 box deviates 6.50px from its mask",
        "t=0: square1 degenerate box",
        "t=0: square2 has an empty mask",
        "t=0: circle2 relevance flag True contradicts task string",
    ]


def test_the_noun_check_reads_the_first_raster_pixel(episode):
    # circle1 is the carried sprite; its first pixel in raster order is in its
    # top row, its leftmost pixels are further down
    ep = copy.deepcopy(episode)
    frame = ep.frames[0]
    ys, xs = pixels(frame, 0)
    left = np.flatnonzero(xs == xs.min())[0]
    assert ys[left] != ys[0]
    recolor(frame, ys[left], xs[left], "purple")
    assert validate_episode(ep, NOOP_EPS) == []
    own = next(name for name, value in COLOR_VALUES.items()
               if value == tuple(frame.rgb[ys[0], xs[0]].tolist()))
    recolor(frame, ys[0], xs[0], "purple")
    assert validate_episode(ep, NOOP_EPS) == [
        "t=0: circle1 relevance flag True contradicts task string"]
    recolor(frame, ys[0], xs[0], own)
    assert validate_episode(ep, NOOP_EPS) == []
