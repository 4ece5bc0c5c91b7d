"""Frame labels and their checks: occlusion errors and the validator's lines.

`World.annotate` refuses a frame in which a sprite has no visible pixel, and
`validate_episode` reports each label that disagrees with the instance map
or the frame. Both messages are part of the interface (the CLI prints them),
so they are pinned here word for word.
"""

import copy

import numpy as np
import pytest

from slotforge.config import RunConfig
from slotforge.world import (COLOR_VALUES, World, WorldError, generate_episode,
                             validate_episode)

NOOP_EPS = RunConfig().noop_eps


def goal_world(seed=3):
    return World(RunConfig(subset="goal").world_config(), seed)


def hide(world, sprite):
    world.positions[sprite.instance_id] = np.array([-100.0, -100.0])


def test_a_sprite_outside_the_frame_is_fully_occluded():
    world = goal_world()
    world.step(np.zeros(7))
    distractor = next(s for s in world.sprites if s.role == "distractor")
    hide(world, distractor)
    with pytest.raises(WorldError) as err:
        world.annotate(np.zeros(7))
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
        world.annotate(np.zeros(7))
    assert str(err.value) == f"instance {carried.instance_id} fully occluded at t=0"


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
