"""The two tables the command line prints, pinned exactly: `gen`'s per-subset
corpus statistics (`dataset_statistics`) and `budget`'s token table.

Computed from the world and the budget as they stood when these pins were
added. The statistics are compared as JSON, so the order of the subsets
(first seen) and of each row's keys is pinned with the values; `budget` is
compared as the bytes it prints.
"""

import json

import pytest

from slotforge.cli import EXIT_OK, main
from slotforge.config import SUBSET_PRESETS, RunConfig
from slotforge.world import dataset_statistics, generate_episode, load_episode, serialize_episode

SEEDS = (3, 4, 5)
ORDER = ("pair", "long", "goal", "spatial", "object")  # not sorted, so first-seen order shows

# seeds 3-5 of each subset preset, plus one goal episode (seed 6) whose
# metadata is missing and whose relevance flags were edited to span 2-4
STATISTICS = {
    "pair": {"episodes": 3, "tasks": 2, "layouts": 1, "objects": 2, "tr_objects": "3-3",
             "frames": 66, "bboxes": 198, "tr_bboxes": 198},
    "long": {"episodes": 3, "tasks": 3, "layouts": 3, "objects": 29, "tr_objects": "3-3",
             "frames": 85, "bboxes": 2520, "tr_bboxes": 255},
    "unknown": {"episodes": 1, "tasks": 1, "layouts": 1, "objects": 6, "tr_objects": "2-4",
                "frames": 24, "bboxes": 168, "tr_bboxes": 72},
    "goal": {"episodes": 3, "tasks": 3, "layouts": 1, "objects": 7, "tr_objects": "3-3",
             "frames": 80, "bboxes": 616, "tr_bboxes": 240},
    "spatial": {"episodes": 3, "tasks": 3, "layouts": 3, "objects": 11, "tr_objects": "3-3",
                "frames": 68, "bboxes": 804, "tr_bboxes": 204},
    "object": {"episodes": 3, "tasks": 3, "layouts": 1, "objects": 12, "tr_objects": "3-3",
               "frames": 72, "bboxes": 908, "tr_bboxes": 216},
}


@pytest.fixture(scope="module")
def episodes():
    return {subset: [generate_episode(seed, RunConfig(subset=subset).world_config())
                     for seed in SEEDS] for subset in SUBSET_PRESETS}


@pytest.fixture(scope="module")
def unknown(tmp_path_factory):
    """A goal episode loaded without its `.meta.json`, so of subset "unknown";
    one frame counts 2 relevant instances and another 4."""
    path = serialize_episode(generate_episode(6, RunConfig().world_config()),
                             tmp_path_factory.mktemp("unknown"))
    path.with_name(path.stem + ".meta.json").unlink()
    episode = load_episode(path)
    next(i for i in episode.frames[0].instances if i.relevant).relevant = False
    next(i for i in episode.frames[-1].instances if not i.relevant).relevant = True
    assert episode.subset == "unknown"
    return episode


@pytest.mark.parametrize("subset", sorted(SUBSET_PRESETS))
def test_statistics_of_one_subset(episodes, subset):
    expected = {subset: STATISTICS[subset]}
    assert json.dumps(dataset_statistics(episodes[subset])) == json.dumps(expected)


def test_statistics_of_a_mixed_corpus_keep_first_seen_order(episodes, unknown):
    corpus = [episodes[subset][i] for i in range(len(SEEDS)) for subset in ORDER]
    corpus.insert(2, unknown)
    assert json.dumps(dataset_statistics(corpus)) == json.dumps(STATISTICS)


def test_statistics_of_one_episode(unknown):
    expected = {"unknown": STATISTICS["unknown"]}
    assert json.dumps(dataset_statistics([unknown])) == json.dumps(expected)


BUDGET_HEAD = """\
setting                  tokens  dense    ratio  printed
reference-goal OC             4    256   64.000  64×
reference-goal ORC           20    256   12.800  13×
reference-other OC            4    256   64.000  64×
reference-other ORC          28    256    9.143  9×
"""

# the configured OC and ORC token counts per subset and case
TOKENS = {
    "goal": {"default": (4, 20), "no-relations": (4, 4), "no-filter": (16, 32), "neither": (16, 16)},
    "pair": {"default": (4, 20), "no-relations": (4, 4), "no-filter": (16, 32), "neither": (16, 16)},
    "object": {"default": (4, 28), "no-relations": (4, 4), "no-filter": (24, 48),
               "neither": (24, 24)},
    "spatial": {"default": (4, 28), "no-relations": (4, 4), "no-filter": (24, 48),
                "neither": (24, 24)},
    "long": {"default": (4, 28), "no-relations": (4, 4), "no-filter": (32, 56), "neither": (32, 32)},
}

# a configured line after its 24-column setting, by token count (64 dense tokens)
COLUMNS = {
    4: "      4     64   16.000  16×",
    16: "     16     64    4.000  4×",
    20: "     20     64    3.200  3×",
    24: "     24     64    2.667  3×",
    28: "     28     64    2.286  2×",
    32: "     32     64    2.000  2×",
    48: "     48     64    1.333  1×",
    56: "     56     64    1.143  1×",
}


@pytest.mark.parametrize("case, overrides", [
    ("default", []),
    ("no-relations", ["relations_on=false"]),
    ("no-filter", ["filter_on=false"]),
    ("neither", ["filter_on=false", "relations_on=false"]),
])
@pytest.mark.parametrize("subset", sorted(SUBSET_PRESETS))
def test_budget_prints_the_same_bytes(subset, case, overrides, capsys):
    args = [arg for o in [f"subset={subset}"] + overrides for arg in ("--override", o)]
    assert main(["budget"] + args) == EXIT_OK
    oc, orc = TOKENS[subset][case]
    assert capsys.readouterr().out == (BUDGET_HEAD
                                       + "configured OC".ljust(24) + COLUMNS[oc] + "\n"
                                       + "configured ORC".ljust(24) + COLUMNS[orc] + "\n")
