"""The benchmark's own tests: determinism, clean runs and exact wrappers.

    python3 -m pytest benchmarks/tests -q

Runs use shrunken copies of the real workloads: two steps on the two-object
`pair` subset, one training and one held-out episode, one rollout.
"""

from __future__ import annotations

import dataclasses
import sys
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parents[2]
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "benchmarks")]

from slotforge import losses, pipeline, train  # noqa: E402
from slotbench import workloads as W  # noqa: E402
from slotbench.tracing import Patches, Recorder, covered_time, span_stats  # noqa: E402

TINY = {stage: dataclasses.replace(W.WORKLOADS[name], subset="pair", iters=2,
                                   train_per_count=1)
        for stage, name in ((1, "stage1-goal"), (2, "stage2-rollout-goal"))}


@pytest.mark.parametrize("stage", [1, 2])
def test_same_seed_gives_identical_corpora_and_loss_csvs(tmp_path, stage):
    spec = TINY[stage]
    for name in ("a", "b"):
        report = W.run_workload(spec, 11, 0.0, False, tmp_path / name)
        assert report.correct, report.failures
    for rel in ("setup0/train", "setup0/val"):
        assert W.tree_digest(tmp_path / "a" / rel) == W.tree_digest(tmp_path / "b" / rel)
    csv = f"round0/stage{stage}_loss.csv"
    assert (tmp_path / "a" / csv).read_bytes() == (tmp_path / "b" / csv).read_bytes()


@pytest.mark.parametrize("stage", [1, 2])
def test_second_seed_runs_clean_untraced_and_traced(tmp_path, stage):
    spec = TINY[stage]
    plain = W.run_workload(spec, 12, 0.0, False, tmp_path / "plain")
    assert plain.correct and plain.failed == 0 and plain.attempted > 0, plain.failures
    # After two steps nothing may be learned yet, so only val_score may read 0.
    assert all(m.value is not None and (m.value > 0 or name == "val_score")
               for name, m in plain.metrics.items())
    traced = W.run_workload(spec, 12, 0.0, True, tmp_path / "traced")
    again = W.run_workload(spec, 12, 0.0, True, tmp_path / "again")
    assert traced.correct and again.correct
    exact = ("tensor.tape_entries_per_step", "losses.track_anchors",
             "losses.track_skipped", "params.stage1", "params.stage2",
             "corpus.train_frames", "corpus.val_frames")
    for name in exact:
        assert traced.metrics[name].value == again.metrics[name].value, name
    assert traced.metrics["tensor.tape_entries_per_step"].value > 0
    assert set(W.SPAN_MS) <= set(traced.metrics)


def test_a_cache_that_drops_a_frame_fails_the_checks(tmp_path):
    def drop_last(fn):
        def flatten_cache(pipe, corpus):
            return fn(pipe, corpus)[:-1]
        return flatten_cache

    patches = Patches()
    patches.replace(train, "flatten_cache", drop_last)
    try:
        report = W.run_workload(TINY[2], 13, 0.0, False, tmp_path)
    finally:
        patches.undo()
    assert not report.correct and report.failed > 0
    assert any("corpus passes covered" in f for f in report.failures), report.failures


def test_wrapper_returns_and_raises_exactly_what_the_call_does():
    recorder = Recorder()
    token = object()
    assert recorder.wrap(lambda x: x, "identity")(token) is token

    def boom():
        raise KeyError("k")

    with pytest.raises(KeyError):
        recorder.wrap(boom, "boom")()
    assert [s[0] for s in recorder.spans] == ["identity", "boom"]


def test_patched_public_functions_return_the_same_values_and_restore():
    rng = np.random.default_rng(0)
    cost = rng.random((6, 4))
    expected = losses.hungarian_match(cost)
    originals = {(owner, attr): vars(owner)[attr]
                 for owner, attr in ((losses, "hungarian_match"),
                                     (pipeline, "match_frame"),
                                     (train.Corpus, "load"))}
    recorder, patches = Recorder(), Patches()
    W.install_spans(patches, recorder)
    try:
        assert vars(losses)["hungarian_match"] is not originals[(losses, "hungarian_match")]
        assert isinstance(vars(train.Corpus)["load"], staticmethod)
        assert losses.hungarian_match(cost) == expected
        assert recorder.spans[-1][0] == "losses.hungarian_match"
    finally:
        patches.undo()
    for (owner, attr), raw in originals.items():
        assert vars(owner)[attr] is raw


def test_self_time_and_coverage_of_nested_spans():
    spans = [("root", 0.0, 10.0, -1), ("a", 1.0, 4.0, 0), ("b", 2.0, 3.0, 1),
             ("c", 6.0, 9.0, 0)]
    stats = span_stats(spans)
    assert stats["root"][2] == pytest.approx(4.0)
    assert stats["a"][2] == pytest.approx(2.0)
    assert stats["b"][2] == pytest.approx(1.0)
    assert covered_time(spans, [(0.0, 5.0), (5.0, 10.0)]) == pytest.approx(6.0)
