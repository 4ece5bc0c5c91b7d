"""Closed-loop rollouts: the expert's walk on every subset, one policy step
per world step, never one past the horizon or the success break, slots handed
on only with carryover, and a token budget that counts what the decoder
receives."""

import pytest

from slotforge import evaluate
from slotforge.cli import EXIT_OK, main
from slotforge.config import RunConfig, load_config
from slotforge.pipeline import Pipeline
from slotforge.world import World

# (seed, task, success, steps) of `eval --expert` rollouts on world seeds 0-5
# at rollout_horizon=200, per subset preset
EXPERT_ROLLOUTS = {
    "goal": [
        (0, 'robot put the blue square on the blue circle', True, 25),
        (1, 'robot put the yellow circle on the red circle', True, 25),
        (2, 'robot put the red square on the blue square', True, 16),
        (3, 'robot put the blue square on the yellow square', True, 22),
        (4, 'robot put the green square on the yellow circle', True, 26),
        (5, 'robot put the blue circle on the red circle', True, 26),
    ],
    "object": [
        (0, 'robot put the green square on the cyan square', True, 19),
        (1, 'robot put the green circle on the red circle', True, 19),
        (2, 'robot put the yellow square on the magenta circle', True, 26),
        (3, 'robot put the red circle on the green circle', True, 26),
        (4, 'robot put the blue square on the magenta circle', True, 20),
        (5, 'robot put the red square on the blue circle', True, 20),
    ],
    "spatial": [
        (0, 'robot put the green square on the blue square', True, 26),
        (1, 'robot put the yellow square on the blue square', True, 26),
        (2, 'robot put the blue circle on the blue square', True, 17),
        (3, 'robot put the red square on the cyan circle', True, 10),
        (4, 'robot put the green square on the magenta circle', True, 23),
        (5, 'robot put the cyan circle on the yellow circle', True, 29),
    ],
    "long": [
        (0, 'robot put the magenta diamond on the cyan square', True, 22),
        (1, 'robot put the purple triangle on the green square', True, 20),
        (2, 'robot put the yellow square on the purple circle', True, 23),
        (3, 'robot put the orange square on the magenta circle', True, 28),
        (4, 'robot put the cyan triangle on the green diamond', True, 20),
        (5, 'robot put the purple circle on the cyan circle', True, 31),
    ],
    "pair": [
        (0, 'robot put the yellow square on the blue square', True, 21),
        (1, 'robot put the red circle on the yellow square', True, 20),
        (2, 'robot put the red square on the red circle', True, 20),
        (3, 'robot put the red square on the green circle', True, 20),
        (4, 'robot put the yellow square on the green square', True, 20),
        (5, 'robot put the yellow square on the green square', True, 20),
    ],
}


def expert_rollouts(monkeypatch, tmp_path, subset, n):
    """(seed, task, success, steps) of the `eval --expert` rollouts on `subset`,
    the i-th on world seed i."""
    real, results = evaluate.run_rollout, []

    def run_rollout(pipeline, cfg, seed, **kwargs):
        result = real(pipeline, cfg, len(results), **kwargs)
        results.append((result.seed, result.task, result.success, result.steps))
        return result

    monkeypatch.setattr(evaluate, "run_rollout", run_rollout)
    argv = ["eval", "--expert", "--rollouts", str(n), "--override", f"subset={subset}",
            "--override", "rollout_horizon=200", "--out", str(tmp_path / "out")]
    assert main(argv) == EXIT_OK
    return results


@pytest.mark.parametrize("subset", ["goal", "object", "spatial", "long", "pair"])
def test_expert_rollouts_are_pinned(subset, monkeypatch, tmp_path):
    assert expert_rollouts(monkeypatch, tmp_path, subset, 6) == EXPERT_ROLLOUTS[subset]


@pytest.fixture(scope="module")
def policy():
    cfg = RunConfig(rollout_horizon=5)
    return cfg, Pipeline(cfg)


@pytest.fixture
def policy_calls(monkeypatch):
    """The `t` of every `Pipeline.policy_step` call while a test runs."""
    calls, real = [], Pipeline.policy_step

    def policy_step(self, rgb, proprio, task, prev_slots, episode_key, t):
        calls.append(t)
        return real(self, rgb, proprio, task, prev_slots, episode_key, t)

    monkeypatch.setattr(Pipeline, "policy_step", policy_step)
    return calls


def test_a_rollout_to_the_horizon_steps_the_policy_once_per_step(policy, policy_calls,
                                                                 monkeypatch):
    cfg, pipeline = policy
    monkeypatch.setattr(World, "success", lambda self: False)
    result = evaluate.run_rollout(pipeline, cfg, 7)
    assert (result.steps, result.success) == (5, False)
    assert policy_calls == [0, 1, 2, 3, 4]


@pytest.mark.parametrize("k", [1, 3])
def test_a_rollout_that_succeeds_stops_the_policy_there(k, policy, policy_calls,
                                                        monkeypatch):
    cfg, pipeline = policy
    monkeypatch.setattr(World, "success", lambda self: self.t >= k)
    result = evaluate.run_rollout(pipeline, cfg, 7)
    assert (result.steps, result.success) == (k, True)
    assert policy_calls == list(range(k))


@pytest.mark.parametrize("carryover_on", [True, False], ids=["carryover", "no-carryover"])
def test_a_rollout_hands_each_policy_step_the_last_slots_only_with_carryover(
        carryover_on, monkeypatch):
    cfg = RunConfig(rollout_horizon=5, carryover_on=carryover_on)
    handed, returned, real = [], [], Pipeline.policy_step

    def policy_step(self, rgb, proprio, task, prev_slots, episode_key, t):
        handed.append(prev_slots)
        result = real(self, rgb, proprio, task, prev_slots, episode_key, t)
        returned.append(result[1])
        return result

    monkeypatch.setattr(Pipeline, "policy_step", policy_step)
    monkeypatch.setattr(World, "success", lambda self: False)
    evaluate.run_rollout(Pipeline(cfg), cfg, 7)
    assert len(handed) == 5
    expected = [None] + returned[:-1] if carryover_on else [None] * 5
    assert all(a is b for a, b in zip(handed, expected))


@pytest.mark.parametrize("overrides, oc, orc", [
    ([], 4, 20),
    (["filter_on=false", "relations_on=false"], 16, 16),
    (["filter_on=false"], 16, 32),
    (["relations_on=false"], 4, 4),
], ids=["default", "no-filter-no-relations", "no-filter", "no-relations"])
def test_the_budget_counts_the_tokens_the_decoder_receives(overrides, oc, orc, capsys,
                                                           monkeypatch):
    """`budget`'s configured OC and ORC rows are the object tokens, and those
    plus the relation tokens, that a policy step hands the decoder."""
    overrides = ["subset=goal"] + overrides
    assert main(["budget"] + [arg for o in overrides for arg in ("--override", o)]) == EXIT_OK
    printed = {line[:24].strip(): int(line[24:].split()[0])
               for line in capsys.readouterr().out.splitlines()[1:]}
    assert (printed["configured OC"], printed["configured ORC"]) == (oc, orc)

    cfg = load_config(overrides=overrides)
    pipeline, received = Pipeline(cfg), []
    assemble = pipeline.decoder.assemble_bundle

    def recording_assemble(objects, rel, language, proprio):
        received.append((objects.shape[0], 0 if rel is None else rel.shape[0]))
        return assemble(objects, rel, language, proprio)

    monkeypatch.setattr(pipeline.decoder, "assemble_bundle", recording_assemble)
    world = World(cfg.world_config(), 3)
    rgb, _ = world.render()
    pipeline.policy_step(rgb, world.proprio(), world.task, None, 3, 0)
    [(objects, relations)] = received
    assert (objects, objects + relations) == (oc, orc)
