"""T-maze construction, dynamics/emissions, and trajectory scoring."""
from __future__ import annotations

import numpy as np
import pytest

import efeplan as ep
from efeplan import envs
from efeplan.envs import (
    ACTION_LABELS,
    CUE_OBS,
    HORIZON,
    N_ACTIONS,
    N_STATES,
    OBS_CUE_BLACK,
    OBS_CUE_WHITE,
    OBS_LEFT_REWARD,
    OBS_MIDDLE_NULL,
    PUNISH_OBS,
    REWARD_OBS,
    TMazeEnv,
    TMazeParams,
    state_index,
    tmaze_emission,
    tmaze_transition,
)


def test_tmaze_model_validates():
    assert ep.validate_model(ep.tmaze_model()).ok


def test_cue_discloses_context():
    model = ep.tmaze_model()
    s = state_index(3, 0)  # (bottom, reward-left)
    assert model.likelihood.matrix[OBS_CUE_BLACK, s] == 1.0
    s = state_index(3, 1)
    assert model.likelihood.matrix[OBS_CUE_WHITE, s] == 1.0


def test_top_arms_absorb():
    model = ep.tmaze_model()
    B = model.transitions.tensor
    for ctx in (0, 1):
        for loc in (1, 2):
            s = state_index(loc, ctx)
            for a in range(N_ACTIONS):
                assert B[a, s, s] == 1.0  # stays put under every action
    # and from (top-left, .), go-bottom keeps the location
    s = state_index(1, 0)
    assert tmaze_transition(s, 3) == s


def test_context_never_changes():
    model = ep.tmaze_model()
    B = model.transitions.tensor
    for a in range(N_ACTIONS):
        for s in range(N_STATES):
            s2 = int(B[a, :, s].argmax())
            assert s2 % 2 == s % 2


def test_environment_matches_model_tensors_exactly():
    # exhaustive over all 8 states x 4 actions: the environment's transition
    # and emission land exactly where the model puts probability 1
    model = ep.tmaze_model()
    A = model.likelihood.matrix
    B = model.transitions.tensor
    for s in range(N_STATES):
        assert A[tmaze_emission(s), s] == 1.0
        for a in range(N_ACTIONS):
            assert B[a, tmaze_transition(s, a), s] == 1.0


def test_reset_returns_middle_null_and_seeded_context():
    env = TMazeEnv()
    obs = env.reset(123)
    assert obs == OBS_MIDDLE_NULL
    ctx_a = env.ground_truth() % 2
    env2 = TMazeEnv()
    env2.reset(123)
    assert env2.ground_truth() % 2 == ctx_a


def test_contexts_vary_across_seeds():
    seen = set()
    for seed in range(16):
        env = TMazeEnv()
        env.reset(seed)
        seen.add(env.ground_truth() % 2)
    assert seen == {0, 1}


def test_step_sequence_and_done():
    env = TMazeEnv()
    env.reset(0)
    # force context reward-left for a deterministic check
    env._state = state_index(0, 0)
    obs, done = env.step(3)
    assert obs == OBS_CUE_BLACK and not done
    obs, done = env.step(1)
    assert obs == OBS_LEFT_REWARD and done
    with pytest.raises(ep.StepAfterDone):
        env.step(0)


def test_score_cue_then_reward():
    assert ep.score_trajectory([0, 5, 1], [3, 1]) == 5.0


def test_score_direct_reward_counted_once():
    assert ep.score_trajectory([0, 1, 1], [1, 1]) == 10.0


def test_score_nothing():
    assert ep.score_trajectory([0, 0, 0], [0, 0]) == 0.0


def test_score_punishment_any_position():
    assert ep.score_trajectory([0, 2, 2], [1, 0]) == -10.0
    assert ep.score_trajectory([0, 5, 4], [3, 2]) == -10.0
    assert ep.score_trajectory([0, 0, 2], [0, 1]) == -10.0


def test_score_late_reward_without_cue_is_zero():
    # reaching the reward only at t=2 via the middle scores nothing
    assert ep.score_trajectory([0, 0, 1], [0, 1]) == 0.0


def test_score_rejects_malformed():
    with pytest.raises(ep.MalformedTrajectory):
        ep.score_trajectory([0, 5], [3])
    with pytest.raises(ep.MalformedTrajectory):
        ep.score_trajectory([0, 5, 9], [3, 1])


def test_scores_only_take_the_four_values():
    rng = np.random.default_rng(11)
    values = set()
    for _ in range(300):
        env = TMazeEnv()
        obs = [env.reset(rng)]
        acts = []
        done = False
        while not done:
            a = int(rng.integers(0, N_ACTIONS))
            o, done = env.step(a)
            obs.append(o)
            acts.append(a)
        values.add(env.score(obs, acts))
    assert values == {-10.0, 0.0, 5.0, 10.0}


def test_param_overrides():
    params = TMazeParams.from_overrides({"reward_log_pref": 3.0, "cue_reward": 2.0})
    model = ep.tmaze_model(params)
    assert model.preferences.obs_log_pref[OBS_LEFT_REWARD] == 3.0
    assert ep.score_trajectory([0, 5, 1], [3, 1], params) == 2.0
    assert TMazeParams.from_overrides({"punishment": -4}).punishment == -4
    with pytest.raises(ValueError, match="unknown T-maze overrides"):
        TMazeParams.from_overrides({"bogus": 1})


@pytest.mark.parametrize(
    "value", ["abc", "5", True, None, [1.0], float("nan"), float("inf")]
)
def test_overrides_must_be_finite_numbers(monkeypatch, value):
    def no_model(*args, **kwargs):
        raise AssertionError("model built before the overrides were checked")

    monkeypatch.setattr(envs, "tmaze_model", no_model)
    with pytest.raises(ValueError, match="cue_reward"):
        ep.make_environment("tmaze", {"reward_log_pref": 3, "cue_reward": value})


def test_make_environment_registry():
    model, env = ep.make_environment("tmaze", {"punishment": -4.0})
    assert isinstance(env, TMazeEnv)
    assert env.params.punishment == -4.0
    assert ep.validate_model(model).ok
    with pytest.raises(ValueError, match="unknown environment"):
        ep.make_environment("cartpole")


def test_labels_cover_spaces():
    model = ep.tmaze_model()
    assert len(model.state_labels) == N_STATES
    assert len(model.obs_labels) == len(REWARD_OBS) + len(PUNISH_OBS) + len(CUE_OBS) + 1
    assert len(ACTION_LABELS) == N_ACTIONS
    assert model.horizon == HORIZON
