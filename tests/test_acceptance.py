"""Acceptance criteria, one test per criterion, at the stated tolerances.

Run with `pytest tests/test_acceptance.py -v -s` to see one PASS/FAIL line per
criterion. Criteria 3, 4 and 6 encode the classic T-maze agent comparison;
see the README section on the tie structure of this task before interpreting
their outcomes. Criterion 4 checks the sampling reward agent against the mean
score its protocol implies, derived below from the task parameters. Criteria 3
and 6 expect cue-seeking from the EFE agent, which this task does not produce:
all 16 first-decision policies tie exactly, argmax selection takes the lowest
tied action (go-middle) twice, and the cue is never seen. Their report lines
print the t=0 spread of the policy totals and the tie rule applied.
"""
from __future__ import annotations

import time

import numpy as np
import pytest

import efeplan as ep
from efeplan.data import data_path
from efeplan.envs import (
    CUE_OBS,
    OBS_CUE_BLACK,
    OBS_LEFT_REWARD,
    OBS_MIDDLE_NULL,
    OBS_RIGHT_PUNISH,
)
from efeplan.maths import softmax

from conftest import random_model, simulate_history


def report(num: int, name: str, ok: bool, detail: str = "") -> bool:
    status = "PASS" if ok else "FAIL"
    suffix = f" -- {detail}" if detail else ""
    print(f"\nACCEPTANCE {num} [{name}]: {status}{suffix}")
    return ok


def context_marginal(beliefs: ep.MarginalBeliefs, timestep: int) -> np.ndarray:
    probs = beliefs[timestep].probs
    return np.array([probs[0::2].sum(), probs[1::2].sum()])


def tmaze_tie_cause() -> str:
    """The spread of the T-maze's t=0 policy totals and the argmax tie rule."""
    _, rows = ep.efe_table(ep.tmaze_model(), ep.History((0,), ()))
    totals = [bd.total for bd in rows]
    return (
        f"cause: the {len(totals)} t=0 policy totals spread only "
        f"{max(totals) - min(totals):.1e} nats (an exact tie), and argmax treats "
        f"action-marginal entries within {ep.ARGMAX_TIE_ATOL:g} of the max as "
        f"tied, taking the lowest index (go-middle)"
    )


def reward_agent_expected_score(params: ep.TMazeParams, gamma: float) -> float:
    """Mean T-maze score of the sampling reward agent under the harness protocol.

    The agent samples its action marginal and replans after every step, with
    rewards equal to the observation log-preferences. Before any information
    every policy's expected reward is 0 (the arm log-preferences are +-c), so
    the first move is uniform over the four locations:
      * an arm (1/2): reward or punishment with equal odds;
      * the cue (1/4): the context is known, and the second move is a softmax
        over the landing rewards of (middle, reward arm, punishment arm, cue);
      * the middle (1/4): nothing is learned, the second move is uniform again,
        and only the punishment arm (1/4) scores.
    """
    assert params.reward_log_pref == -params.punish_log_pref
    log_pref = ep.tmaze_model(params).preferences.obs_log_pref
    # after cue-black the context is reward-left: top-left rewards, top-right punishes
    after_cue = softmax(
        gamma
        * log_pref[[OBS_MIDDLE_NULL, OBS_LEFT_REWARD, OBS_RIGHT_PUNISH, OBS_CUE_BLACK]]
    )
    p_reward, p_punish = after_cue[1], after_cue[2]
    arm_first = (params.direct_reward + params.punishment) / 4
    cue_first = (params.cue_reward * p_reward + params.punishment * p_punish) / 4
    middle_first = params.punishment / 16
    return float(arm_first + cue_first + middle_first)


def test_acceptance_1_decomposition_identities():
    budget, tol_id, tol_res = 60.0, 1e-9, -1e-12
    start = time.perf_counter()
    rng = np.random.default_rng(1001)
    worst_id1 = worst_id2 = 0.0
    worst_res = np.inf
    for _ in range(1000):
        model = random_model(rng, max_states=6, max_obs=6, max_actions=3, max_horizon=4)
        history = simulate_history(rng, model)
        _, rows = ep.efe_table(model, history)
        for bd in rows:
            worst_id1 = max(worst_id1, abs(bd.total - (bd.risk + bd.ambiguity)))
            worst_id2 = max(
                worst_id2, abs(bd.total - (-bd.extrinsic - bd.intrinsic + bd.residual))
            )
            worst_res = min(worst_res, bd.residual)
    elapsed = time.perf_counter() - start
    ok = worst_id1 <= tol_id and worst_id2 <= tol_id and worst_res >= tol_res and elapsed < budget
    assert report(
        1,
        "decomposition identities",
        ok,
        f"worst |total-(risk+amb)|={worst_id1:.2e}, "
        f"worst |total-(-ext-int+res)|={worst_id2:.2e}, "
        f"min residual={worst_res:.2e}, {elapsed:.1f}s over 1000 models",
    )


def test_acceptance_2_oracle_equivalence():
    budget, tol = 120.0, 1e-10
    start = time.perf_counter()
    rng = np.random.default_rng(2002)
    worst = 0.0
    checked = 0
    while checked < 500:
        model = random_model(rng, max_states=6, max_obs=6, max_actions=3, max_horizon=4)
        if model.n_states ** (model.horizon + 1) > 10**5:
            continue
        history = simulate_history(rng, model)
        remaining = model.horizon - history.t
        policy = ep.Policy(tuple(rng.integers(0, model.n_actions, size=remaining)))
        enum_marginals = ep.enumerate_posterior(model, history, policy).marginals(
            model.n_states
        )
        fb = ep.filter_and_smooth(model, history, policy)
        for tau in range(len(fb)):
            worst = max(
                worst, float(np.abs(enum_marginals[tau].probs - fb[tau].probs).max())
            )
        checked += 1
    elapsed = time.perf_counter() - start
    ok = worst <= tol and elapsed < budget
    assert report(
        2,
        "oracle equivalence",
        ok,
        f"max marginal gap {worst:.2e} over 500 models, {elapsed:.1f}s",
    )


def test_acceptance_3_tmaze_efe_agent_cue_route():
    budget = 5.0
    start = time.perf_counter()
    config = ep.config_from_dict(
        {
            "environment": {"name": "tmaze"},
            "agents": ["efe"],
            "gamma": 1.0,
            "n_trials": 50,
            "master_seed": 2026,
        }
    )
    result = ep.run_experiment(config)
    records = result.records["efe"]
    failures = []
    for rec in records:
        reward_arm = 1 if rec.context == 0 else 2
        if rec.actions != (3, reward_arm):
            failures.append(f"trial {rec.trial_index}: actions {rec.actions}")
        elif rec.score != 5.0:
            failures.append(f"trial {rec.trial_index}: score {rec.score}")
    cumulative = result.summary["agents"]["efe"]["cumulative"][-1]
    elapsed = time.perf_counter() - start
    ok = not failures and cumulative == 250.0 and elapsed < budget
    assert report(
        3,
        "EFE agent: bottom then reward arm, +5 every trial",
        ok,
        f"{len(failures)}/50 trials off-route, cumulative={cumulative}, "
        f"{elapsed:.1f}s"
        + (f"; first deviation: {failures[0]}" if failures else "")
        + f"; {tmaze_tie_cause()}",
    )


# The name keeps the criterion's original wording, "mean score 0". Under the
# documented protocol (uniform sampling among tied policies, replanning after
# every step) the expected mean is not 0 but reward_agent_expected_score,
# about +0.62 with the default T-maze, so the test checks against that.
def test_acceptance_4_reward_agent_mean_score_zero():
    budget, n = 60.0, 10_000
    start = time.perf_counter()
    config = ep.config_from_dict(
        {
            "environment": {"name": "tmaze"},
            "agents": ["reward"],
            "gamma": 1.0,
            "n_trials": n,
            "master_seed": 424242,
        }
    )
    expected = reward_agent_expected_score(
        ep.TMazeParams.from_overrides(config.env_overrides), config.gamma
    )
    result = ep.run_experiment(config)
    agent = result.summary["agents"]["reward"]
    mean, se = agent["mean"], agent["std_error"]
    elapsed = time.perf_counter() - start
    ok = abs(mean - expected) <= 3 * se and elapsed < budget
    assert report(
        4,
        "reward maximizer: mean score within 3 SE of its derived expectation",
        ok,
        f"mean={mean:.4f}, expected={expected:.5f}, 3*SE={3 * se:.4f}, "
        f"{elapsed:.1f}s over {n} trials",
    )


def test_acceptance_5_info_gain_agent_disambiguates():
    tol = 1e-9
    stayed_middle = 0
    undisambiguated = 0
    n_checked = 0

    def check(rec: ep.TrialRecord, trace: ep.BeliefTrace):
        nonlocal stayed_middle, undisambiguated, n_checked
        n_checked += 1
        if rec.actions[0] == 0:
            stayed_middle += 1
        ctx = context_marginal(trace.held_at[1], 1)
        if abs(ctx[rec.context] - 1.0) > tol:
            undisambiguated += 1

    for master_seed in range(100):
        model, env = ep.make_environment("tmaze")
        rec, trace = ep.run_trial(
            model,
            env,
            ep.ObjectiveKind.INFO_GAIN_ONLY,
            1.0,
            ep.SelectionMode.ARGMAX,
            ep.derive_rng(master_seed, 0, 0),
        )
        check(rec, trace)
    config = ep.config_from_dict(
        {
            "environment": {"name": "tmaze"},
            "agents": ["info_gain"],
            "gamma": 1.0,
            "n_trials": 200,
            "master_seed": 555,
        }
    )
    result = ep.run_experiment(config)
    for rec, trace in zip(result.records["info_gain"], result.traces["info_gain"]):
        check(rec, trace)

    ok = stayed_middle == 0 and undisambiguated == 0
    assert report(
        5,
        "info-gain agent: leaves middle, resolves context by t=1",
        ok,
        f"{stayed_middle}/{n_checked} stayed middle, "
        f"{undisambiguated}/{n_checked} left context unresolved",
    )


def test_acceptance_6_efe_agent_belief_trace_flips_at_cue():
    tol = 1e-9
    model, env = ep.make_environment("tmaze")
    rec, trace = ep.run_trial(
        model,
        env,
        ep.ObjectiveKind.EXPECTED_FREE_ENERGY,
        1.0,
        ep.SelectionMode.ARGMAX,
        ep.derive_rng(2026, 0, 0),
    )
    pre_cue = context_marginal(trace.held_at[0], 0)
    pre_ok = np.allclose(pre_cue, [0.5, 0.5], atol=tol)
    saw_cue = rec.observations[1] in CUE_OBS
    if saw_cue:
        post = context_marginal(trace.held_at[1], 1)
        post_ok = abs(post[rec.context] - 1.0) <= tol
        detail = f"pre-cue {pre_cue.round(6)}, post-cue {post.round(6)}"
    else:
        post_ok = False
        detail = (
            f"pre-cue {pre_cue.round(6)}, but the agent never visited the cue "
            f"(observations {rec.observations})"
        )
    ok = pre_ok and saw_cue and post_ok
    detail += f"; {tmaze_tie_cause()}"
    assert report(6, "EFE agent belief trace: 1/2-1/2 then 1.0 after the cue", ok, detail)


def test_acceptance_7_normalization_and_invariance_suite():
    tol_norm, tol_shift = 1e-10, 1e-10
    rng = np.random.default_rng(7007)
    worst_norm = 0.0
    worst_shift = 0.0
    argmax_stable = True
    unique_checked = 0
    for _ in range(200):
        model = random_model(rng)
        history = simulate_history(rng, model)

        posterior = ep.policy_posterior(model, history)
        worst_norm = max(worst_norm, abs(posterior.probs.probs.sum() - 1.0))
        marginal = ep.action_marginal(posterior, model.n_actions)
        worst_norm = max(worst_norm, abs(marginal.probs.sum() - 1.0))
        pref = ep.preferential_inference(model, history)
        for cat in (*pref.future_states, *pref.future_obs, *pref.past):
            worst_norm = max(worst_norm, abs(cat.probs.sum() - 1.0))

        shifted = ep.make_model(
            likelihood=model.likelihood.matrix,
            transitions=model.transitions.tensor,
            initial_belief=model.initial_belief.probs,
            obs_log_pref=model.preferences.obs_log_pref + float(rng.uniform(-8, 8)),
            horizon=model.horizon,
        )
        _, rows_a = ep.efe_table(model, history)
        _, rows_b = ep.efe_table(shifted, history)
        for a, b in zip(rows_a, rows_b):
            for x, y in zip(a.as_row(), b.as_row()):
                worst_shift = max(worst_shift, abs(x - y))

        totals = np.array([r.total for r in rows_a])
        srt = np.sort(totals)
        if len(srt) >= 2 and srt[1] - srt[0] > 1e-6:
            unique_checked += 1
            argmaxes = {
                int(np.argmax(ep.policy_posterior(model, history, gamma=g).probs.probs))
                for g in (0.5, 1.0, 2.0, 10.0)
            }
            argmax_stable = argmax_stable and len(argmaxes) == 1

    ok = worst_norm <= tol_norm and worst_shift <= tol_shift and argmax_stable
    assert report(
        7,
        "normalization, shift and precision invariance",
        ok,
        f"worst normalization gap {worst_norm:.2e}, worst shift effect "
        f"{worst_shift:.2e}, argmax stable on {unique_checked} unique-minimizer models",
    )


def test_acceptance_8_fig2_config_byte_identical_reruns(tmp_path):
    config = ep.load_config(data_path("fig2.json"))
    dir_a, dir_b = tmp_path / "run_a", tmp_path / "run_b"
    ep.write_outputs(ep.run_experiment(config), dir_a)
    ep.write_outputs(ep.run_experiment(config), dir_b)
    names = ("trials.csv", "beliefs.csv", "efe.csv", "summary.json")
    same = {name: (dir_a / name).read_bytes() == (dir_b / name).read_bytes() for name in names}
    ok = all(same.values())
    assert report(
        8,
        "bundled fig2 config: byte-identical reruns",
        ok,
        ", ".join(f"{n}={'same' if v else 'DIFFERS'}" for n, v in same.items()),
    )
