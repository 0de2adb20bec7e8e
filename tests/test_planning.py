"""Objective decompositions, policy posteriors, and action selection."""
from __future__ import annotations

import itertools
import json
import math
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import efeplan as ep
from efeplan import cli, planning
from efeplan.maths import kl_divergence, softmax
from efeplan.model import pullback_preferences

from conftest import random_model, simulate_history


def random_policy(rng, model, history):
    remaining = model.horizon - history.t
    return ep.Policy(tuple(rng.integers(0, model.n_actions, size=remaining)))


# --- decomposition identities -------------------------------------------------

def test_matched_preferences_deterministic_likelihood_zero_total():
    # transitions that reset every state to the preference distribution make
    # the predicted marginal equal the preferred marginal at every future
    # step; with a deterministic likelihood both objective terms vanish.
    C = np.array([0.7, -0.3, 1.1])
    prefs = softmax(C)
    reset = np.tile(prefs[:, None], (1, 3))
    model = ep.make_model(
        likelihood=np.eye(3),
        transitions=np.stack([reset]),
        initial_belief=[0.2, 0.5, 0.3],
        obs_log_pref=C,
        horizon=2,
    )
    breakdown = ep.efe_breakdown(model, ep.History((1,), ()), ep.Policy((0, 0)))
    assert breakdown.ambiguity == pytest.approx(0.0, abs=1e-12)
    assert breakdown.risk == pytest.approx(0.0, abs=1e-12)
    assert breakdown.total == pytest.approx(0.0, abs=1e-12)


def test_deterministic_likelihood_forces_zero_ambiguity(rng):
    for _ in range(20):
        model = random_model(rng, deterministic_likelihood=True)
        history = simulate_history(rng, model)
        policy = random_policy(rng, model, history)
        bd = ep.efe_breakdown(model, history, policy)
        assert bd.ambiguity == pytest.approx(0.0, abs=1e-12)
        assert bd.total == pytest.approx(bd.risk, abs=1e-12)


def test_decomposition_identities_random_corpus(rng):
    for _ in range(150):
        model = random_model(rng)
        history = simulate_history(rng, model)
        _, rows = ep.efe_table(model, history)
        for bd in rows:
            assert abs(bd.total - (bd.risk + bd.ambiguity)) <= 1e-9
            assert abs(bd.total - (-bd.extrinsic - bd.intrinsic + bd.residual)) <= 1e-9
            assert bd.risk >= -1e-12
            assert bd.ambiguity >= -1e-12
            assert bd.intrinsic >= -1e-12
            assert bd.residual >= -1e-12


def test_residual_matches_direct_preference_posterior_form(rng):
    # residual-by-subtraction equals E_o[KL(predictive posterior || preference
    # posterior)] summed over future steps, computed here from scratch.
    for _ in range(25):
        model = random_model(rng)
        history = simulate_history(rng, model)
        policy = random_policy(rng, model, history)
        bd = ep.efe_breakdown(model, history, policy)

        A = model.likelihood.matrix
        pref_states = pullback_preferences(model)
        m_obs = A @ pref_states.probs
        beliefs = ep.filter_and_smooth(model, history, policy)
        direct = 0.0
        for tau in range(history.t + 1, len(beliefs)):
            q = beliefs[tau].probs
            qo = A @ q
            for o in range(model.n_obs):
                if qo[o] <= 0:
                    continue
                post = A[o] * q / qo[o]
                pref_post = A[o] * pref_states.probs / m_obs[o]
                direct += qo[o] * kl_divergence(post, pref_post)
        assert direct == pytest.approx(bd.residual, abs=1e-9)


def test_efe_table_matches_reference_breakdown(rng):
    # the prefix-shared tree evaluation and the single-policy forward-backward
    # route must agree on every field
    for _ in range(10):
        model = random_model(rng)
        history = simulate_history(rng, model)
        policies, rows = ep.efe_table(model, history)
        for policy, fast in zip(policies, rows):
            ref = ep.efe_breakdown(model, history, policy)
            for a, b in zip(fast.as_row(), ref.as_row()):
                assert a == pytest.approx(b, abs=1e-10)


def test_preference_shift_leaves_breakdown_unchanged(rng):
    for _ in range(10):
        model = random_model(rng)
        history = simulate_history(rng, model)
        policy = random_policy(rng, model, history)
        shifted = ep.make_model(
            likelihood=model.likelihood.matrix,
            transitions=model.transitions.tensor,
            initial_belief=model.initial_belief.probs,
            obs_log_pref=model.preferences.obs_log_pref - 4.2,
            horizon=model.horizon,
        )
        a = ep.efe_breakdown(model, history, policy)
        b = ep.efe_breakdown(shifted, history, policy)
        for x, y in zip(a.as_row(), b.as_row()):
            assert abs(x - y) <= 1e-10


# --- T-maze golden values -----------------------------------------------------

TMAZE_T0_TOTAL = 12.00990274055092  # frozen from full 16-policy enumeration


def test_tmaze_t0_policy_table_golden():
    # Independent derivation: every policy's predicted marginal is a 1/2-1/2
    # mixture over the two contexts at some location; with the +-6 preference
    # logs canceling in expectation, each future step contributes
    # log(Z/2), Z = sum_s exp(state_log_pref[s]). Ambiguity is identically 0.
    z = 4.0 + 2.0 * np.exp(6.0) + 2.0 * np.exp(-6.0)
    analytic = 2.0 * np.log(z / 2.0)
    assert analytic == pytest.approx(TMAZE_T0_TOTAL, abs=1e-11)

    model = ep.tmaze_model()
    policies, rows = ep.efe_table(model, ep.History((0,), ()))
    assert len(policies) == 16
    for bd in rows:
        assert bd.total == pytest.approx(TMAZE_T0_TOTAL, abs=1e-9)
        assert bd.ambiguity == pytest.approx(0.0, abs=1e-12)
        assert bd.risk == pytest.approx(bd.total, abs=1e-12)
        assert bd.residual == pytest.approx(0.0, abs=1e-10)
    # the tie is exact: the spread across policies is numerical dust
    totals = np.array([bd.total for bd in rows])
    assert totals.max() - totals.min() < 1e-12


def test_tmaze_post_cue_table_golden():
    # After (go-bottom, cue-black) the context is known; risks separate by
    # log-preference of the landed state: ln Z - 6 for the reward arm,
    # ln Z for neutral locations, ln Z + 6 for the punishment arm.
    z = 4.0 + 2.0 * np.exp(6.0) + 2.0 * np.exp(-6.0)
    model = ep.tmaze_model()
    _, rows = ep.efe_table(model, ep.History((0, 5), (3,)))
    expected = [np.log(z), np.log(z) - 6.0, np.log(z) + 6.0, np.log(z)]
    for bd, want in zip(rows, expected):
        assert bd.total == pytest.approx(want, abs=1e-9)
    assert int(np.argmin([bd.total for bd in rows])) == 1  # the reward arm


def test_tmaze_trajectory_exact_gap_is_ln2():
    # Golden value: the trajectory-exact risk exceeds the per-timestep sum by
    # exactly the context mutual information ln 2, for every policy.
    model = ep.tmaze_model()
    history = ep.History((0,), ())
    policies, rows = ep.efe_table(model, history)
    for policy, bd in zip(policies, rows):
        traj = ep.trajectory_objective(model, history, policy)
        assert traj.risk - bd.risk == pytest.approx(np.log(2.0), abs=1e-9)
        assert traj.ambiguity == pytest.approx(bd.ambiguity, abs=1e-12)


# --- trajectory-exact objective ------------------------------------------------

def reference_trajectory_objective(model, history, policy):
    """Trajectory-exact objective: risk over the joint future state sequence.

    The future-sequence posterior comes from full enumeration; the preference
    over a sequence is the product of the i.i.d. per-step state preferences.
    Ambiguity is unchanged (it is already a per-step expectation). The gap
    between this risk and the per-timestep form is the statistical dependence
    of the predicted trajectory across time.
    """
    ctx = model.planner_context
    post = ep.enumerate_posterior(model, history, policy)
    t = history.t
    L = post.sequences.shape[1]
    future = post.sequences[:, t + 1 :]
    suffix_probs: dict[tuple[int, ...], float] = {}
    for seq, p in zip(future, post.probs.probs):
        key = tuple(int(s) for s in seq)
        suffix_probs[key] = suffix_probs.get(key, 0.0) + float(p)

    risk = 0.0
    for seq, p in suffix_probs.items():
        if p <= 0.0:
            continue
        ln_pref = float(np.sum(ctx.ln_pref_states[list(seq)]))
        risk += p * (np.log(p) - ln_pref)

    marginals = post.marginals(model.n_states)
    ambiguity = sum(
        float(marginals[tau].probs @ ctx.col_entropy) for tau in range(t + 1, L)
    )
    return ep.TrajectoryObjective(total=risk + ambiguity, risk=risk, ambiguity=ambiguity)


CORPORA = {
    "dense": {},
    "deterministic_likelihood": {"deterministic_likelihood": True},
    "sparse_transitions": {"sparse_transitions": True},
}


@settings(max_examples=100)
@given(seed=st.integers(0, 2**32 - 1), corpus=st.sampled_from(sorted(CORPORA)))
def test_trajectory_objective_closed_form_properties(seed, corpus):
    rng = np.random.default_rng(seed)
    model = random_model(rng, **CORPORA[corpus])
    history = simulate_history(rng, model)
    policy = random_policy(rng, model, history)

    traj = ep.trajectory_objective(model, history, policy)
    ref = reference_trajectory_objective(model, history, policy)
    assert traj.risk == pytest.approx(ref.risk, abs=1e-10)
    assert traj.ambiguity == pytest.approx(ref.ambiguity, abs=1e-10)
    assert traj.total == pytest.approx(ref.total, abs=1e-10)
    bd = ep.efe_breakdown(model, history, policy)
    assert traj.ambiguity == bd.ambiguity
    assert traj.risk - bd.risk >= -1e-12  # the gap is a sum of mutual informations

    # identical columns make each future state independent of the one before;
    # only the first observation is kept, as the model may not produce the rest
    memoryless = ep.make_model(
        likelihood=model.likelihood.matrix,
        transitions=np.repeat(model.transitions.tensor[:, :, :1], model.n_states, axis=2),
        initial_belief=model.initial_belief.probs,
        obs_log_pref=model.preferences.obs_log_pref,
        horizon=model.horizon,
    )
    history = ep.History(history.observations[:1], ())
    policy = random_policy(rng, memoryless, history)
    traj = ep.trajectory_objective(memoryless, history, policy)
    bd = ep.efe_breakdown(memoryless, history, policy)
    assert traj.risk - bd.risk == pytest.approx(0.0, abs=1e-12)


def test_trajectory_objective_beyond_the_enumeration_cap():
    rng = np.random.default_rng(7)
    model = ep.make_model(
        likelihood=rng.dirichlet(np.ones(5), size=20).T,
        transitions=np.stack([rng.dirichlet(np.ones(20), size=20).T for _ in range(2)]),
        initial_belief=rng.dirichlet(np.ones(20)),
        obs_log_pref=rng.normal(0.0, 2.0, size=5),
        horizon=8,
    )
    history = ep.History((0,), ())
    policy = ep.Policy((0, 1) * 4)
    with pytest.raises(ep.HorizonOverflow):
        ep.enumerate_posterior(model, history, policy)
    traj = ep.trajectory_objective(model, history, policy)
    assert all(np.isfinite(v) for v in (traj.total, traj.risk, traj.ambiguity))
    assert traj.risk - ep.efe_breakdown(model, history, policy).risk >= -1e-12


def test_trajectory_objective_with_no_steps_left():
    model = ep.tmaze_model()
    history = ep.History((0, 1, 1), (1, 1))
    assert ep.trajectory_objective(model, history, ep.Policy(())) == ep.TrajectoryObjective(
        0.0, 0.0, 0.0
    )


def test_trajectory_objective_underflowed_preference_gives_inf_risk():
    # obs_log_pref -800 underflows the preference of state 1 to 0, and the
    # policy reaches state 1 with positive probability
    model = ep.make_model(
        likelihood=np.eye(2),
        transitions=np.full((1, 2, 2), 0.5),
        initial_belief=[1.0, 0.0],
        obs_log_pref=[0.0, -800.0],
        horizon=2,
    )
    assert pullback_preferences(model).probs[1] == 0.0
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        traj = ep.trajectory_objective(model, ep.History((0,), ()), ep.Policy((0, 0)))
    assert traj.risk == np.inf and traj.total == np.inf
    assert traj.ambiguity == 0.0


# --- policy posterior and action selection ------------------------------------

def test_identical_efe_gives_uniform_posterior():
    model = ep.tmaze_model()
    post = ep.policy_posterior(model, ep.History((0,), ()), gamma=1.0)
    assert np.allclose(post.probs.probs, 1.0 / 16.0, atol=1e-12)
    assert abs(post.probs.probs.sum() - 1.0) <= 1e-12
    assert np.all(np.isfinite(post.log_weights))
    # enumeration order is stable and lexicographic
    assert post.policies == ep.enumerate_policies(4, 2)


def test_softmax_of_known_totals_is_analytic():
    # totals {0, ln 2} at gamma=1 -> posterior {2/3, 1/3}
    probs = softmax(-1.0 * np.array([0.0, np.log(2.0)]))
    assert probs[0] == pytest.approx(2.0 / 3.0, abs=1e-12)
    assert probs[1] == pytest.approx(1.0 / 3.0, abs=1e-12)


def test_policy_posterior_is_softmax_of_totals(rng):
    for _ in range(10):
        model = random_model(rng)
        history = simulate_history(rng, model)
        gamma = float(rng.uniform(0.2, 3.0))
        post = ep.policy_posterior(model, history, gamma=gamma)
        _, rows = ep.efe_table(model, history)
        expected = softmax(-gamma * np.array([bd.total for bd in rows]))
        assert np.allclose(post.probs.probs, expected, atol=1e-12)


def test_gamma_scaling_preserves_argmax(rng):
    done = 0
    for _ in range(40):
        model = random_model(rng)
        history = simulate_history(rng, model)
        _, rows = ep.efe_table(model, history)
        totals = np.array([bd.total for bd in rows])
        order = np.sort(totals)
        if len(order) < 2 or order[1] - order[0] < 1e-6:
            continue  # need a unique minimizer
        argmaxes = set()
        for gamma in (0.5, 1.0, 2.0, 10.0):
            post = ep.policy_posterior(model, history, gamma=gamma)
            argmaxes.add(int(np.argmax(post.probs.probs)))
        assert len(argmaxes) == 1
        done += 1
    assert done >= 10


def test_policy_space_cap(monkeypatch):
    # the T-maze tensors at horizon 10 have 4^10 > POLICY_CAP policies; the
    # overflow is raised before any inference runs
    tmaze = ep.tmaze_model()
    model = ep.make_model(
        likelihood=tmaze.likelihood.matrix,
        transitions=tmaze.transitions.tensor,
        initial_belief=tmaze.initial_belief.probs,
        obs_log_pref=tmaze.preferences.obs_log_pref,
        horizon=10,
    )
    assert model.n_actions**model.horizon > planning.POLICY_CAP

    def no_filtering(*args, **kwargs):
        raise AssertionError("filter_and_smooth called before the cap check")

    monkeypatch.setattr(planning, "filter_and_smooth", no_filtering)
    for kind in ep.ObjectiveKind:
        with pytest.raises(ep.PolicySpaceOverflow):
            ep.policy_posterior(
                model,
                ep.History((0,), ()),
                kind=kind,
                reward_per_obs=model.preferences.obs_log_pref,
            )


def test_action_marginal_single_policy_dirac():
    policies = ep.enumerate_policies(4, 2)
    probs = np.zeros(len(policies))
    probs[policies.index(ep.Policy((2, 0)))] = 1.0
    post = ep.PolicyPosterior(
        policies=policies,
        log_weights=np.log(np.maximum(probs, 1e-300)),
        probs=ep.Categorical(probs),
    )
    marg = ep.action_marginal(post, n_actions=4)
    assert np.allclose(marg.probs, [0, 0, 1, 0], atol=0)


def test_action_marginal_two_policies():
    post = ep.PolicyPosterior(
        policies=ep.enumerate_policies(2, 1),
        log_weights=np.array([0.0, 0.0]),
        probs=ep.Categorical([0.7, 0.3]),
    )
    marg = ep.action_marginal(post, n_actions=2)
    assert np.allclose(marg.probs, [0.7, 0.3], atol=1e-12)


def reference_action_marginal(posterior, n_actions):
    """The per-policy marginal loop that np.bincount replaces."""
    marginal = np.zeros(n_actions)
    for policy, prob in zip(posterior.policies, posterior.probs.probs):
        marginal[policy.actions[0]] += prob
    return ep.Categorical(marginal / marginal.sum())


def test_action_marginal_matches_reference_loop_bit_for_bit(rng):
    posteriors = []
    for _ in range(40):
        model = random_model(rng, max_actions=4)
        history = simulate_history(rng, model)
        gamma = float(rng.uniform(0.1, 5.0))
        for kind in ep.ObjectiveKind:
            posteriors.append(
                (
                    ep.policy_posterior(
                        model, history, gamma, kind, model.preferences.obs_log_pref
                    ),
                    model.n_actions,
                )
            )
    # Hand weights: tiny and zero weights, unequal blocks of first actions,
    # and sums whose rounding depends on the order of addition.
    for (n_actions, length), weights, minlength in [
        ((3, 2), [0.1, 0.2, 0.3, 1e-17, 0.4, 0.0, 0.5, 1e-300, 0.25], 4),
        ((3, 1), [1 / 3, 1 / 3, 1 / 3], 3),
        ((2, 2), [0.7, 0.0, 0.1 + 1e-16, 0.2 - 1e-16], 2),
        ((2, 3), [0.1, 0.2, 0.3, 1e-16, 0.2 - 1e-16, 0.1, 0.1 + 1e-16, 0.0], 2),
        ((4, 1), [0.0, 0.0, 0.0, 1.0], 5),
    ]:
        probs = np.asarray(weights) / np.sum(weights)
        posteriors.append(
            (
                ep.PolicyPosterior(
                    policies=ep.enumerate_policies(n_actions, length),
                    log_weights=np.log(np.maximum(probs, 1e-300)),
                    probs=ep.Categorical(probs),
                ),
                minlength,
            )
        )
    for posterior, n_actions in posteriors:
        got = ep.action_marginal(posterior, n_actions).probs
        want = reference_action_marginal(posterior, n_actions).probs
        assert got.shape == want.shape and np.array_equal(got, want)


def test_action_marginal_rejects_out_of_range_first_action():
    post = ep.PolicyPosterior(
        policies=ep.enumerate_policies(5, 1),
        log_weights=np.zeros(5),
        probs=ep.Categorical(np.full(5, 0.2)),
    )
    with pytest.raises(ValueError):
        ep.action_marginal(post, n_actions=4)


def test_enumerate_policies_order_and_cap_before_construction(monkeypatch):
    monkeypatch.setattr(planning, "POLICY_CAP", 81)
    assert tuple(ep.enumerate_policies(3, 4)) == tuple(
        ep.Policy((a, b, c, d))
        for a in range(3)
        for b in range(3)
        for c in range(3)
        for d in range(3)
    )
    # the cap is checked before any space is built
    monkeypatch.setattr(planning, "PolicySpace", None)
    monkeypatch.setattr(planning, "POLICY_CAP", 80)
    with pytest.raises(ep.PolicySpaceOverflow):
        ep.enumerate_policies(3, 4)


@pytest.mark.parametrize(
    "shape", [(1, 1), (4, 2), (3, 4), (5, 3), (3, 0)], ids=lambda shape: "%d^%d" % shape
)
def test_policy_space_index_is_product_order(shape):
    n_actions, length = shape
    space = ep.enumerate_policies(n_actions, length)
    rows = list(itertools.product(range(n_actions), repeat=length))
    assert len(space) == len(rows)
    assert [space[i].actions for i in range(len(space))] == rows
    assert [p.actions for p in space] == rows
    assert space[-1].actions == rows[-1] and space[-len(rows)].actions == rows[0]
    for i in (len(rows), -len(rows) - 1):
        with pytest.raises(IndexError):
            space[i]
    for i in (1.0, slice(0, 1)):
        with pytest.raises(TypeError):
            space[i]
    if length:
        assert space.first_actions.tolist() == [p.actions[0] for p in space]
    else:
        with pytest.raises(ValueError, match="no first action"):
            space.first_actions


def test_policy_space_is_fixed_by_its_shape():
    assert ep.enumerate_policies(4, 2) == planning.PolicySpace(4, 2)
    assert ep.enumerate_policies(4, 2) != ep.enumerate_policies(2, 4)
    assert ep.enumerate_policies(1, 0)[0] == ep.Policy(())
    model = ep.tmaze_model()
    reward = model.preferences.obs_log_pref
    for kind in ep.ObjectiveKind:
        post = ep.policy_posterior(model, ep.History((0,), ()), kind=kind, reward_per_obs=reward)
        assert post.policies == planning.PolicySpace(4, 2)


def test_policy_space_at_the_cap_builds_no_policies():
    tracemalloc.start()
    try:
        space = ep.enumerate_policies(10, 6)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(space) == planning.POLICY_CAP
    assert peak < 64 * 1024


def test_select_action_argmax_tie_breaks_low():
    marg = ep.Categorical([0.25, 0.25, 0.25, 0.25])
    assert ep.select_action(marg, ep.SelectionMode.ARGMAX) == 0


def test_select_action_argmax_ignores_rounding_dust():
    # dust on a higher index loses to the lowest tied index; a real gap wins
    dusty = ep.Categorical([0.25, 0.25 + 1e-16, 0.25, 0.25 - 1e-16])
    assert int(np.argmax(dusty.probs)) == 1
    assert ep.select_action(dusty, ep.SelectionMode.ARGMAX) == 0
    gapped = ep.Categorical([0.25, 0.25 + 1e-6, 0.25, 0.25 - 1e-6])
    assert ep.select_action(gapped, ep.SelectionMode.ARGMAX) == 1


def test_tmaze_first_decision_takes_lowest_tied_action():
    # all 16 first-decision policies tie, so argmax selection goes middle
    model = ep.tmaze_model()
    marginal = ep.action_marginal(ep.policy_posterior(model, ep.History((0,), ())), 4)
    assert ep.select_action(marginal, ep.SelectionMode.ARGMAX) == 0


def test_select_action_dirac_both_modes():
    marg = ep.Categorical([0.0, 1.0, 0.0])
    assert ep.select_action(marg, ep.SelectionMode.ARGMAX) == 1
    rng = np.random.default_rng(5)
    assert ep.select_action(marg, ep.SelectionMode.SAMPLE, rng) == 1


def test_select_action_sample_golden_draw():
    # frozen: default_rng(42) drawing from {0.5, 0.5} yields action 1
    rng = np.random.default_rng(42)
    assert ep.select_action(ep.Categorical([0.5, 0.5]), ep.SelectionMode.SAMPLE, rng) == 1


@given(
    seed=st.integers(0, 2**64 - 1),
    weights=st.lists(
        st.sampled_from([0.0, 1.0]) | st.floats(0.0, 10.0), min_size=1, max_size=8
    ).filter(lambda w: sum(w) > 0),
)
def test_select_action_sample_matches_rng_choice(seed, weights):
    # the same index as rng.choice, and the generator left in the same state
    marginal = ep.Categorical(np.array(weights) / sum(weights))
    rng, ref = np.random.default_rng(seed), np.random.default_rng(seed)
    got = ep.select_action(marginal, ep.SelectionMode.SAMPLE, rng)
    assert got == int(ref.choice(len(marginal), p=marginal.probs))
    assert rng.bit_generator.state == ref.bit_generator.state


def test_select_action_sample_requires_rng():
    with pytest.raises(ValueError):
        ep.select_action(ep.Categorical([0.5, 0.5]), ep.SelectionMode.SAMPLE)


# --- alternative objectives ----------------------------------------------------

def test_zero_reward_vector_scores_zero(rng):
    model = ep.tmaze_model()
    history = ep.History((0,), ())
    for policy in ep.enumerate_policies(4, 2):
        score = ep.alternative_objective(
            model, history, policy, ep.ObjectiveKind.EXPECTED_REWARD, np.zeros(7)
        )
        assert score == pytest.approx(0.0, abs=1e-12)


def test_info_gain_zero_when_state_known():
    # deterministic likelihood and a Dirac belief leave nothing to learn
    model = ep.tmaze_model()
    history = ep.History((0, 5), (3,))  # context disclosed
    for policy in ep.enumerate_policies(4, 1):
        score = ep.alternative_objective(
            model, history, policy, ep.ObjectiveKind.INFO_GAIN_ONLY
        )
        assert score == pytest.approx(0.0, abs=1e-12)


def test_tmaze_expected_reward_ties_at_zero():
    # under the half/half context prior the +-6 reward vector is symmetric:
    # every policy has expected reward exactly 0
    model = ep.tmaze_model()
    history = ep.History((0,), ())
    rewards = model.preferences.obs_log_pref
    for policy in ep.enumerate_policies(4, 2):
        score = ep.alternative_objective(
            model, history, policy, ep.ObjectiveKind.EXPECTED_REWARD, rewards
        )
        assert score == pytest.approx(0.0, abs=1e-12)


def test_reward_plus_info_gain_is_sum(rng):
    model = random_model(rng)
    history = simulate_history(rng, model)
    policy = random_policy(rng, model, history)
    r = rng.normal(size=model.n_obs)
    er = ep.alternative_objective(model, history, policy, ep.ObjectiveKind.EXPECTED_REWARD, r)
    ig = ep.alternative_objective(model, history, policy, ep.ObjectiveKind.INFO_GAIN_ONLY)
    both = ep.alternative_objective(
        model, history, policy, ep.ObjectiveKind.REWARD_PLUS_INFO_GAIN, r
    )
    assert both == pytest.approx(er + ig, abs=1e-10)


def test_efe_kind_is_negated_total(rng):
    model = random_model(rng)
    history = simulate_history(rng, model)
    policy = random_policy(rng, model, history)
    score = ep.alternative_objective(
        model, history, policy, ep.ObjectiveKind.EXPECTED_FREE_ENERGY
    )
    assert score == pytest.approx(-ep.efe_breakdown(model, history, policy).total, abs=1e-10)


def test_reward_vector_dimension_mismatch():
    model = ep.tmaze_model()
    history = ep.History((0,), ())
    with pytest.raises(ep.DimensionMismatch):
        ep.alternative_objective(
            model, history, ep.Policy((0, 0)), ep.ObjectiveKind.EXPECTED_REWARD, np.zeros(3)
        )
    with pytest.raises(ep.DimensionMismatch):
        ep.policy_posterior(
            model, history, kind=ep.ObjectiveKind.EXPECTED_REWARD, reward_per_obs=np.zeros(3)
        )


# --- one policy-tree pass per decision -----------------------------------------

def reference_breakdown(terms):
    risk = float(sum(t[0] for t in terms))
    ambiguity = float(sum(t[1] for t in terms))
    extrinsic = float(sum(t[2] for t in terms))
    intrinsic = float(sum(t[3] for t in terms))
    total = risk + ambiguity
    return ep.EfeBreakdown(
        total=total,
        risk=risk,
        ambiguity=ambiguity,
        extrinsic=extrinsic,
        intrinsic=intrinsic,
        residual=total + extrinsic + intrinsic,
    )


def reference_step_terms(ctx, q, qo):
    """(risk, ambiguity, extrinsic, intrinsic) of one node, written directly on
    `kl_divergence` and masked `np.sum` calls: the independent reference that
    `planning._step_terms` must match bit for bit.
    """
    risk = kl_divergence(q, ctx.state_pref.probs)
    ambiguity = float(q @ ctx.col_entropy)
    mask = qo > 0
    extrinsic = float(np.sum(qo[mask] * ctx.ln_obs_marginal[mask]))
    intrinsic = float(-np.sum(qo[mask] * np.log(qo[mask]))) - ambiguity
    return risk, ambiguity, extrinsic, intrinsic


def reference_policy_tree(model, history, reward, reverse=False):
    """Rows and expected-reward sums from a prefix-dict walk of the policy tree.

    Each policy walks its action prefixes; a prefix seen for the first time is
    a new tree node, scored once and cached. Each policy then sums its nodes'
    terms from 0 in depth order, or deepest first when reverse is set.
    """
    ctx = model.planner_context
    A, B = model.likelihood.matrix, model.transitions.tensor
    policies = ep.enumerate_policies(model.n_actions, model.horizon - history.t)
    root = ep.filter_and_smooth(model, history)[history.t].probs
    belief_cache = {(): root}
    term_cache = {}
    reward_cache = {}
    rewards = np.empty(len(policies))
    rows = []
    for i, policy in enumerate(policies):
        prefix = ()
        path = []
        for a in policy.actions:
            parent = belief_cache[prefix]
            prefix = prefix + (a,)
            if prefix not in belief_cache:
                q = belief_cache[prefix] = B[a] @ parent
                qo = A @ q
                term_cache[prefix] = reference_step_terms(ctx, q, qo)
                reward_cache[prefix] = float(reward @ qo)
            path.append(prefix)
        if reverse:
            path.reverse()
        rows.append(reference_breakdown([term_cache[p] for p in path]))
        acc = 0.0
        for p in path:
            acc += reward_cache[p]
        rewards[i] = acc
    return rows, rewards


def benchmark_model(rng, n_states, n_obs, n_actions, horizon):
    """A dense Dirichlet model of one (S, O, A, H) shape, as the benchmark draws them."""
    return ep.make_model(
        likelihood=rng.dirichlet(np.ones(n_obs), size=n_states).T,
        transitions=np.stack(
            [rng.dirichlet(np.ones(n_states), size=n_states).T for _ in range(n_actions)]
        ),
        initial_belief=rng.dirichlet(np.ones(n_states)),
        obs_log_pref=rng.normal(0.0, 2.0, size=n_obs),
        horizon=horizon,
    )


def hexes(values):
    """float.hex of each value, so -0.0 and 0.0 compare unequal."""
    return [float(v).hex() for v in values]


SCORE_GAMMA = 0.7


def reference_outputs(model, history, reward, reverse=False):
    """Per kind: the hex scores, rows and posterior log-weights of the reference walk.

    The `reward` kind reads no rows, so it has None in their place.
    """
    rows, rewards = reference_policy_tree(model, history, reward, reverse)
    intrinsic = np.array([r.intrinsic for r in rows])
    kinds = ep.ObjectiveKind
    scores = {
        kinds.EXPECTED_FREE_ENERGY: np.array([-r.total for r in rows]),
        kinds.EXPECTED_REWARD: rewards,
        kinds.REWARD_PLUS_INFO_GAIN: rewards + intrinsic,
        kinds.INFO_GAIN_ONLY: intrinsic,
    }
    row_hexes = [hexes(r.as_row()) for r in rows]
    return {
        kind: (
            hexes(s),
            None if kind is kinds.EXPECTED_REWARD else row_hexes,
            hexes(SCORE_GAMMA * s),
        )
        for kind, s in scores.items()
    }


def tree_outputs(model, history, reward):
    """Per kind: the hex scores, rows and posterior log-weights of the planner."""
    out = {}
    for kind in ep.ObjectiveKind:
        _, scores, rows = planning.policy_scores(model, history, kind, reward)
        post = ep.policy_posterior(model, history, SCORE_GAMMA, kind, reward)
        row_hexes = None if rows is None else [hexes(r.as_row()) for r in rows]
        out[kind] = (hexes(scores), row_hexes, hexes(post.log_weights))
    return out


def count_calls(monkeypatch) -> dict:
    """Count pullbacks where the planner context calls it, and planning's filters.

    "smooth=False" counts the filters that skip the backward pass.
    """
    calls = {"pullback_preferences": 0, "filter_and_smooth": 0, "smooth=False": 0}
    for module, name in ((ep.model, "pullback_preferences"), (planning, "filter_and_smooth")):
        original = getattr(module, name)

        def counted(*args, _name=name, _original=original, **kwargs):
            calls[_name] += 1
            calls["smooth=False"] += kwargs.get("smooth") is False
            return _original(*args, **kwargs)

        monkeypatch.setattr(module, name, counted)
    return calls


@pytest.mark.parametrize("kind", list(ep.ObjectiveKind))
def test_policy_scores_filters_and_pulls_back_once(monkeypatch, kind):
    # one forward-only filter per decision: the tree reads only the belief at
    # t, where smoothing changes nothing; the reward kind reads no planner
    # context, so it pulls back no preferences
    calls = count_calls(monkeypatch)
    for history in (ep.History((0,), ()), ep.History((0, 5), (3,))):
        model = ep.tmaze_model()
        planning.policy_scores(model, history, kind, model.preferences.obs_log_pref)
    pullbacks = 0 if kind is ep.ObjectiveKind.EXPECTED_REWARD else 2
    assert calls == {"pullback_preferences": pullbacks, "filter_and_smooth": 2, "smooth=False": 2}


def test_one_model_pulls_back_once_across_calls(monkeypatch):
    # the planner context is derived on first use and shared by every later
    # call that holds the same model
    calls = count_calls(monkeypatch)
    model = ep.tmaze_model()
    history = ep.History((0,), ())
    reward = model.preferences.obs_log_pref
    planning.policy_scores(model, history, ep.ObjectiveKind.EXPECTED_FREE_ENERGY)
    planning.policy_scores(model, history, ep.ObjectiveKind.EXPECTED_REWARD, reward)
    ep.efe_breakdown(model, history, ep.Policy((2, 1)))
    ep.trajectory_objective(model, history, ep.Policy((2, 1)))
    ep.preferential_inference(model, history)
    assert calls["pullback_preferences"] == 1


def test_policy_scores_match_per_policy_oracles(rng):
    kinds = ep.ObjectiveKind
    for _ in range(20):
        model = random_model(rng)
        history = simulate_history(rng, model)
        reward = rng.normal(size=model.n_obs)
        scores = {
            kind: planning.policy_scores(model, history, kind, reward)[1]
            for kind in kinds
        }
        policies = ep.enumerate_policies(model.n_actions, model.horizon - history.t)
        for i, policy in enumerate(policies):
            bd = ep.efe_breakdown(model, history, policy)
            er = ep.alternative_objective(
                model, history, policy, kinds.EXPECTED_REWARD, reward
            )
            expected = {
                kinds.EXPECTED_FREE_ENERGY: -bd.total,
                kinds.INFO_GAIN_ONLY: bd.intrinsic,
                kinds.EXPECTED_REWARD: er,
                kinds.REWARD_PLUS_INFO_GAIN: er + bd.intrinsic,
            }
            for kind, want in expected.items():
                assert scores[kind][i] == pytest.approx(want, abs=1e-10)


def test_reward_scores_equal_reference_walk(rng):
    tmaze = ep.tmaze_model()
    cases = [(tmaze, ep.History((0,), ())), (tmaze, ep.History((0, 5), (3,)))]
    for options in (
        {},
        {"deterministic_likelihood": True},
        {"sparse_transitions": True},
    ):
        for _ in range(10):
            model = random_model(rng, **options)
            cases.append((model, simulate_history(rng, model)))
    # the benchmark's shapes: 2,187 policies at t = 0, and 16 policies 2 steps
    # before the end of a 64-step history
    wide = benchmark_model(rng, 12, 8, 3, 7)
    cases.append((wide, simulate_history(rng, wide, 0)))
    late = benchmark_model(rng, 16, 8, 4, 64)
    cases.append((late, simulate_history(rng, late, 62)))
    reversed_differs = False
    for model, history in cases:
        reward = rng.normal(size=model.n_obs)
        got = tree_outputs(model, history, reward)
        assert got == reference_outputs(model, history, reward)
        reversed_differs |= got != reference_outputs(model, history, reward, reverse=True)
    # summing each path deepest first changes some bits, which the comparison sees
    assert reversed_differs


def gridworld_model(horizon):
    """A 3x3 grid with deterministic moves (stay, up, down, left, right; a move
    into a wall stays put) that sees its column right 8 times in 10."""
    moves = ((0, 0), (-1, 0), (1, 0), (0, -1), (0, 1))
    B = np.zeros((len(moves), 9, 9))
    for a, (dr, dc) in enumerate(moves):
        for r, c in itertools.product(range(3), repeat=2):
            r2, c2 = min(max(r + dr, 0), 2), min(max(c + dc, 0), 2)
            B[a, 3 * r2 + c2, 3 * r + c] = 1.0
    A = np.full((3, 9), 0.1)
    A[np.arange(9) % 3, np.arange(9)] = 0.8
    return ep.make_model(
        likelihood=A,
        transitions=B,
        initial_belief=np.full(9, 1 / 9),
        obs_log_pref=np.array([0.0, 0.5, 2.0]),
        horizon=horizon,
    )


def with_transitions(model, transitions):
    return ep.make_model(
        likelihood=model.likelihood.matrix,
        transitions=transitions,
        initial_belief=model.initial_belief.probs,
        obs_log_pref=model.preferences.obs_log_pref,
        horizon=model.horizon,
    )


def test_merged_beliefs_equal_reference_walk(rng):
    # models on which many action sequences reach bit-identical beliefs, which
    # the tree scores once and the reference walk scores per prefix
    tmaze = ep.tmaze_model()
    cases = []
    for t in range(tmaze.horizon):
        for observations in itertools.product(range(tmaze.n_obs), repeat=t + 1):
            for actions in itertools.product(range(tmaze.n_actions), repeat=t):
                history = ep.History(observations, actions)
                try:
                    ep.filter_and_smooth(tmaze, history, smooth=False)
                except ep.ZeroEvidence:
                    continue
                cases.append((tmaze, history))
    assert len(cases) == 8  # every history the tree accepts
    grid = gridworld_model(horizon=4)  # 625 policies
    cases.append((grid, ep.History((1,), ())))
    cases.append((grid, ep.History((1, 2), (4,))))
    for _ in range(10):
        model = random_model(rng)
        S, n_actions = model.n_states, model.n_actions
        one_hot = np.zeros((n_actions, S, S))
        for a in range(n_actions):
            one_hot[a, rng.integers(0, S, size=S), np.arange(S)] = 1.0
        stay = model.transitions.tensor.copy()
        stay[0] = np.eye(S)
        repeated = model.transitions.tensor.copy()
        repeated[1] = repeated[0]
        for transitions in (one_hot, stay, repeated):
            variant = with_transitions(model, transitions)
            cases.append((variant, simulate_history(rng, variant)))
    for model, history in cases:
        reward = rng.normal(size=model.n_obs)
        assert tree_outputs(model, history, reward) == reference_outputs(model, history, reward)


def count_step_terms(monkeypatch) -> list:
    """A list that grows by one entry per `planning._step_terms` call."""
    calls = []
    original = planning._step_terms

    def counted(*args):
        calls.append(1)
        return original(*args)

    monkeypatch.setattr(planning, "_step_terms", counted)
    return calls


def test_tree_scores_each_distinct_belief_once(monkeypatch, rng):
    calls = count_step_terms(monkeypatch)
    # the T-maze's 4 depth-1 beliefs are absorbing: its 16 leaves repeat them
    ep.efe_table(ep.tmaze_model(), ep.History((0,), ()))
    assert len(calls) == 4
    # no belief repeats in the benchmark's dense shapes: one call per node
    for S, O, n_actions, horizon in ((20, 10, 4, 5), (12, 8, 3, 7), (48, 16, 6, 4)):
        calls.clear()
        model = benchmark_model(rng, S, O, n_actions, horizon)
        ep.efe_table(model, ep.History((0,), ()))
        assert len(calls) == sum(n_actions**d for d in range(1, horizon + 1))
    # leaves are looked up but not stored: a leaf belief that only other
    # leaves share is scored again, so the gridworld's 3,905 nodes make 219
    # calls, where storing leaves too would make fewer
    calls.clear()
    ep.efe_table(gridworld_model(5), ep.History((1,), ()))
    assert len(calls) == 219


def test_reward_kind_scores_no_tree_node(monkeypatch, rng):
    # the expected reward is a linear sum: no per-node EFE terms, no rows
    calls = count_step_terms(monkeypatch)
    kind = ep.ObjectiveKind.EXPECTED_REWARD
    for model in (ep.tmaze_model(), benchmark_model(rng, 12, 8, 3, 7)):
        history = ep.History((0,), ())
        reward = rng.normal(size=model.n_obs)
        _, _, rows = planning.policy_scores(model, history, kind, reward)
        assert rows is None
        ep.policy_posterior(model, history, kind=kind, reward_per_obs=reward)
    assert calls == []


def test_decision_path_builds_no_row(monkeypatch, rng):
    # every kind scores columns of the table's path sums; a row is built only
    # where one is read
    calls = []
    original = planning._breakdown

    def counted(*terms):
        calls.append(1)
        return original(*terms)

    monkeypatch.setattr(planning, "_breakdown", counted)
    history = ep.History((0,), ())
    models = (ep.tmaze_model(), benchmark_model(rng, 12, 8, 3, 7))
    for model in models:
        reward = rng.normal(size=model.n_obs)
        for kind in ep.ObjectiveKind:
            ep.policy_posterior(model, history, kind=kind, reward_per_obs=reward)
    assert calls == []
    ep.efe_table(models[1], history)[1][5]
    assert len(calls) == 1


def assert_table_contract(model, history):
    """The EFE table reads as the sequence of its rows, by integer index only."""
    _, table = ep.efe_table(model, history)
    rows = [hexes(r.as_row()) for r in table]
    assert rows == [hexes(table[i].as_row()) for i in range(len(table))]
    assert hexes(table[-1].as_row()) == rows[-1]
    assert hexes(table[np.int64(0)].as_row()) == rows[0]
    with pytest.raises(IndexError):
        table[len(table)]
    with pytest.raises(TypeError):
        table[0:2]
    with pytest.raises(ValueError):
        table.sums[0, 0] = 1.0
    efe = planning.policy_scores(model, history, ep.ObjectiveKind.EXPECTED_FREE_ENERGY)[1]
    assert hexes(efe) == hexes([-r.total for r in table])


@st.composite
def edge_cases(draw):
    """A dense model with S <= 5, O <= 4, A <= 4 and H <= 4, one of each at 1
    allowed, and a simulated history that decides at any t <= H - 1."""
    S, O = draw(st.integers(1, 5)), draw(st.integers(1, 4))
    n_actions, horizon = draw(st.integers(1, 4)), draw(st.integers(1, 4))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    model = benchmark_model(rng, S, O, n_actions, horizon)
    history = simulate_history(rng, model, draw(st.integers(0, horizon - 1)))
    return model, history, rng.normal(size=O)


@settings(max_examples=60)
@given(case=edge_cases())
def test_policy_scores_equal_reference_walk_at_edge_shapes(case):
    model, history, reward = case
    assert tree_outputs(model, history, reward) == reference_outputs(model, history, reward)
    assert_table_contract(model, history)
    policies = ep.enumerate_policies(model.n_actions, model.horizon - history.t)
    for kind in ep.ObjectiveKind:
        got = planning.policy_scores(model, history, kind, reward)[1]
        oracle = [
            ep.alternative_objective(model, history, policy, kind, reward)
            for policy in policies
        ]
        assert np.allclose(got, oracle, rtol=0, atol=1e-10)


# State 2 emits observation 1, whose log-preference -800 pulls back to a
# state preference exp(-800) that underflows to 0.
ZERO_PREFERENCE_DOC = {
    "n_states": 3,
    "n_obs": 2,
    "n_actions": 2,
    "horizon": 3,
    "likelihood": [[1.0, 1.0, 0.0], [0.0, 0.0, 1.0]],
    "transitions": [
        [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]],
        [[0.5, 0.0, 0.5], [0.5, 0.5, 0.0], [0.0, 0.5, 0.5]],
    ],
    "initial_belief": [0.6, 0.4, 0.0],
    "obs_log_pref": [0.0, -800.0],
}


def test_zero_state_preference_gives_inf_risk_on_both_routes():
    # a node that can reach state 2 has risk inf, one that cannot has a
    # finite risk
    model = ep.model_from_dict(ZERO_PREFERENCE_DOC)
    history = ep.History((0,), ())
    reward = np.array([1.0, -1.0])
    assert pullback_preferences(model).probs[2] == 0.0
    policies, rows = ep.efe_table(model, history)
    rewards = planning.policy_scores(model, history, ep.ObjectiveKind.EXPECTED_REWARD, reward)[1]
    ref_rows, ref_rewards = reference_policy_tree(model, history, reward)
    oracle = [ep.efe_breakdown(model, history, policy) for policy in policies]
    assert [hexes(r.as_row()) for r in rows] == [hexes(r.as_row()) for r in ref_rows]
    assert hexes(rewards) == hexes(ref_rewards)
    risks = np.array([r.risk for r in rows])
    assert np.isinf(risks).any() and np.isfinite(risks).any()
    assert np.array_equal(np.isinf(risks), [np.isinf(bd.risk) for bd in oracle])
    assert np.isinf(risks[policies.index(ep.Policy((1, 1, 1)))])
    assert np.isfinite(risks[policies.index(ep.Policy((0, 0, 0)))])
    # an inf risk meets a -inf extrinsic value: the row's residual is nan,
    # with no numpy warning
    assert any(math.isnan(r.residual) for r in rows)
    assert_table_contract(model, history)


def test_plan_with_zero_state_preference_prints_no_warning(tmp_path, capsys):
    # the planner context takes the log of the underflowed preference
    # without a divide warning
    path = tmp_path / "model.json"
    path.write_text(json.dumps(ZERO_PREFERENCE_DOC), encoding="utf-8")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert cli.main(["plan", str(path)]) == 0
    captured = capsys.readouterr()
    assert captured.err == ""
    rows = captured.out.splitlines()
    assert len(rows) == 1 + 2**3 and rows[-1].split(",")[1] == "inf"


# --- per-policy comparison objectives ------------------------------------------

def reference_alternative_objective(model, history, policy, kind, reward):
    """Every kind from a full efe_breakdown plus a second filter of the policy."""
    breakdown = ep.efe_breakdown(model, history, policy)
    beliefs = ep.filter_and_smooth(model, history, policy)
    A = model.likelihood.matrix
    expected_reward = sum(
        float(reward @ (A @ beliefs[tau].probs))
        for tau in range(history.t + 1, len(beliefs))
    )
    kinds = ep.ObjectiveKind
    return {
        kinds.EXPECTED_FREE_ENERGY: -breakdown.total,
        kinds.INFO_GAIN_ONLY: breakdown.intrinsic,
        kinds.EXPECTED_REWARD: expected_reward,
        kinds.REWARD_PLUS_INFO_GAIN: expected_reward + breakdown.intrinsic,
    }[kind]


@pytest.mark.parametrize("kind", list(ep.ObjectiveKind))
def test_alternative_objective_filters_once(monkeypatch, kind):
    calls = count_calls(monkeypatch)
    model = ep.tmaze_model()
    ep.alternative_objective(
        model, ep.History((0,), ()), ep.Policy((2, 1)), kind, model.preferences.obs_log_pref
    )
    # only the kinds that read the breakdown build its preference context
    pullbacks = 0 if kind is ep.ObjectiveKind.EXPECTED_REWARD else 1
    assert calls == {"pullback_preferences": pullbacks, "filter_and_smooth": 1, "smooth=False": 0}


def test_alternative_objective_equals_reference_bit_for_bit(rng):
    for options in (
        {},
        {"deterministic_likelihood": True},
        {"sparse_transitions": True},
    ):
        for _ in range(10):
            model = random_model(rng, **options)
            history = simulate_history(rng, model)
            reward = rng.normal(size=model.n_obs)
            policy = random_policy(rng, model, history)
            for kind in ep.ObjectiveKind:
                got = ep.alternative_objective(model, history, policy, kind, reward)
                want = reference_alternative_objective(model, history, policy, kind, reward)
                assert float(got).hex() == float(want).hex()
