"""Exact inference: enumeration oracle, forward-backward, Bayes updates."""
from __future__ import annotations

import itertools

import numpy as np
import pytest

import efeplan as ep
from efeplan import inference

from conftest import random_model, simulate_history


def brute_force_joint_table(model, history, policy):
    """Test-only oracle: normalize the joint over every state sequence.

    Deliberately written as plain nested loops over an explicit probability
    table, independent of the library's vectorized enumeration.
    """
    A = model.likelihood.matrix
    B = model.transitions.tensor
    D = model.initial_belief.probs
    actions = list(history.actions) + list(policy.actions if policy else [])
    L = len(actions) + 1
    table = {}
    for seq in itertools.product(range(model.n_states), repeat=L):
        p = D[seq[0]] * A[history.observations[0], seq[0]]
        for tau in range(1, L):
            p *= B[actions[tau - 1], seq[tau], seq[tau - 1]]
            if tau < len(history.observations):
                p *= A[history.observations[tau], seq[tau]]
        table[seq] = p
    total = sum(table.values())
    return {seq: p / total for seq, p in table.items()}


def test_enumeration_matches_handcoded_joint_table():
    rng = np.random.default_rng(3)
    A = rng.dirichlet(np.ones(2), size=3).T
    B = np.stack([rng.dirichlet(np.ones(3), size=3).T for _ in range(2)])
    D = rng.dirichlet(np.ones(3))
    model = ep.make_model(
        likelihood=A, transitions=B, initial_belief=D, obs_log_pref=[0.3, -0.7], horizon=3
    )
    history = ep.History((1, 0), (1,))
    policy = ep.Policy((0, 1))
    oracle = brute_force_joint_table(model, history, policy)
    assert len(oracle) == 81
    post = ep.enumerate_posterior(model, history, policy)
    for seq, prob in zip(post.sequences, post.probs.probs):
        assert abs(oracle[tuple(int(s) for s in seq)] - prob) < 1e-12


def test_deterministic_chain_gives_dirac_posterior():
    # Dirac D, identity B under action 0, shifting B under action 1.
    D = np.array([1.0, 0.0, 0.0])
    shift = np.roll(np.eye(3), 1, axis=0)
    B = np.stack([np.eye(3), shift])
    model = ep.make_model(
        likelihood=np.eye(3),
        transitions=B,
        initial_belief=D,
        obs_log_pref=[0.0, 0.0, 0.0],
        horizon=2,
    )
    history = ep.History((0, 1), (1,))
    post = ep.enumerate_posterior(model, history, ep.Policy((0,)))
    nz = post.probs.probs > 1e-15
    assert nz.sum() == 1
    assert tuple(post.sequences[np.argmax(post.probs.probs)]) == (0, 1, 1)


def test_uniform_model_gives_uniform_trajectory_posterior():
    n = 3
    A = np.full((n, n), 1 / n)
    B = np.stack([np.full((n, n), 1 / n)])
    model = ep.make_model(
        likelihood=A,
        transitions=B,
        initial_belief=np.full(n, 1 / n),
        obs_log_pref=np.zeros(n),
        horizon=2,
    )
    post = ep.enumerate_posterior(model, ep.History((0,), ()), ep.Policy((0, 0)))
    assert np.allclose(post.probs.probs, 1 / n**3, atol=1e-12)


def test_enumeration_cap_raises(monkeypatch):
    model = random_model(np.random.default_rng(0))
    history = ep.History((0,), ())
    monkeypatch.setattr(inference, "ENUMERATION_CAP", 1)
    with pytest.raises(ep.HorizonOverflow):
        ep.enumerate_posterior(model, history, None)


def test_oracle_equivalence_on_random_corpus(rng):
    checked = 0
    for _ in range(60):
        model = random_model(rng)
        if model.n_states ** (model.horizon + 1) > 10**5:
            continue
        history = simulate_history(rng, model)
        remaining = model.horizon - history.t
        policy = ep.Policy(tuple(rng.integers(0, model.n_actions, size=remaining)))
        post = ep.enumerate_posterior(model, history, policy)
        enum_marg = post.marginals(model.n_states)
        fb = ep.filter_and_smooth(model, history, policy)
        assert len(enum_marg) == len(fb)
        for tau in range(len(fb)):
            assert np.allclose(
                enum_marg[tau].probs, fb[tau].probs, atol=1e-10
            ), f"timestep {tau}"
        checked += 1
    assert checked >= 40


def test_filter_identity_dynamics_keeps_initial_belief():
    D = np.array([1.0, 0.0])
    model = ep.make_model(
        likelihood=np.full((2, 2), 0.5),
        transitions=np.stack([np.eye(2)]),
        initial_belief=D,
        obs_log_pref=[0.0, 0.0],
        horizon=3,
    )
    beliefs = ep.filter_and_smooth(model, ep.History((0,), ()), ep.Policy((0, 0, 0)))
    for tau in range(4):
        assert np.allclose(beliefs[tau].probs, D, atol=1e-12)


def test_tmaze_cue_determines_context():
    model = ep.tmaze_model()
    history = ep.History((0, 5), (3,))  # went bottom, saw cue-black
    beliefs = ep.filter_and_smooth(model, history)
    b1 = beliefs[1].probs
    # all posterior mass on (bottom, reward-left)
    assert b1[6] == pytest.approx(1.0, abs=1e-12)
    context_marginal = b1[0::2].sum()
    assert context_marginal == pytest.approx(1.0, abs=1e-12)


def test_zero_evidence_raises():
    model = ep.tmaze_model()
    # claim we saw left-reward while still in the middle at t=0
    with pytest.raises(ep.ZeroEvidence):
        ep.filter_and_smooth(model, ep.History((1,), ()))
    with pytest.raises(ep.ZeroEvidence):
        ep.enumerate_posterior(model, ep.History((1,), ()))


def _zero_evidence_at(route, model, history):
    """(timestep, observation) of the ZeroEvidence the route raises, else None."""
    try:
        route(model, history)
    except ep.ZeroEvidence as exc:
        return exc.timestep, exc.observation
    return None


@pytest.mark.parametrize(
    "observations, expected",
    [
        ((1, 1, 1), (0, 1)),  # impossible from the start
        ((0, 1, 0), (1, 1)),  # o_1 is impossible; o_2 = 0 alone would be possible
    ],
)
def test_zero_evidence_names_the_first_impossible_observation(observations, expected):
    model = ep.make_model(
        likelihood=np.eye(2),
        transitions=np.eye(2)[None],
        initial_belief=[1.0, 0.0],
        obs_log_pref=np.zeros(2),
        horizon=2,
    )
    history = ep.History(observations, (0, 0))
    assert _zero_evidence_at(ep.filter_and_smooth, model, history) == expected
    assert _zero_evidence_at(ep.enumerate_posterior, model, history) == expected


def test_enumeration_and_filter_blame_the_same_observation():
    rng = np.random.default_rng(13)
    raised = 0
    for _ in range(150):
        model = random_model(
            rng, max_states=4, max_obs=4, max_horizon=5,
            deterministic_likelihood=True, sparse_transitions=True,
        )
        steps = int(rng.integers(0, model.horizon + 1))
        history = ep.History(
            tuple(int(o) for o in rng.integers(0, model.n_obs, size=steps + 1)),
            tuple(int(a) for a in rng.integers(0, model.n_actions, size=steps)),
        )
        want = _zero_evidence_at(ep.filter_and_smooth, model, history)
        assert _zero_evidence_at(ep.enumerate_posterior, model, history) == want
        raised += want is not None and want[0] < steps
    # Enough raises come before the last observation to tell the routes apart.
    assert raised >= 20, raised


def test_predictive_observations_dirac_belief_gives_likelihood_column(rng):
    model = random_model(rng)
    s = 1
    dirac = np.zeros(model.n_states)
    dirac[s] = 1.0
    beliefs = ep.MarginalBeliefs((ep.Categorical(dirac),))
    (obs_marg,) = ep.predictive_observations(model, beliefs)
    assert np.allclose(obs_marg.probs, model.likelihood.matrix[:, s], atol=1e-12)


def test_predictive_observations_uniform_likelihood_uniform():
    A = np.full((4, 3), 0.25)
    model = ep.make_model(
        likelihood=A,
        transitions=np.stack([np.eye(3)]),
        initial_belief=[0.2, 0.5, 0.3],
        obs_log_pref=np.zeros(4),
        horizon=1,
    )
    beliefs = ep.filter_and_smooth(model, ep.History((0,), ()), ep.Policy((0,)))
    for obs_marg in ep.predictive_observations(model, beliefs):
        assert np.allclose(obs_marg.probs, 0.25, atol=1e-12)


def test_tmaze_predicted_cue_colors_are_even():
    model = ep.tmaze_model()
    beliefs = ep.filter_and_smooth(model, ep.History((0,), ()), ep.Policy((3, 0)))
    obs_1 = ep.predictive_observations(model, beliefs)[1].probs
    assert obs_1[5] == pytest.approx(0.5, abs=1e-12)
    assert obs_1[6] == pytest.approx(0.5, abs=1e-12)


def test_conditional_posterior_deterministic_likelihood_dirac():
    model = ep.tmaze_model()
    beliefs = ep.filter_and_smooth(model, ep.History((0,), ()), ep.Policy((3, 0)))
    post = ep.conditional_state_posterior(model, beliefs, 1, 5)  # hypothetical cue-black
    expected = np.zeros(8)
    expected[6] = 1.0  # (bottom, reward-left)
    assert np.allclose(post.probs, expected, atol=1e-12)


def test_conditional_posterior_dirac_prior_unchanged():
    model = ep.tmaze_model()
    dirac = np.zeros(8)
    dirac[6] = 1.0
    beliefs = ep.MarginalBeliefs((ep.Categorical(dirac),))
    post = ep.conditional_state_posterior(model, beliefs, 0, 5)
    assert np.allclose(post.probs, dirac, atol=1e-12)


def test_conditional_posterior_zero_probability_observation():
    model = ep.tmaze_model()
    dirac = np.zeros(8)
    dirac[0] = 1.0  # middle emits only middle-null
    beliefs = ep.MarginalBeliefs((ep.Categorical(dirac),))
    with pytest.raises(ep.ZeroProbabilityObservation):
        ep.conditional_state_posterior(model, beliefs, 0, 5)


def test_conditioning_consistency_law_of_total_probability(rng):
    # sum_o q(o) * q(s|o) recovers the predictive state marginal.
    for _ in range(25):
        model = random_model(rng)
        history = simulate_history(rng, model)
        remaining = model.horizon - history.t
        policy = ep.Policy(tuple(rng.integers(0, model.n_actions, size=remaining)))
        beliefs = ep.filter_and_smooth(model, history, policy)
        obs_marginals = ep.predictive_observations(model, beliefs)
        for tau in range(history.t + 1, len(beliefs)):
            mix = np.zeros(model.n_states)
            for o in range(model.n_obs):
                qo = obs_marginals[tau].probs[o]
                if qo <= 0:
                    continue
                mix += qo * ep.conditional_state_posterior(model, beliefs, tau, o).probs
            assert np.allclose(mix, beliefs[tau].probs, atol=1e-10)


def test_preferential_inference_structure():
    model = ep.tmaze_model()
    pref = ep.preferential_inference(model, ep.History((0,), ()))
    assert len(pref.past) == 1
    assert len(pref.future_states) == model.horizon
    assert len(pref.future_obs) == model.horizon
    # i.i.d.: every future entry is the same marginal
    for fs in pref.future_states:
        assert np.allclose(fs.probs, pref.future_states[0].probs, atol=0)
    # future state preference concentrates e^6 mass on reward-consistent arms
    fs = pref.future_states[0].probs
    assert fs[2] == pytest.approx(fs[5], abs=1e-12)
    assert fs[2] > 0.49
    assert fs[3] < 1e-5


def test_preferential_inference_uniform_case():
    model = ep.make_model(
        likelihood=np.eye(3),
        transitions=np.stack([np.eye(3)]),
        initial_belief=np.ones(3) / 3,
        obs_log_pref=np.zeros(3),
        horizon=2,
    )
    pref = ep.preferential_inference(model, ep.History((0,), ()))
    assert np.allclose(pref.future_states[0].probs, 1 / 3, atol=1e-12)
    assert np.allclose(pref.future_obs[0].probs, 1 / 3, atol=1e-12)


def test_all_returned_distributions_normalized(rng):
    for _ in range(20):
        model = random_model(rng)
        history = simulate_history(rng, model)
        remaining = model.horizon - history.t
        policy = ep.Policy(tuple(rng.integers(0, model.n_actions, size=remaining)))
        beliefs = ep.filter_and_smooth(model, history, policy)
        for b in beliefs.per_time:
            assert abs(b.probs.sum() - 1.0) < 1e-10
            assert np.all(b.probs >= 0)
        for o in ep.predictive_observations(model, beliefs):
            assert abs(o.probs.sum() - 1.0) < 1e-10
