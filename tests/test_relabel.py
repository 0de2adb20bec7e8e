"""Relabelling a model's actions relabels every decision and changes nothing else.

Each child belief is `B[a] @ q` on its own row, so its bits do not depend on
where action a sits in the action order: scores map hex-equal to the relabelled
policy indices. The softmax sum and the action marginal add the same numbers in
another order, so probabilities and marginals agree only to the last bits.
"""
from __future__ import annotations

import itertools

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

import efeplan as ep
from efeplan import planning

from conftest import simulate_history


@st.composite
def relabelled_cases(draw):
    """A small valid model, a history in it and a permutation of its actions."""
    n_states = draw(st.integers(2, 6))
    n_obs = draw(st.integers(2, 4))
    n_actions = draw(st.integers(2, 3))
    horizon = draw(st.integers(1, 3))
    scale = draw(st.sampled_from([1.0, 10.0, 100.0]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    B = np.stack([rng.dirichlet(np.ones(n_states), size=n_states).T for _ in range(n_actions)])
    if draw(st.booleans()):
        # sparse columns: distinct actions may then reach identical beliefs
        keep = rng.random(B.shape) < 0.5
        keep[np.arange(n_actions)[:, None], B.argmax(axis=1), np.arange(n_states)] = True
        B = np.where(keep, B, 0.0)
        B /= B.sum(axis=1, keepdims=True)
    model = ep.make_model(
        likelihood=rng.dirichlet(np.ones(n_obs), size=n_states).T,
        transitions=B,
        initial_belief=rng.dirichlet(np.ones(n_states)),
        obs_log_pref=scale * rng.normal(0.0, 2.0, size=n_obs),
        horizon=horizon,
    )
    history = simulate_history(rng, model, draw(st.integers(0, horizon - 1)))
    perm = draw(st.permutations(range(n_actions)))
    return model, history, perm


def relabel(model, history, perm):
    """The model and history in which action a is called perm[a]."""
    B = np.empty_like(model.transitions.tensor)
    B[list(perm)] = model.transitions.tensor
    relabelled = ep.make_model(
        likelihood=model.likelihood.matrix,
        transitions=B,
        initial_belief=model.initial_belief.probs,
        obs_log_pref=model.preferences.obs_log_pref,
        horizon=model.horizon,
    )
    return relabelled, ep.History(history.observations, [perm[a] for a in history.actions])


def relabelled_indices(perm, depth):
    """Entry i: the lexicographic index of policy i with every action relabelled."""
    rows = list(itertools.product(range(len(perm)), repeat=depth))
    index = {row: i for i, row in enumerate(rows)}
    return np.array([index[tuple(perm[a] for a in row)] for row in rows])


def hex_equal(x, y):
    return x.shape == y.shape and x.tobytes() == y.tobytes()


def top_gap(probs):
    """Distance between the two largest entries (inf with a single entry)."""
    top = np.sort(probs)[-2:]
    return top[-1] - top[0] if len(top) == 2 else np.inf


@settings(max_examples=120)
@given(relabelled_cases())
def test_relabelling_actions_relabels_every_decision(case):
    model, history, perm = case
    relabelled, relabelled_history = relabel(model, history, perm)
    to_new = relabelled_indices(perm, model.horizon - history.t)
    reward = model.preferences.obs_log_pref
    for kind in ep.ObjectiveKind:
        post, table = planning._scored_posterior(model, history, 1.0, kind, reward)
        new_post, new_table = planning._scored_posterior(
            relabelled, relabelled_history, 1.0, kind, reward
        )
        assert hex_equal(new_post.log_weights[to_new], post.log_weights)
        assert (table is None) == (new_table is None)
        if table is not None:
            assert hex_equal(new_table.sums[to_new], table.sums)

        probs, new_probs = post.probs.probs, new_post.probs.probs
        np.testing.assert_allclose(new_probs[to_new], probs, rtol=0, atol=1e-15)
        marginal = ep.action_marginal(post, model.n_actions)
        new_marginal = ep.action_marginal(new_post, model.n_actions)
        np.testing.assert_allclose(
            new_marginal.probs[list(perm)], marginal.probs, rtol=0, atol=1e-15
        )

        if top_gap(probs) > ep.ARGMAX_TIE_ATOL:
            assert to_new[planning._tied_argmax(probs)] == planning._tied_argmax(new_probs)
        if top_gap(marginal.probs) > ep.ARGMAX_TIE_ATOL:
            assert perm[ep.select_action(marginal)] == ep.select_action(new_marginal)
