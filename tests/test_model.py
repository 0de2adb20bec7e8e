"""Model validation, preference pullback, the planner context, and model loading."""
from __future__ import annotations

import json

import numpy as np
import pytest

import efeplan as ep
from efeplan.data import data_path
from efeplan.model import NORM_ATOL, model_from_dict

from conftest import random_model


def identity_model(horizon=2):
    return ep.make_model(
        likelihood=np.eye(2),
        transitions=np.stack([np.eye(2), np.eye(2)]),
        initial_belief=[0.5, 0.5],
        obs_log_pref=[0.0, 0.0],
        horizon=horizon,
    )


def test_identity_model_validates():
    assert ep.validate_model(identity_model()).ok


def test_non_stochastic_column_is_reported_with_index():
    m = identity_model()
    A = m.likelihood.matrix.copy()
    A[:, 1] = [0.45, 0.45]  # sums to 0.9
    bad = ep.make_model(
        likelihood=A,
        transitions=m.transitions.tensor,
        initial_belief=m.initial_belief.probs,
        obs_log_pref=m.preferences.obs_log_pref,
        horizon=2,
    )
    report = ep.validate_model(bad)
    assert not report.ok
    assert any(v.rule == "NotStochastic" and v.index == (1,) for v in report.violations)


def test_negative_entry_reported():
    m = identity_model()
    A = m.likelihood.matrix.copy()
    A[0, 0] = -0.2
    A[1, 0] = 1.2
    bad = ep.make_model(
        likelihood=A,
        transitions=m.transitions.tensor,
        initial_belief=m.initial_belief.probs,
        obs_log_pref=m.preferences.obs_log_pref,
        horizon=2,
    )
    rules = {v.rule for v in ep.validate_model(bad).violations}
    assert "NegativeEntry" in rules


def test_non_finite_entry_reported():
    m = identity_model()
    C = np.array([np.inf, 0.0])
    bad = ep.make_model(
        likelihood=m.likelihood.matrix,
        transitions=m.transitions.tensor,
        initial_belief=m.initial_belief.probs,
        obs_log_pref=C,
        horizon=2,
    )
    rules = {v.rule for v in ep.validate_model(bad).violations}
    assert "NonFiniteEntry" in rules


def test_dimension_mismatch_reported():
    m = identity_model()
    bad = ep.GenerativeModel(
        n_states=3,  # contradicts the 2-state tensors
        n_obs=2,
        n_actions=2,
        likelihood=m.likelihood,
        transitions=m.transitions,
        initial_belief=m.initial_belief,
        preferences=m.preferences,
        horizon=2,
    )
    rules = {v.rule for v in ep.validate_model(bad).violations}
    assert "DimensionMismatch" in rules


def test_tmaze_model_validates():
    assert ep.validate_model(ep.tmaze_model()).ok


def test_validator_accepts_random_corpus(rng):
    for _ in range(50):
        assert ep.validate_model(random_model(rng)).ok


def scaled_likelihood(model, factor):
    return ep.make_model(
        likelihood=model.likelihood.matrix * factor,
        transitions=model.transitions.tensor,
        initial_belief=model.initial_belief.probs,
        obs_log_pref=model.preferences.obs_log_pref,
        horizon=model.horizon,
    )


def test_column_sums_checked_to_categorical_tolerance(rng):
    # a model that validates gives oracle rows within 1e-10 of the tree; at
    # column sums of 1 + 5e-10 the two routes drift apart by up to ~2e-9
    for _ in range(10):
        model = random_model(rng, max_states=5, max_obs=4, max_horizon=3)
        loose = ep.validate_model(scaled_likelihood(model, 1 + 5e-10))
        assert {v.rule for v in loose.violations} == {"NotStochastic"}
        assert {v.index for v in loose.violations} == {(j,) for j in range(model.n_states)}
        tight = scaled_likelihood(model, 1 + 5e-13)
        assert ep.validate_model(tight).ok
        history = ep.History((0,), ())
        policies, rows = ep.efe_table(tight, history)
        for policy, row in zip(policies, rows):
            oracle = ep.efe_breakdown(tight, history, policy)
            np.testing.assert_allclose(oracle.as_row(), row.as_row(), rtol=0, atol=1e-10)


def test_history_length_invariant():
    with pytest.raises(ValueError):
        ep.History((0, 1), ())
    h = ep.History((0, 1), (1,))
    assert h.t == 1


def test_pullback_identity_likelihood_matches_obs_preferences():
    m = ep.make_model(
        likelihood=np.eye(3),
        transitions=np.stack([np.eye(3)]),
        initial_belief=np.ones(3) / 3,
        obs_log_pref=[1.0, -0.5, 2.0],
        horizon=1,
    )
    state_pref = ep.pullback_preferences(m)
    expected = np.exp([1.0, -0.5, 2.0])
    expected /= expected.sum()
    assert np.allclose(state_pref.probs, expected, atol=1e-12)


def test_pullback_uniform_likelihood_is_uniform():
    A = np.full((4, 3), 0.25)
    m = ep.make_model(
        likelihood=A,
        transitions=np.stack([np.eye(3)]),
        initial_belief=np.ones(3) / 3,
        obs_log_pref=[3.0, -1.0, 0.0, 2.0],
        horizon=1,
    )
    state_pref = ep.pullback_preferences(m)
    assert np.allclose(state_pref.probs, 1 / 3, atol=1e-12)


def test_pullback_tmaze_mass_pattern():
    # Reward-consistent arm states carry the +6 log mass, punishment-arm
    # states -6, all neutral locations 0.
    state_pref = ep.pullback_preferences(ep.tmaze_model())
    # state order: (loc, ctx) with s = 2*loc + ctx
    slp = np.array([0.0, 0.0, 6.0, -6.0, -6.0, 6.0, 0.0, 0.0])
    log_p = np.log(state_pref.probs)
    assert np.allclose(log_p - log_p[0], slp - slp[0], atol=1e-12)
    z = np.exp(slp).sum()
    assert np.allclose(state_pref.probs, np.exp(slp) / z, atol=1e-12)


def test_pullback_deterministic_likelihood_inherits_unique_obs_pref(rng):
    for _ in range(20):
        m = random_model(rng, deterministic_likelihood=True)
        log_p = np.log(ep.pullback_preferences(m).probs)
        emit = m.likelihood.matrix.argmax(axis=0)
        slp = m.preferences.obs_log_pref[emit]
        assert np.allclose(log_p - log_p[0], slp - slp[0], atol=1e-12)


def test_obs_preference_shift_invariance(rng):
    for _ in range(20):
        m = random_model(rng)
        shifted = ep.make_model(
            likelihood=m.likelihood.matrix,
            transitions=m.transitions.tensor,
            initial_belief=m.initial_belief.probs,
            obs_log_pref=m.preferences.obs_log_pref + 7.3,
            horizon=m.horizon,
        )
        base = m.preferences.obs_distribution().probs
        assert np.allclose(
            shifted.preferences.obs_distribution().probs, base, atol=1e-10
        )
        p0 = ep.pullback_preferences(m)
        p1 = ep.pullback_preferences(shifted)
        assert np.allclose(p0.probs, p1.probs, atol=1e-10)


def test_planner_context_is_built_once_and_read_only(rng):
    m = random_model(rng)
    ctx = m.planner_context
    assert m.planner_context is ctx
    assert np.array_equal(ctx.state_pref.probs, ep.pullback_preferences(m).probs)
    for array in (ctx.state_pref.probs, ctx.ln_pref_states, ctx.ln_obs_marginal, ctx.col_entropy):
        assert not array.flags.writeable
        with pytest.raises(ValueError):
            array[0] = 0.0


def test_categorical_rows_are_read_only_views_of_one_frozen_copy():
    """MarginalBeliefs copies its block once; each row it hands out is a view of that copy."""
    block = np.array([[0.25, 0.75], [1.0, 0.0], [0.5, 0.5]])
    beliefs = ep.MarginalBeliefs(block)
    rows = list(beliefs)
    assert [type(c) for c in rows] == [ep.Categorical] * 3
    base = beliefs.block
    assert base is not block and not base.flags.writeable
    for c, want in zip(rows, block):
        assert c.probs.base is base and np.array_equal(c.probs, want)
        with pytest.raises(ValueError):
            c.probs[0] = 0.0
    block[0, 0] = 0.5  # the caller's array stays its own
    assert rows[0].probs[0] == 0.25 and beliefs[0].probs[0] == 0.25


@pytest.mark.parametrize(
    "bad_row",
    [[-1e-300, 1.0], [0.5, 0.5 + 2 * NORM_ATOL], [0.5, 0.5 - 2 * NORM_ATOL], [np.nan, 1.0]],
    ids=["negative", "over", "under", "nan"],
)
def test_categorical_rows_reject_a_bad_row(bad_row):
    with pytest.raises(ValueError, match="non-negative and sum to 1"):
        ep.MarginalBeliefs(np.array([[0.5, 0.5], bad_row, [0.0, 1.0]]))
    with pytest.raises(ValueError):
        ep.Categorical(np.array(bad_row))


def test_categorical_rows_accept_exactly_what_categorical_accepts():
    """The block's one vectorized check gives each row the verdict Categorical gives it."""
    rng = np.random.default_rng(4)
    verdicts = set()
    for n in (1, 2, 7, 9, 32, 33):
        block = rng.dirichlet(np.ones(n), size=64)
        block += rng.choice([-3, -1, 0, 1, 3], size=(64, 1)) * NORM_ATOL / n
        for row in block:
            try:
                ep.Categorical(row)
                row_ok = True
            except ValueError:
                row_ok = False
            try:
                ep.MarginalBeliefs(np.stack([row, row, row]))
                block_ok = True
            except ValueError:
                block_ok = False
            assert row_ok == block_ok
            verdicts.add(row_ok)
    assert verdicts == {True, False}


@pytest.mark.parametrize(
    "indices_of",
    [
        lambda i: ep.History((0, i), (2,)).observations,
        lambda i: ep.History((0, 2), (i,)).actions,
        lambda i: ep.Policy((2, i)).actions,
    ],
    ids=["history-observations", "history-actions", "policy-actions"],
)
def test_indices_are_integers_never_truncated(indices_of):
    for index in (1, np.int64(1), np.uint8(1), True):
        got = indices_of(index)
        assert got[-1] == 1 and type(got[-1]) is int
    for index in (1.9, 1.0, np.float64(1.0)):
        with pytest.raises(TypeError):
            indices_of(index)


def test_bundled_tmaze_file_equals_tmaze_model():
    m = ep.tmaze_model()
    loaded = ep.load_model(data_path("tmaze.json"))
    assert np.array_equal(loaded.likelihood.matrix, m.likelihood.matrix)
    assert np.array_equal(loaded.transitions.tensor, m.transitions.tensor)
    assert np.array_equal(loaded.initial_belief.probs, m.initial_belief.probs)
    assert np.array_equal(loaded.preferences.obs_log_pref, m.preferences.obs_log_pref)
    assert (loaded.state_labels, loaded.obs_labels, loaded.action_labels) == (
        m.state_labels,
        m.obs_labels,
        m.action_labels,
    )
    assert (loaded.n_states, loaded.n_obs, loaded.n_actions, loaded.horizon) == (
        m.n_states,
        m.n_obs,
        m.n_actions,
        m.horizon,
    )


def test_loader_rejects_invalid_model(tmp_path):
    doc = json.loads(data_path("tmaze.json").read_text(encoding="utf-8"))
    doc["likelihood"][0][0] = 0.5  # break column stochasticity
    with pytest.raises(ValueError, match="NotStochastic"):
        model_from_dict(doc)


def test_loader_rejects_malformed_document(tmp_path):
    path = tmp_path / "junk.json"
    path.write_text("not json at all {", encoding="utf-8")
    with pytest.raises(ep.model.ModelFormatError):
        ep.load_model(path)


def test_loader_rejects_missing_fields():
    with pytest.raises(ep.model.ModelFormatError, match="missing fields"):
        model_from_dict({"n_states": 2})
