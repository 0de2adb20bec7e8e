"""Shared factories for randomized model corpora, and the suite's hypothesis profile."""
from __future__ import annotations

import numpy as np
import pytest
from hypothesis import settings

from efeplan.model import GenerativeModel, History, make_model

# Every property test replays the same examples on every run: no deadline (a
# slow host must not fail a correct example), derandomized generation and no
# example database, so a failure reproduces from the code alone.
settings.register_profile("efeplan", deadline=None, derandomize=True, database=None)
settings.load_profile("efeplan")


def random_model(
    rng: np.random.Generator,
    max_states: int = 6,
    max_obs: int = 6,
    max_actions: int = 3,
    max_horizon: int = 4,
    deterministic_likelihood: bool = False,
    sparse_transitions: bool = False,
) -> GenerativeModel:
    """A seeded valid model with Dirichlet-stochastic tensors.

    With sparse_transitions, about half the transition entries are zeroed
    (keeping at least one per column) and the columns renormalized.
    """
    S = int(rng.integers(2, max_states + 1))
    O = int(rng.integers(2, max_obs + 1))
    A_n = int(rng.integers(2, max_actions + 1))
    T = int(rng.integers(1, max_horizon + 1))
    if deterministic_likelihood:
        A = np.zeros((O, S))
        A[rng.integers(0, O, size=S), np.arange(S)] = 1.0
    else:
        A = rng.dirichlet(np.ones(O), size=S).T
    B = np.stack([rng.dirichlet(np.ones(S), size=S).T for _ in range(A_n)])
    if sparse_transitions:
        keep = rng.random(B.shape) < 0.5
        keep[np.arange(A_n)[:, None], B.argmax(axis=1), np.arange(S)] = True
        B = np.where(keep, B, 0.0)
        B /= B.sum(axis=1, keepdims=True)
    D = rng.dirichlet(np.ones(S))
    C = rng.normal(0.0, 2.0, size=O)
    return make_model(
        likelihood=A, transitions=B, initial_belief=D, obs_log_pref=C, horizon=T
    )


def simulate_history(
    rng: np.random.Generator, model: GenerativeModel, steps: int | None = None
) -> History:
    """Sample a consistent observed prefix by rolling the model forward."""
    if steps is None:
        steps = int(rng.integers(0, model.horizon))
    s = int(rng.choice(model.n_states, p=model.initial_belief.probs))
    observations = [int(rng.choice(model.n_obs, p=model.likelihood.matrix[:, s]))]
    actions = []
    for _ in range(steps):
        a = int(rng.integers(0, model.n_actions))
        s = int(rng.choice(model.n_states, p=model.transitions.tensor[a, :, s]))
        actions.append(a)
        observations.append(int(rng.choice(model.n_obs, p=model.likelihood.matrix[:, s])))
    return History(tuple(observations), tuple(actions))


@pytest.fixture
def rng():
    return np.random.default_rng(20260808)
