"""Exact posterior and predictive inference over hidden-state trajectories.

Two routes to the same posteriors: brute-force enumeration of every state
sequence (the oracle, exponential in the horizon) and forward-backward
recursion over the action-conditioned chain (the fast path). Both condition on
the observed prefix o_{0..t} and a committed action sequence a_{1..L}; steps
beyond t carry no evidence, so their marginals are predictive.

Filtering runs in log space to avoid underflow; probabilities are
exponentiated and renormalized only at the boundary.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .maths import logsumexp, safe_log
from .model import Categorical, GenerativeModel, History, Policy, pullback_preferences

ENUMERATION_CAP = 10**7


class ZeroEvidence(ValueError):
    """An observed symbol has probability zero under the model and history."""

    def __init__(self, timestep: int, observation: int):
        self.timestep = timestep
        self.observation = observation
        super().__init__(
            f"observation {observation} at timestep {timestep} has probability 0 "
            "under the model; the history is inconsistent with the model"
        )


class ZeroProbabilityObservation(ValueError):
    """A hypothetical observation with zero predictive probability was conditioned on."""


class HorizonOverflow(ValueError):
    """The requested enumeration exceeds the configured joint-term cap."""


@dataclass(frozen=True, eq=False)
class MarginalBeliefs:
    """Per-timestep posteriors over states, index 0 .. len(actions)."""

    per_time: tuple[Categorical, ...]

    def __len__(self) -> int:
        return len(self.per_time)

    def __getitem__(self, t: int) -> Categorical:
        return self.per_time[t]


@dataclass(frozen=True, eq=False)
class StateTrajectoryPosterior:
    """Exact posterior over whole state sequences.

    sequences is an (N, L) integer array listing every length-L state sequence
    in lexicographic order; probs is the matching normalized distribution.
    """

    sequences: np.ndarray
    probs: Categorical

    def marginals(self, n_states: int) -> MarginalBeliefs:
        """Collapse the sequence posterior to per-timestep state marginals."""
        L = self.sequences.shape[1]
        out = []
        for tau in range(L):
            m = np.bincount(
                self.sequences[:, tau], weights=self.probs.probs, minlength=n_states
            )
            out.append(Categorical(m / m.sum()))
        return MarginalBeliefs(tuple(out))


@dataclass(frozen=True, eq=False)
class PreferencePosterior:
    """Posterior preferences: filtered past plus i.i.d. future preference marginals."""

    past: MarginalBeliefs
    future_states: tuple[Categorical, ...]
    future_obs: tuple[Categorical, ...]


def _combined_actions(model: GenerativeModel, history: History, policy: Policy | None):
    actions = history.actions + (policy.actions if policy is not None else ())
    if len(actions) > model.horizon:
        raise ValueError(
            f"history and policy span {len(actions)} actions, horizon is {model.horizon}"
        )
    for a in actions:
        if not 0 <= a < model.n_actions:
            raise ValueError(f"action index {a} out of range")
    for o in history.observations:
        if not 0 <= o < model.n_obs:
            raise ValueError(f"observation index {o} out of range")
    return actions


def enumerate_posterior(
    model: GenerativeModel,
    history: History,
    policy: Policy | None = None,
    cap: int = ENUMERATION_CAP,
) -> StateTrajectoryPosterior:
    """Exact trajectory posterior by summing the joint over all state sequences.

    Future observations are marginalized out (their emission factors sum to
    one), so only the observed prefix contributes evidence. Complexity is
    |S|^(L) joint terms for a chain of L timesteps; refuses above `cap`.
    """
    actions = _combined_actions(model, history, policy)
    L = len(actions) + 1
    S = model.n_states
    n_seq = S**L
    if n_seq > cap:
        raise HorizonOverflow(
            f"{S}^{L} = {n_seq} joint terms exceeds the enumeration cap {cap}"
        )

    logA = safe_log(model.likelihood.matrix)
    logB = safe_log(model.transitions.tensor)
    logD = safe_log(model.initial_belief.probs)

    # State at timestep tau of flat sequence k (C-order): (k // S^(L-1-tau)) % S.
    flat = np.arange(n_seq)
    idx_at = lambda tau: (flat // S ** (L - 1 - tau)) % S  # noqa: E731

    prev = idx_at(0)
    logp = logD[prev] + logA[history.observations[0], prev]
    for tau in range(1, L):
        cur = idx_at(tau)
        logp = logp + logB[actions[tau - 1], cur, prev]
        if tau < len(history.observations):
            logp = logp + logA[history.observations[tau], cur]
        prev = cur

    norm = logsumexp(logp)
    if not np.isfinite(norm):
        # Every sequence has probability zero: some observation is impossible.
        raise ZeroEvidence(len(history.observations) - 1, history.observations[-1])
    probs = np.exp(logp - norm)
    probs /= probs.sum()

    sequences = np.stack([idx_at(tau) for tau in range(L)], axis=1).astype(np.int32)
    return StateTrajectoryPosterior(sequences=sequences, probs=Categorical(probs))


def filter_and_smooth(
    model: GenerativeModel, history: History, policy: Policy | None = None
) -> MarginalBeliefs:
    """Per-timestep exact smoothed/predictive marginals via forward-backward.

    Timesteps up to t are smoothed against the observed prefix; timesteps past
    t (no evidence yet) come out as predictive marginals under the policy.
    """
    actions = _combined_actions(model, history, policy)
    L = len(actions) + 1
    n_obs_steps = len(history.observations)

    logA = safe_log(model.likelihood.matrix)
    logB = safe_log(model.transitions.tensor)

    # Forward pass, renormalizing each step to keep magnitudes bounded.
    alphas = np.empty((L, model.n_states))
    la = safe_log(model.initial_belief.probs) + logA[history.observations[0]]
    norm = logsumexp(la)
    if not np.isfinite(norm):
        raise ZeroEvidence(0, history.observations[0])
    la = la - norm
    alphas[0] = la
    for tau in range(1, L):
        la = logsumexp(logB[actions[tau - 1]] + la[np.newaxis, :], axis=1)
        if tau < n_obs_steps:
            la = la + logA[history.observations[tau]]
            norm = logsumexp(la)
            if not np.isfinite(norm):
                raise ZeroEvidence(tau, history.observations[tau])
            la = la - norm
        alphas[tau] = la

    # Backward pass; steps without evidence contribute nothing beyond dynamics.
    betas = np.zeros((L, model.n_states))
    for tau in range(L - 2, -1, -1):
        msg = logB[actions[tau]] + betas[tau + 1][:, np.newaxis]
        if tau + 1 < n_obs_steps:
            msg = msg + logA[history.observations[tau + 1]][:, np.newaxis]
        betas[tau] = logsumexp(msg, axis=0)

    # Row-wise softmax of alpha + beta: the per-row arithmetic of maths.softmax.
    z = alphas + betas
    e = np.exp(z - z.max(axis=1, keepdims=True))
    marginals = tuple(Categorical(row) for row in e / e.sum(axis=1, keepdims=True))
    return MarginalBeliefs(marginals)


def predictive_observations(
    model: GenerativeModel, beliefs: MarginalBeliefs
) -> tuple[Categorical, ...]:
    """Push state marginals through the likelihood: one obs marginal per timestep."""
    A = model.likelihood.matrix
    out = []
    for b in beliefs.per_time:
        qo = A @ b.probs
        out.append(Categorical(qo / qo.sum()))
    return tuple(out)


def conditional_state_posterior(
    model: GenerativeModel,
    beliefs: MarginalBeliefs,
    timestep: int,
    hypothetical_obs: int,
) -> Categorical:
    """Bayes-update the predictive state marginal at `timestep` by one observation."""
    prior = beliefs[timestep].probs
    w = model.likelihood.matrix[hypothetical_obs] * prior
    total = w.sum()
    if total <= 0.0:
        raise ZeroProbabilityObservation(
            f"observation {hypothetical_obs} has zero predictive probability "
            f"at timestep {timestep}"
        )
    return Categorical(w / total)


def preferential_inference(model: GenerativeModel, history: History) -> PreferencePosterior:
    """Infer the preference posterior given the observed prefix.

    The past factor is the smoothed posterior over timesteps 0..t; the future
    factor is the i.i.d. per-timestep preference marginals: the likelihood
    pullback for states and softmax(obs_log_pref) for observations.
    """
    past = filter_and_smooth(model, history, policy=None)
    state_pref = pullback_preferences(model)
    obs_pref = model.preferences.obs_distribution()
    n_future = model.horizon - history.t
    return PreferencePosterior(
        past=past,
        future_states=tuple([state_pref] * n_future),
        future_obs=tuple([obs_pref] * n_future),
    )
