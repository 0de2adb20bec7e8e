"""Exact posterior and predictive inference over hidden-state trajectories.

Two routes to the same posteriors: brute-force enumeration of every state
sequence (the oracle, exponential in the horizon) and forward-backward
recursion over the action-conditioned chain (the fast path). Both condition on
the observed prefix o_{0..t} and a committed action sequence a_{1..L}; steps
beyond t carry no evidence, so their marginals are predictive.

Enumeration runs in log space; forward-backward runs in linear space and
rescales each observed step by its evidence, so long histories stay in range.
"""
from __future__ import annotations

import operator
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from .maths import NORM_ATOL, logsumexp, safe_log
from .model import Categorical, GenerativeModel, History, Policy, _frozen_array

ENUMERATION_CAP = 10**7
_TINY = np.finfo(float).tiny  # the smallest evidence a filter step accepts


class ZeroEvidence(ValueError):
    """An observed symbol has probability zero under the model and history.

    `filter_and_smooth` raises it when the evidence of an observation given
    the earlier ones is below np.finfo(float).tiny (~2.2e-308), so an
    observation whose evidence underflows counts as impossible there;
    `enumerate_posterior` raises it only on an exact zero.
    """

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


class MarginalBeliefs(Sequence):
    """Per-timestep posteriors over states, index 0 .. len(actions), as one block.

    `block` is a read-only (L, S) copy of the marginals, every row checked in
    one vectorized pass by the rule `Categorical` applies. `beliefs[t]` wraps
    row t, a read-only view, in a Categorical that is built only when read.
    """

    def __init__(self, block):
        block = _frozen_array(block)
        if block.ndim != 2:
            raise ValueError("MarginalBeliefs requires a 2-D (timesteps, states) block")
        if not ((block >= 0).all() and (np.abs(block.sum(axis=1) - 1.0) <= NORM_ATOL).all()):
            raise ValueError(
                f"probabilities must be non-negative and sum to 1 within {NORM_ATOL}"
            )
        self.block = block

    def __len__(self) -> int:
        return len(self.block)

    def __getitem__(self, t) -> Categorical:
        row = object.__new__(Categorical)  # the block is already checked
        object.__setattr__(row, "probs", self.block[operator.index(t)])
        return row


@dataclass(frozen=True, eq=False)
class StateTrajectoryPosterior:
    """Exact posterior over whole state sequences.

    sequences is an (N, L) integer array listing every length-L state sequence
    in lexicographic order; probs is the matching normalized distribution.
    """

    sequences: np.ndarray
    probs: Categorical

    def marginals(self, n_states: int) -> MarginalBeliefs:
        """Per-timestep marginals, one block: each row a weighted bincount over its sum."""
        w = self.probs.probs
        block = np.stack([np.bincount(s, weights=w, minlength=n_states) for s in self.sequences.T])
        return MarginalBeliefs(block / block.sum(axis=1, keepdims=True))


@dataclass(frozen=True, eq=False)
class PreferencePosterior:
    """Posterior preferences: filtered past plus i.i.d. future preference marginals."""

    past: MarginalBeliefs
    future_states: tuple[Categorical, ...]
    future_obs: tuple[Categorical, ...]


def checked_actions(
    model: GenerativeModel, history: History, policy: Policy | None = None
) -> tuple[int, ...]:
    """The history's actions followed by the policy's; ValueError if they do not fit.

    They do not fit when they span more actions than the horizon, or when an
    action or observation index lies outside the model's range.
    """
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
) -> StateTrajectoryPosterior:
    """Exact trajectory posterior by summing the joint over all state sequences.

    Future observations are marginalized out (their emission factors sum to
    one), so only the observed prefix contributes evidence. Complexity is
    |S|^(L) joint terms for a chain of L timesteps; refuses above ENUMERATION_CAP.
    The evidence is checked after each observed step, so ZeroEvidence names the
    first impossible observation, as `filter_and_smooth` does.
    """
    actions = checked_actions(model, history, policy)
    L = len(actions) + 1
    S = model.n_states
    n_seq = S**L
    if n_seq > ENUMERATION_CAP:
        raise HorizonOverflow(
            f"{S}^{L} = {n_seq} joint terms exceeds the enumeration cap {ENUMERATION_CAP}"
        )

    logA = safe_log(model.likelihood.matrix)
    logB = safe_log(model.transitions.tensor)
    logD = safe_log(model.initial_belief.probs)

    # State at timestep tau of flat sequence k (C-order): (k // S^(L-1-tau)) % S.
    flat = np.arange(n_seq)
    idx_at = lambda tau: (flat // S ** (L - 1 - tau)) % S  # noqa: E731

    def observe(tau: int, cur: np.ndarray, logp: np.ndarray) -> np.ndarray:
        # Every sequence has probability zero once o_0..tau is impossible; the
        # first such tau is the observation the filter's forward pass blames.
        o = history.observations[tau]
        logp = logp + logA[o, cur]
        if not np.isfinite(logsumexp(logp)):
            raise ZeroEvidence(tau, o)
        return logp

    prev = idx_at(0)
    logp = observe(0, prev, logD[prev])
    for tau in range(1, L):
        cur = idx_at(tau)
        logp = logp + logB[actions[tau - 1], cur, prev]
        if tau < len(history.observations):
            logp = observe(tau, cur, logp)
        prev = cur

    norm = logsumexp(logp)
    probs = np.exp(logp - norm)
    probs /= probs.sum()

    sequences = np.stack([idx_at(tau) for tau in range(L)], axis=1).astype(np.int32)
    return StateTrajectoryPosterior(sequences=sequences, probs=Categorical(probs))


def filter_and_smooth(
    model: GenerativeModel,
    history: History,
    policy: Policy | None = None,
    *,
    smooth: bool = True,
) -> MarginalBeliefs:
    """Per-timestep exact smoothed/predictive marginals via forward-backward.

    Timesteps up to t are smoothed against the observed prefix; timesteps past
    t (no evidence yet) come out as predictive marginals under the policy.

    The recursion is the scaled forward-backward algorithm (Rabiner, Proc.
    IEEE 77(2), 1989) in linear space, one matrix-vector product per step, as
    the policy tree propagates beliefs. Forward: alpha_0 is D*A[o_0], then
    alpha_tau = B[a_tau] alpha_{tau-1}; an observed step also multiplies by
    A[o_tau] and divides by its sum c_tau, the evidence of o_tau given the
    earlier observations. Backward: beta_tau = B[a_{tau+1}]^T (A[o_{tau+1}] *
    beta_{tau+1}) / c_{tau+1}, or B[a_{tau+1}]^T beta_{tau+1} past the last
    observation, with the entries of states whose alpha_{tau+1} is 0 dropped.
    The L marginals are the rows of alpha*beta, each divided by its sum, and
    the call returns them as one checked block: a row's Categorical is built
    only when a caller reads it.

    ZeroEvidence is raised at the first observed step whose c_tau is below
    np.finfo(float).tiny (~2.2e-308): an impossible observation, or one whose
    evidence given the earlier ones underflows. Likewise a state whose
    filtered probability falls below the smallest subnormal is 0 from then on.

    With smooth=False the call returns after the forward pass, with the
    filtering marginals q(s_tau | o_0..tau): no backward messages are built.
    At the last observed step t that is the smoothed marginal bit for bit
    when no policy follows, since the last row is never multiplied by a
    backward message. Planning roots its policy tree there.
    """
    actions = checked_actions(model, history, policy)
    B = model.transitions.tensor
    observations = history.observations
    n_obs_steps = len(observations)
    # likelihoods[tau] = A[o_tau], the evidence factor of each observed step
    likelihoods = model.likelihood.matrix.take(observations, axis=0)

    alphas = np.empty((len(actions) + 1, model.n_states))
    norms = np.empty(n_obs_steps)
    alpha = np.multiply(model.initial_belief.probs, likelihoods[0], out=alphas[0])
    for tau in range(len(alphas)):
        if tau:
            alpha = np.dot(B[actions[tau - 1]], alpha, out=alphas[tau])
            if tau >= n_obs_steps:
                continue
            alpha *= likelihoods[tau]
        c = alpha.sum()
        if c < _TINY:
            raise ZeroEvidence(tau, observations[tau])
        norms[tau] = c
        alpha /= c

    if smooth:
        # weights[tau - 1] = A[o_tau] / c_tau, zero where alpha_tau is: a state
        # the forward pass rules out has no marginal to give, and its backward
        # entry alone can overflow on a near-deterministic model.
        weights = likelihoods[1:]
        weights *= alphas[1:n_obs_steps] > 0
        weights /= norms[1:, np.newaxis]
        beta = np.ones(model.n_states)
        for tau in range(len(actions) - 1, -1, -1):
            if tau + 1 < n_obs_steps:
                beta *= weights[tau]
            beta = np.dot(beta, B[actions[tau]])
            alphas[tau] *= beta
    alphas /= alphas.sum(axis=1, keepdims=True)
    return MarginalBeliefs(alphas)


def predictive_observations(
    model: GenerativeModel, beliefs: MarginalBeliefs
) -> tuple[Categorical, ...]:
    """Push state marginals through the likelihood: one obs marginal per timestep."""
    A = model.likelihood.matrix
    out = []
    for b in beliefs:
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
    state_pref = model.planner_context.state_pref
    obs_pref = model.preferences.obs_distribution()
    n_future = model.horizon - history.t
    return PreferencePosterior(
        past=past,
        future_states=tuple([state_pref] * n_future),
        future_obs=tuple([obs_pref] * n_future),
    )
