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
from math import isfinite

import numpy as np

from .maths import logsumexp, safe_log, softmax
from .model import Categorical, GenerativeModel, History, Policy, categorical_rows

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

    With smooth=False the call returns after the forward pass, with the
    filtering marginals q(s_tau | o_0..tau): no backward messages are built.
    At the last observed step t that is the smoothed marginal bit for bit
    when no policy follows: the backward message at the last step is +0.0
    everywhere, so adding it changes no logit. Planning roots its policy tree
    there.

    Each step is `maths.logsumexp` fused in place: when every row maximum
    (forward) or column maximum (backward) is finite, the step computes
    log(sum(exp(x - m))) + m with direct ufunc reductions on one scratch
    array; otherwise it calls `logsumexp`, the one implementation of the rule
    for -inf maxima. Both run the operations of `logsumexp` in its order, so
    every marginal is bit-identical to the per-step form. The L marginals are
    read-only row views of one frozen softmax block (`categorical_rows`).
    The log tables are rebuilt per call rather than cached on the model: a
    caller that keeps its models would keep every cached table with them
    (caching them raised the late-decision benchmark's peak RSS by 7-11%).
    """
    actions = checked_actions(model, history, policy)
    L = len(actions) + 1
    S = model.n_states
    observations = history.observations
    n_obs_steps = len(observations)

    logA = safe_log(model.likelihood.matrix)
    logB = safe_log(model.transitions.tensor)
    maximum, add = np.maximum.reduce, np.add.reduce
    # The scratch takes the memory layout of logB[a] + v, the array the
    # per-step form reduces, because the order of a reduction's sum follows
    # that layout (a Fortran-ordered B sums each row in sequence, not pairwise).
    x = np.empty_like(logB[0])
    m = np.empty(S)
    m_col = m[:, np.newaxis]

    # Forward pass, renormalizing each step to keep magnitudes bounded.
    alphas = np.empty((L, S))
    la = alphas[0]
    np.add(safe_log(model.initial_belief.probs), logA[observations[0]], out=la)
    _log_normalize(la, 0, observations[0])
    for tau in range(1, L):
        np.add(logB[actions[tau - 1]], la, out=x)
        la = alphas[tau]
        maximum(x, axis=1, out=m)
        # A sum of maxima is finite only when every maximum is; an overflowing
        # sum of finite ones merely takes the fallback, which gives the same bits.
        if isfinite(add(m)):
            x -= m_col
            np.exp(x, out=x)
            add(x, axis=1, out=la)
            np.log(la, out=la)
            la += m
        else:
            la[...] = logsumexp(x, axis=1)
        if tau < n_obs_steps:
            la += logA[observations[tau]]
            _log_normalize(la, tau, observations[tau])

    if not smooth:
        return MarginalBeliefs(categorical_rows(softmax(alphas)))

    # Backward pass; steps without evidence contribute nothing beyond dynamics.
    betas = np.zeros((L, S))
    beta_cols = betas[:, :, np.newaxis]
    logA_cols = logA[:, :, np.newaxis]
    for tau in range(L - 2, -1, -1):
        np.add(logB[actions[tau]], beta_cols[tau + 1], out=x)
        if tau + 1 < n_obs_steps:
            x += logA_cols[observations[tau + 1]]
        lb = betas[tau]
        maximum(x, axis=0, out=m)
        if isfinite(add(m)):
            x -= m
            np.exp(x, out=x)
            add(x, axis=0, out=lb)
            np.log(lb, out=lb)
            lb += m
        else:
            lb[...] = logsumexp(x, axis=0)

    alphas += betas
    return MarginalBeliefs(categorical_rows(softmax(alphas)))


def _log_normalize(la: np.ndarray, timestep: int, observation: int) -> None:
    """Subtract logsumexp(la) from la in place; ZeroEvidence if it is not finite.

    The fast path keeps the (1,)-shaped intermediates of `logsumexp` with
    axis=None, so exp and log run on the same array shapes and every bit
    matches; a finite maximum always gives a finite norm.
    """
    m = np.maximum.reduce(la, keepdims=True)
    if isfinite(m[0]):
        norm = np.log(np.add.reduce(np.exp(la - m), keepdims=True))
        norm += m
    else:
        norm = logsumexp(la)
        if not isfinite(norm):
            raise ZeroEvidence(timestep, observation)
    la -= norm


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
    state_pref = model.planner_context.state_pref
    obs_pref = model.preferences.obs_distribution()
    n_future = model.horizon - history.t
    return PreferencePosterior(
        past=past,
        future_states=tuple([state_pref] * n_future),
        future_obs=tuple([obs_pref] * n_future),
    )
