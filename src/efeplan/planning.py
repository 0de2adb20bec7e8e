"""Expected-free-energy evaluation and policy selection.

Every candidate action sequence is scored against the model's preferences over
the remaining horizon. The planning objective and its decompositions, all in
nats, summed over future timesteps tau = t+1 .. T:

    risk       = sum_tau KL[ q(s_tau) || pref(s) ]
    ambiguity  = sum_tau E_{q(s_tau)}[ H[P(o|s)] ]
    total      = risk + ambiguity
    extrinsic  = sum_tau E_{q(o_tau)}[ log m(o) ]      m = A @ pref(s)
    intrinsic  = sum_tau E_{q(o_tau)}[ KL[ q(s_tau|o) || q(s_tau) ] ]
    residual   = total + extrinsic + intrinsic         (>= 0)

where q(.) are predictive marginals under the policy given the history,
pref(s) is the likelihood pullback of the observation log-preferences, and m
is the observation marginal of the preference model. Scoring extrinsic value
against m (rather than softmax(C) directly) is what makes the three-term
rewrite exact with a non-negative residual: the residual then equals the
expected KL from the predictive state posterior to the preference-model state
posterior, which the chain rule bounds below by zero.

The per-timestep (mean-field in time) form above is canonical; a
trajectory-exact variant over whole future state sequences is provided for
cross-checking at desk scale.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .inference import (
    conditional_state_posterior,
    enumerate_posterior,
    filter_and_smooth,
    predictive_observations,
)
from .maths import column_entropies, kl_divergence, safe_log, softmax
from .model import Categorical, GenerativeModel, History, Policy, pullback_preferences

POLICY_CAP = 10**6

# Action-marginal entries within this absolute distance of the maximum are
# tied, and argmax selection takes the lowest tied index. Exact objective ties
# (the T-maze's 16 first-decision policies) reach the marginal as differences
# of ~1e-16, rounding dust from summation order; the tolerance keeps that dust
# from choosing the action while staying far below any real preference gap.
ARGMAX_TIE_ATOL = 1e-12


class PolicySpaceOverflow(ValueError):
    """The policy enumeration would exceed the configured cap."""


class DimensionMismatch(ValueError):
    """A per-observation vector does not match the model's observation count."""


class ObjectiveKind(Enum):
    """Which score a planning agent maximizes during the agent comparison."""

    EXPECTED_FREE_ENERGY = "efe"
    EXPECTED_REWARD = "reward"
    REWARD_PLUS_INFO_GAIN = "reward_info_gain"
    INFO_GAIN_ONLY = "info_gain"


class SelectionMode(Enum):
    ARGMAX = "argmax"
    SAMPLE = "sample"


@dataclass(frozen=True)
class EfeBreakdown:
    """Per-policy record of the objective and both decompositions (nats)."""

    total: float
    risk: float
    ambiguity: float
    extrinsic: float
    intrinsic: float
    residual: float

    def as_row(self) -> tuple[float, ...]:
        return (
            self.total,
            self.risk,
            self.ambiguity,
            self.extrinsic,
            self.intrinsic,
            self.residual,
        )


@dataclass(frozen=True)
class TrajectoryObjective:
    """Trajectory-exact counterpart: risk over whole future state sequences."""

    total: float
    risk: float
    ambiguity: float


@dataclass(frozen=True, eq=False)
class PolicyPosterior:
    """Softmax distribution over every remaining policy, lexicographic order."""

    policies: tuple[Policy, ...]
    log_weights: np.ndarray
    probs: Categorical


class _PrefContext:
    """Preference quantities shared across all policies of one model."""

    def __init__(self, model: GenerativeModel):
        state_pref = pullback_preferences(model)
        self.A = model.likelihood.matrix
        self.B = model.transitions.tensor
        self.pref_states = state_pref.probs
        self.ln_pref_states = np.log(self.pref_states)
        self.obs_marginal = self.A @ self.pref_states
        self.ln_obs_marginal = safe_log(self.obs_marginal)
        self.col_entropy = column_entropies(self.A)


def _step_terms(
    ctx: _PrefContext, q: np.ndarray, qo: np.ndarray
) -> tuple[float, float, float, float]:
    """(risk, ambiguity, extrinsic, intrinsic) for one predictive state marginal.

    qo is the predictive observation marginal A @ q.
    """
    risk = kl_divergence(q, ctx.pref_states)
    ambiguity = float(q @ ctx.col_entropy)
    mask = qo > 0
    extrinsic = float(np.sum(qo[mask] * ctx.ln_obs_marginal[mask]))
    # E_o[KL(q(s|o) || q(s))] collapses to the mutual information I(s;o):
    # H(q_o) minus the expected likelihood-column entropy.
    intrinsic = float(-np.sum(qo[mask] * np.log(qo[mask]))) - ambiguity
    return risk, ambiguity, extrinsic, intrinsic


def _breakdown_from_terms(terms) -> EfeBreakdown:
    risk = float(sum(t[0] for t in terms))
    ambiguity = float(sum(t[1] for t in terms))
    extrinsic = float(sum(t[2] for t in terms))
    intrinsic = float(sum(t[3] for t in terms))
    total = risk + ambiguity
    return EfeBreakdown(
        total=total,
        risk=risk,
        ambiguity=ambiguity,
        extrinsic=extrinsic,
        intrinsic=intrinsic,
        residual=total + extrinsic + intrinsic,
    )


def efe_breakdown(model: GenerativeModel, history: History, policy: Policy) -> EfeBreakdown:
    """Evaluate one policy's expected free energy and its decompositions.

    Reference (single-policy) route: predictive marginals come from the full
    forward-backward pass and `predictive_observations`, and intrinsic value is
    accumulated observation by observation as the divergence of each
    `conditional_state_posterior` Bayes update.
    """
    ctx = _PrefContext(model)
    beliefs = filter_and_smooth(model, history, policy)
    obs_marginals = predictive_observations(model, beliefs)
    t = history.t
    terms = []
    for tau in range(t + 1, len(beliefs)):
        q = beliefs[tau].probs
        risk = kl_divergence(q, ctx.pref_states)
        ambiguity = float(q @ ctx.col_entropy)
        qo = obs_marginals[tau].probs
        mask = qo > 0
        extrinsic = float(np.sum(qo[mask] * ctx.ln_obs_marginal[mask]))
        intrinsic = 0.0
        for o in np.nonzero(mask)[0]:
            posterior = conditional_state_posterior(model, beliefs, tau, int(o))
            intrinsic += qo[o] * kl_divergence(posterior.probs, q)
        terms.append((risk, ambiguity, extrinsic, intrinsic))
    return _breakdown_from_terms(terms)


def enumerate_policies(
    n_actions: int, length: int, cap: int = POLICY_CAP
) -> tuple[Policy, ...]:
    """All action sequences of the given length, lexicographic order."""
    count = n_actions**length
    if count > cap:
        raise PolicySpaceOverflow(
            f"{n_actions}^{length} = {count} policies exceeds the cap {cap}"
        )
    return tuple(Policy(seq) for seq in itertools.product(range(n_actions), repeat=length))


def _policy_tree(
    model: GenerativeModel, history: History, reward: np.ndarray | None = None
) -> tuple[tuple[Policy, ...], list[EfeBreakdown], np.ndarray | None]:
    """Breakdowns for every remaining policy, sharing work across common prefixes.

    Predictive marginals for timesteps past t equal the filtered belief pushed
    through the transition tensor, so the whole policy tree is evaluated with
    one matrix-vector product and one set of per-step terms per tree node.
    Given a per-observation reward vector, each node also scores its expected
    reward, and each policy's path sum is returned as the third value.
    """
    policies = enumerate_policies(model.n_actions, model.horizon - history.t)
    ctx = _PrefContext(model)
    root = filter_and_smooth(model, history).per_time[history.t].probs
    scoring = reward is not None
    belief_cache: dict[tuple[int, ...], np.ndarray] = {(): root}
    term_cache: dict[tuple[int, ...], tuple[float, float, float, float]] = {}
    reward_cache: dict[tuple[int, ...], float] = {}
    rewards = np.empty(len(policies)) if scoring else None
    rows = []
    for i, policy in enumerate(policies):
        prefix: tuple[int, ...] = ()
        terms = []
        acc = 0.0
        for a in policy.actions:
            parent = belief_cache[prefix]
            prefix = prefix + (a,)
            if prefix not in belief_cache:
                q = belief_cache[prefix] = ctx.B[a] @ parent
                qo = ctx.A @ q
                term_cache[prefix] = _step_terms(ctx, q, qo)
                if scoring:
                    reward_cache[prefix] = float(reward @ qo)
            terms.append(term_cache[prefix])
            if scoring:
                acc += reward_cache[prefix]
        rows.append(_breakdown_from_terms(terms))
        if scoring:
            rewards[i] = acc
    return policies, rows, rewards


def efe_table(
    model: GenerativeModel, history: History
) -> tuple[tuple[Policy, ...], list[EfeBreakdown]]:
    """Breakdowns for every remaining policy, in lexicographic policy order."""
    policies, rows, _ = _policy_tree(model, history)
    return policies, rows


def trajectory_objective(
    model: GenerativeModel, history: History, policy: Policy, cap: int = 10**7
) -> TrajectoryObjective:
    """Trajectory-exact objective: risk over the joint future state sequence.

    The future-sequence posterior comes from full enumeration; the preference
    over a sequence is the product of the i.i.d. per-step state preferences.
    Ambiguity is unchanged (it is already a per-step expectation). The gap
    between this risk and the per-timestep form is the statistical dependence
    of the predicted trajectory across time.
    """
    ctx = _PrefContext(model)
    post = enumerate_posterior(model, history, policy, cap=cap)
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
    return TrajectoryObjective(total=risk + ambiguity, risk=risk, ambiguity=ambiguity)


def _checked_reward(model: GenerativeModel, reward_per_obs) -> np.ndarray:
    """reward_per_obs as a float vector with one entry per observation."""
    if reward_per_obs is None:
        raise DimensionMismatch("reward_per_obs is required for reward objectives")
    reward = np.asarray(reward_per_obs, dtype=float)
    if reward.shape != (model.n_obs,):
        raise DimensionMismatch(
            f"reward_per_obs has shape {reward.shape}, expected ({model.n_obs},)"
        )
    return reward


def alternative_objective(
    model: GenerativeModel,
    history: History,
    policy: Policy,
    kind: ObjectiveKind,
    reward_per_obs: np.ndarray | None = None,
) -> float:
    """Score one policy under a comparison objective. Higher is better.

    EXPECTED_REWARD sums predicted per-observation rewards; INFO_GAIN_ONLY is
    the intrinsic term alone; REWARD_PLUS_INFO_GAIN adds the two; and
    EXPECTED_FREE_ENERGY returns the negated total so that every kind is
    maximized uniformly.
    """
    if kind in (ObjectiveKind.EXPECTED_REWARD, ObjectiveKind.REWARD_PLUS_INFO_GAIN):
        reward_per_obs = _checked_reward(model, reward_per_obs)
    breakdown = efe_breakdown(model, history, policy)
    if kind is ObjectiveKind.EXPECTED_FREE_ENERGY:
        return -breakdown.total
    if kind is ObjectiveKind.INFO_GAIN_ONLY:
        return breakdown.intrinsic

    beliefs = filter_and_smooth(model, history, policy)
    A = model.likelihood.matrix
    expected_reward = sum(
        float(reward_per_obs @ (A @ beliefs[tau].probs))
        for tau in range(history.t + 1, len(beliefs))
    )
    if kind is ObjectiveKind.EXPECTED_REWARD:
        return expected_reward
    return expected_reward + breakdown.intrinsic


def policy_scores(
    model: GenerativeModel,
    history: History,
    kind: ObjectiveKind,
    reward_per_obs: np.ndarray | None = None,
) -> tuple[tuple[Policy, ...], np.ndarray, list[EfeBreakdown]]:
    """Maximization scores for every remaining policy, plus their breakdowns."""
    if kind is ObjectiveKind.EXPECTED_FREE_ENERGY:
        policies, rows = efe_table(model, history)
        return policies, np.array([-r.total for r in rows]), rows
    if kind is ObjectiveKind.INFO_GAIN_ONLY:
        policies, rows = efe_table(model, history)
        return policies, np.array([r.intrinsic for r in rows]), rows
    reward = _checked_reward(model, reward_per_obs)
    policies, rows, scores = _policy_tree(model, history, reward)
    if kind is ObjectiveKind.REWARD_PLUS_INFO_GAIN:
        scores = scores + np.array([r.intrinsic for r in rows])
    return policies, scores, rows


def policy_posterior(
    model: GenerativeModel,
    history: History,
    gamma: float = 1.0,
    kind: ObjectiveKind = ObjectiveKind.EXPECTED_FREE_ENERGY,
    reward_per_obs: np.ndarray | None = None,
) -> PolicyPosterior:
    """Softmax posterior over all remaining policies.

    For the expected-free-energy objective the weights are exp(-gamma * total),
    the exact posterior at gamma = 1 under the normalization assumption; gamma
    is exposed as an explicit precision generalization. Comparison objectives
    use exp(+gamma * score) so the maximizer is always the mode.
    """
    return _scored_posterior(model, history, gamma, kind, reward_per_obs)[0]


def _scored_posterior(
    model: GenerativeModel,
    history: History,
    gamma: float,
    kind: ObjectiveKind = ObjectiveKind.EXPECTED_FREE_ENERGY,
    reward_per_obs: np.ndarray | None = None,
) -> tuple[PolicyPosterior, list[EfeBreakdown]]:
    """policy_posterior plus the EFE breakdowns its single tree pass scored."""
    if gamma < 0:
        raise ValueError("gamma must be non-negative")
    if model.horizon - history.t < 1:
        raise ValueError("no decisions remain at this history")
    policies, scores, rows = policy_scores(model, history, kind, reward_per_obs)
    log_weights = gamma * scores
    posterior = PolicyPosterior(
        policies=policies,
        log_weights=log_weights,
        probs=Categorical(softmax(log_weights)),
    )
    return posterior, rows


def action_marginal(posterior: PolicyPosterior, n_actions: int) -> Categorical:
    """Marginalize the policy posterior onto the next action."""
    if not posterior.policies:
        raise ValueError("empty policy posterior")
    marginal = np.zeros(n_actions)
    for policy, prob in zip(posterior.policies, posterior.probs.probs):
        marginal[policy.actions[0]] += prob
    return Categorical(marginal / marginal.sum())


def _tied_argmax(probs: np.ndarray) -> int:
    """Lowest index whose entry lies within ARGMAX_TIE_ATOL of the maximum."""
    return int(np.flatnonzero(probs >= probs.max() - ARGMAX_TIE_ATOL)[0])


def select_action(
    marginal: Categorical,
    mode: SelectionMode = SelectionMode.ARGMAX,
    rng: np.random.Generator | None = None,
) -> int:
    """Pick the next action: deterministic argmax (ties -> lowest index) or a draw.

    Under argmax, entries within ARGMAX_TIE_ATOL of the maximum count as tied.
    """
    if mode is SelectionMode.ARGMAX:
        return _tied_argmax(marginal.probs)
    if rng is None:
        raise ValueError("sampling selection requires an rng substream")
    return int(rng.choice(len(marginal), p=marginal.probs))
