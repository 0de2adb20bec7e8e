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
trajectory-exact variant over whole future state sequences, computed in closed
form by the chain rule, is provided for cross-checking that assumption.
"""
from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .inference import (
    MarginalBeliefs,
    conditional_state_posterior,
    filter_and_smooth,
    predictive_observations,
)
from .maths import column_entropies, entropy, kl_divergence, softmax
from .model import Categorical, GenerativeModel, History, PlannerContext, Policy

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


def _step_terms(
    ctx: PlannerContext, q: np.ndarray, qo: np.ndarray
) -> tuple[float, float, float, float]:
    """(risk, ambiguity, extrinsic, intrinsic) for one predictive state marginal.

    qo is the predictive observation marginal A @ q. The operations and their
    order are those of `kl_divergence` and the masked sums of `efe_breakdown`,
    so every term is bit-identical to that route; each masked vector is taken
    once and the context's logs are reused.
    """
    m = q > 0
    qm = q[m]
    # A state preference that underflowed to 0 has log -inf, so its entry and
    # the sum are +inf: the inf that kl_divergence returns, with no test for it.
    log_ratio = np.log(qm)
    log_ratio -= ctx.ln_pref_states[m]
    log_ratio *= qm
    risk = float(np.add.reduce(log_ratio))
    ambiguity = float(q @ ctx.col_entropy)
    mask = qo > 0
    qom = qo[mask]
    extrinsic = float(np.add.reduce(qom * ctx.ln_obs_marginal[mask]))
    # E_o[KL(q(s|o) || q(s))] collapses to the mutual information I(s;o):
    # H(q_o) minus the expected likelihood-column entropy.
    plogp = np.log(qom)
    plogp *= qom
    intrinsic = -float(np.add.reduce(plogp)) - ambiguity
    return risk, ambiguity, extrinsic, intrinsic


def _breakdown(sums: tuple[float, float, float, float]) -> EfeBreakdown:
    """The row of one policy from its (risk, ambiguity, extrinsic, intrinsic) sums."""
    risk, ambiguity, extrinsic, intrinsic = sums
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
    return _breakdown_of_beliefs(model, history, filter_and_smooth(model, history, policy))


def _breakdown_of_beliefs(
    model: GenerativeModel, history: History, beliefs: MarginalBeliefs
) -> EfeBreakdown:
    """efe_breakdown of the policy whose smoothed beliefs are given."""
    ctx = model.planner_context
    obs_marginals = predictive_observations(model, beliefs)
    sums = (0.0, 0.0, 0.0, 0.0)
    for tau in range(history.t + 1, len(beliefs)):
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
        terms = (risk, ambiguity, extrinsic, float(intrinsic))
        sums = tuple(s + x for s, x in zip(sums, terms))
    return _breakdown(sums)


def enumerate_policies(n_actions: int, length: int) -> tuple[Policy, ...]:
    """All action sequences of the given length, lexicographic order.

    Calls for one (n_actions, length) return the same tuple, kept in a cache of
    the last few shapes, so posteriors of one shape share their policies.
    More than POLICY_CAP policies, or a length above POLICY_CAP, is a
    PolicySpaceOverflow. The count is never built: with at least 2 actions,
    POLICY_CAP.bit_length() steps already exceed the cap, and below that the
    power of at most POLICY_CAP + 1 has a bounded number of digits.
    """
    if length > POLICY_CAP or (
        n_actions > 1
        and (
            length >= POLICY_CAP.bit_length()
            or min(n_actions, POLICY_CAP + 1) ** length > POLICY_CAP
        )
    ):
        raise PolicySpaceOverflow(
            f"{n_actions} actions over {length} steps exceed the cap of "
            f"{POLICY_CAP} policies"
        )
    return _policy_space(n_actions, length)


@functools.lru_cache(maxsize=8)
def _policy_space(n_actions: int, length: int) -> tuple[Policy, ...]:
    return tuple(Policy(seq) for seq in itertools.product(range(n_actions), repeat=length))


def _policy_tree(
    model: GenerativeModel, history: History, reward: np.ndarray | None = None
) -> tuple[tuple[Policy, ...], list[EfeBreakdown], np.ndarray | None]:
    """Breakdowns for every remaining policy, sharing work across common prefixes.

    The root is the filtered belief at t, from one forward pass with no
    backward pass (`filter_and_smooth(..., smooth=False)`): at the last
    observed step the smoothed belief equals it bit for bit. Predictive
    marginals for timesteps past t equal that belief pushed through the
    transition tensor, so the tree is expanded one depth at a time,
    with one matrix-vector product and one set of per-step terms per node. Each
    node carries its path's running term sums, added in depth order from +0.0;
    listing every parent's children in action order leaves the last level in
    lexicographic policy order. Given a per-observation reward vector, each node
    also adds its expected reward to a running sum, returned per policy as the
    third value.
    """
    depth = model.horizon - history.t
    policies = enumerate_policies(model.n_actions, depth)
    ctx = model.planner_context
    A, B = model.likelihood.matrix, model.transitions.tensor
    root = filter_and_smooth(model, history, smooth=False).per_time[history.t].probs
    level = [(root, (0.0, 0.0, 0.0, 0.0), 0.0)]
    for _ in range(depth):
        children = []
        for parent, sums, earned in level:
            for B_a in B:
                q = B_a @ parent
                qo = A @ q
                risk, ambiguity, extrinsic, intrinsic = _step_terms(ctx, q, qo)
                child_sums = (
                    sums[0] + risk,
                    sums[1] + ambiguity,
                    sums[2] + extrinsic,
                    sums[3] + intrinsic,
                )
                child_earned = earned if reward is None else earned + float(reward @ qo)
                children.append((q, child_sums, child_earned))
        level = children
    rows = [_breakdown(sums) for _, sums, _ in level]
    rewards = None if reward is None else np.array([earned for _, _, earned in level])
    return policies, rows, rewards


def efe_table(
    model: GenerativeModel, history: History
) -> tuple[tuple[Policy, ...], list[EfeBreakdown]]:
    """Breakdowns for every remaining policy, in lexicographic policy order."""
    policies, rows, _ = _policy_tree(model, history)
    return policies, rows


def trajectory_objective(
    model: GenerativeModel, history: History, policy: Policy
) -> TrajectoryObjective:
    """Trajectory-exact objective: risk over the joint future state sequence.

    The preference over a sequence is the product of the i.i.d. per-step state
    preferences. Under a fixed policy the future states form a Markov chain, so
    the chain rule gives the joint entropy in closed form from the predictive
    marginals q_tau and the transition column entropies h_a:

        H(s_{t+1..T}) = H(q_{t+1}) + sum_{tau >= t+2} q_{tau-1} . h_{a_tau}
        risk          = -H(s_{t+1..T}) - sum_tau E_{q_tau}[ ln pref(s) ]

    Ambiguity is unchanged (it is already a per-step expectation). The gap
    between this risk and the per-timestep form is sum_tau I(s_{tau-1}; s_tau),
    the statistical dependence of the predicted trajectory across time.
    """
    beliefs = filter_and_smooth(model, history, policy)
    actions = history.actions + policy.actions
    B = model.transitions.tensor
    ctx = model.planner_context
    joint_entropy = cross_entropy = ambiguity = 0.0
    for tau in range(history.t + 1, len(beliefs)):
        q = beliefs[tau].probs
        if tau == history.t + 1:
            joint_entropy += entropy(q)
        else:
            h_a = column_entropies(B[actions[tau - 1]])
            joint_entropy += float(beliefs[tau - 1].probs @ h_a)
        m = q > 0
        # A state preference that underflowed to 0 makes this term +inf.
        cross_entropy -= float(q[m] @ ctx.ln_pref_states[m])
        ambiguity += float(q @ ctx.col_entropy)
    risk = cross_entropy - joint_entropy
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
    beliefs = filter_and_smooth(model, history, policy)
    if kind is ObjectiveKind.EXPECTED_FREE_ENERGY:
        return -_breakdown_of_beliefs(model, history, beliefs).total
    if kind is ObjectiveKind.INFO_GAIN_ONLY:
        return _breakdown_of_beliefs(model, history, beliefs).intrinsic

    A = model.likelihood.matrix
    expected_reward = sum(
        float(reward_per_obs @ (A @ beliefs[tau].probs))
        for tau in range(history.t + 1, len(beliefs))
    )
    if kind is ObjectiveKind.EXPECTED_REWARD:
        return expected_reward
    return expected_reward + _breakdown_of_beliefs(model, history, beliefs).intrinsic


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
    """policy_posterior plus the EFE breakdowns its single tree pass scored.

    A gamma that scales a finite score past the float range is a ValueError,
    and so is a history where no policy has a finite score. A -inf score gets
    a -inf log-weight at every gamma, gamma = 0 included (its gamma -> 0+ limit).
    """
    if not 0 <= gamma < math.inf:
        raise ValueError(f"gamma must be a finite number >= 0, got {gamma!r}")
    if model.horizon - history.t < 1:
        raise ValueError("no decisions remain at this history")
    policies, scores, rows = policy_scores(model, history, kind, reward_per_obs)
    with np.errstate(over="ignore", invalid="ignore"):
        log_weights = gamma * scores
    overflowed = np.isinf(log_weights) & np.isfinite(scores)
    if overflowed.any():
        raise ValueError(
            f"gamma {gamma!r} times the policy score {float(scores[overflowed][0])!r} "
            "overflows the float range"
        )
    log_weights[scores == -math.inf] = -math.inf
    if not np.isfinite(log_weights).any():
        raise ValueError("no policy has a finite score")
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
    first_actions = [policy.actions[0] for policy in posterior.policies]
    # bincount adds the weights one by one in policy order, from zero.
    marginal = np.bincount(first_actions, weights=posterior.probs.probs, minlength=n_actions)
    if marginal.shape != (n_actions,):
        raise ValueError(f"a policy starts with an action outside range({n_actions})")
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
