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

import math
import operator
from collections.abc import Sequence
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


@dataclass(frozen=True, slots=True)
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


@dataclass(frozen=True, slots=True)
class PolicySpace(Sequence):
    """Every policy of one length, lexicographic order, each built when read.

    Policy i is spelled by the base-n_actions digits of i, most significant first.
    """

    n_actions: int
    length: int

    def __len__(self) -> int:
        return self.n_actions**self.length

    def __getitem__(self, i) -> Policy:
        i, n = operator.index(i), len(self)
        if not -n <= i < n:
            raise IndexError(f"policy index {i} out of range({n})")
        i, powers = i % n, reversed(range(self.length))
        return Policy(i // self.n_actions**k % self.n_actions for k in powers)

    @property
    def first_actions(self) -> np.ndarray:
        """Each policy's first action, in policy order."""
        if self.length < 1:
            raise ValueError("an empty policy has no first action")
        return np.arange(self.n_actions).repeat(self.n_actions ** (self.length - 1))


@dataclass(frozen=True, eq=False)
class PolicyPosterior:
    """Softmax distribution over every remaining policy: entry i is `policies[i]`."""

    policies: PolicySpace
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


def _breakdown(risk: float, ambiguity: float, extrinsic: float, intrinsic: float) -> EfeBreakdown:
    """The row of one policy from its sums of each per-step term."""
    total = risk + ambiguity
    return EfeBreakdown(
        total=total,
        risk=risk,
        ambiguity=ambiguity,
        extrinsic=extrinsic,
        intrinsic=intrinsic,
        residual=total + extrinsic + intrinsic,
    )


class EfeTable(Sequence):
    """Every policy's row, lexicographic order, each built only when read.

    `sums` is the tree's read-only (N, 4) array of path sums (risk, ambiguity,
    extrinsic, intrinsic). As Python floats, a row's inf + -inf residual is nan, unwarned.
    """

    def __init__(self, sums: np.ndarray):
        sums.setflags(write=False)
        self.sums = sums

    def __len__(self) -> int:
        return len(self.sums)

    def __getitem__(self, i) -> EfeBreakdown:
        return _breakdown(*self.sums[operator.index(i)].tolist())


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
        risk = kl_divergence(q, ctx.state_pref.probs)
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
    return _breakdown(*sums)


def enumerate_policies(n_actions: int, length: int) -> PolicySpace:
    """All action sequences of the given length, lexicographic order, as an index.

    No policy is built until one is read. More than POLICY_CAP policies, or a
    length above POLICY_CAP, is a PolicySpaceOverflow. The count is never
    built: with at least 2 actions, POLICY_CAP.bit_length() steps already
    exceed the cap, and below that the power of at most POLICY_CAP + 1 has a
    bounded number of digits.
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
    return PolicySpace(n_actions, length)


def _root(model: GenerativeModel, history: History) -> np.ndarray:
    """The filtered belief at t, which smoothing would leave bit for bit unchanged."""
    return filter_and_smooth(model, history, smooth=False)[history.t].probs


def _levels(model: GenerativeModel, root: np.ndarray, depth: int):
    """(Q, QO) for each depth of the policy tree below the root belief.

    Row i of Q is the predictive belief of the i-th action prefix in
    lexicographic order, and QO[i] is A @ Q[i]. The stacked products repeat the
    per-node `B_a @ q` and `A @ q` bit for bit; a matrix-matrix product would not.
    """
    A, B = model.likelihood.matrix, model.transitions.tensor
    Q = root[None]
    for _ in range(depth):
        Q = np.matmul(B[None], Q[:, None, :, None])[..., 0].reshape(-1, model.n_states)
        yield Q, np.matmul(A[None], Q[:, :, None])[..., 0]


def _policy_tree(model: GenerativeModel, levels, depth: int) -> EfeTable:
    """The table of every policy of the given depth, from the tree's `_levels`.

    Each distinct inner belief is scored once; leaves are looked up but not
    kept, so a dense tree keeps nothing per leaf. Path sums are added in depth
    order from +0.0, into one (N, 4) array that the table wraps.
    """
    ctx = model.planner_context
    # belief bytes -> per-step terms of an inner node
    scored: dict[bytes, tuple[float, float, float, float]] = {}
    sums = np.zeros((1, 4))
    for steps_below, (Q, QO) in zip(range(depth - 1, -1, -1), levels):
        level_terms = np.empty((len(Q), 4))
        for i, q in enumerate(Q):
            key = q.tobytes()
            terms = scored.get(key)
            if terms is None:
                terms = _step_terms(ctx, q, QO[i])
                if steps_below:
                    scored[key] = terms
            level_terms[i] = terms
        sums = np.repeat(sums, model.n_actions, axis=0) + level_terms
    return EfeTable(sums)


def _expected_rewards(model: GenerativeModel, levels, reward: np.ndarray) -> np.ndarray:
    """Expected-reward sum of every policy, lexicographic order, from the tree's `_levels`.

    The stacked product repeats the per-node `reward @ qo`, and path sums are
    added in depth order from +0.0, as a per-node walk adds them.
    """
    E = np.zeros(1)
    for _, QO in levels:
        gain = np.matmul(QO[:, None, :], reward[None, :, None])[:, 0, 0]
        E = np.repeat(E, model.n_actions) + gain
    return E


def efe_table(model: GenerativeModel, history: History) -> tuple[PolicySpace, EfeTable]:
    """Every remaining policy and its table of path sums, lexicographic order."""
    depth = model.horizon - history.t
    policies = enumerate_policies(model.n_actions, depth)
    return policies, _policy_tree(model, _levels(model, _root(model, history), depth), depth)


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
) -> tuple[PolicySpace, np.ndarray, EfeTable | None]:
    """Maximization scores for every remaining policy, plus the EFE table they read.

    Every kind filters the history once and expands the policy tree once; each
    score is a column expression over the table's path sums, and builds no row.
    `reward` reads no table (None); `reward_info_gain` adds the reward fold.
    """
    if kind in (ObjectiveKind.EXPECTED_FREE_ENERGY, ObjectiveKind.INFO_GAIN_ONLY):
        policies, table = efe_table(model, history)
        if kind is ObjectiveKind.INFO_GAIN_ONLY:
            return policies, table.sums[:, 3], table
        return policies, -(table.sums[:, 0] + table.sums[:, 1]), table
    reward = _checked_reward(model, reward_per_obs)
    depth = model.horizon - history.t
    policies = enumerate_policies(model.n_actions, depth)
    levels = _levels(model, _root(model, history), depth)
    if kind is ObjectiveKind.EXPECTED_REWARD:
        return policies, _expected_rewards(model, levels, reward), None
    levels = list(levels)
    table = _policy_tree(model, levels, depth)
    return policies, _expected_rewards(model, levels, reward) + table.sums[:, 3], table


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
) -> tuple[PolicyPosterior, EfeTable | None]:
    """policy_posterior plus the EFE table its scores read (None for `reward`).

    A gamma that scales a finite score past the float range is a ValueError,
    and so is a history where no policy has a finite score. A -inf score gets
    a -inf log-weight at every gamma, gamma = 0 included (its gamma -> 0+ limit).
    """
    if not 0 <= gamma < math.inf:
        raise ValueError(f"gamma must be a finite number >= 0, got {gamma!r}")
    if model.horizon - history.t < 1:
        raise ValueError("no decisions remain at this history")
    policies, scores, table = policy_scores(model, history, kind, reward_per_obs)
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
    return posterior, table


def action_marginal(posterior: PolicyPosterior, n_actions: int) -> Categorical:
    """Marginalize the policy posterior onto the next action of each policy in its space."""
    first_actions = posterior.policies.first_actions
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
    # The draw rng.choice(len(p), p=p) makes, without its per-call validation
    # of p (a Categorical is already validated): the same index and the same
    # generator state afterwards.
    cdf = marginal.probs.cumsum()
    cdf /= cdf[-1]
    return int(cdf.searchsorted(rng.random(), side="right"))
