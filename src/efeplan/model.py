"""Discrete generative models: likelihood, transitions, preferences, validation.

A model bundles the agent's prediction POMDP (likelihood A, action-conditioned
transitions B, initial belief D) with its preference model (log-preferences C
over observations, shared likelihood A). Conventions:

    A[o, s]       = P(o_t = o | s_t = s)
    B[a, s2, s1]  = P(s_{t+1} = s2 | s_t = s1, a_{t+1} = a)
    D[s]          = P(s_0 = s)
    C[o]          = unnormalized log-preference of observing o (i.i.d. per step)

Indices are dense 0-based integers; optional label tables are carried for
reporting only and never affect computation.
"""
from __future__ import annotations

import functools
import json
import operator
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .maths import NORM_ATOL, column_entropies, is_distribution, safe_log, softmax


def _frozen_array(x, dtype=float) -> np.ndarray:
    a = np.array(x, dtype=dtype, order="C")
    a.setflags(write=False)
    return a


@dataclass(frozen=True, eq=False)
class Categorical:
    """A normalized distribution over a finite set of outcomes."""

    probs: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "probs", _frozen_array(self.probs))
        if self.probs.ndim != 1:
            raise ValueError("Categorical requires a 1-D probability vector")
        if not is_distribution(self.probs, atol=NORM_ATOL):
            raise ValueError(
                f"probabilities must be non-negative and sum to 1 within {NORM_ATOL}"
            )

    def __len__(self) -> int:
        return self.probs.shape[0]


@dataclass(frozen=True, eq=False)
class Likelihood:
    """Observation model P(o|s); every column is a distribution over observations."""

    matrix: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "matrix", _frozen_array(self.matrix))


@dataclass(frozen=True, eq=False)
class Transitions:
    """Action-conditioned dynamics P(s'|s,a), shaped (actions, s', s)."""

    tensor: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "tensor", _frozen_array(self.tensor))


@dataclass(frozen=True, eq=False)
class LogPreferences:
    """Unnormalized log-preferences per observation, i.i.d. across timesteps."""

    obs_log_pref: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "obs_log_pref", _frozen_array(self.obs_log_pref))

    def obs_distribution(self) -> Categorical:
        """Normalized preference distribution over observations, softmax(C)."""
        return Categorical(softmax(self.obs_log_pref))


@dataclass(frozen=True, eq=False)
class GenerativeModel:
    """Prediction POMDP plus preference model sharing one likelihood map."""

    n_states: int
    n_obs: int
    n_actions: int
    likelihood: Likelihood
    transitions: Transitions
    initial_belief: Categorical
    preferences: LogPreferences
    horizon: int
    state_labels: tuple[str, ...] | None = None
    obs_labels: tuple[str, ...] | None = None
    action_labels: tuple[str, ...] | None = None

    @functools.cached_property
    def planner_context(self) -> PlannerContext:
        """This model's PlannerContext, derived on first use and shared after."""
        A = self.likelihood.matrix
        state_pref = pullback_preferences(self)
        return PlannerContext(
            state_pref=state_pref,
            ln_pref_states=_frozen_array(safe_log(state_pref.probs)),
            ln_obs_marginal=_frozen_array(safe_log(A @ state_pref.probs)),
            col_entropy=_frozen_array(column_entropies(A)),
        )


@dataclass(frozen=True, eq=False)
class PlannerContext:
    """Preference quantities shared by every policy and history of one model.

    state_pref is the likelihood pullback of the observation preferences;
    ln_pref_states is the log of its vector, -inf where a preference
    underflowed to 0; ln_obs_marginal is the log of the preference model's
    observation marginal A @ pref(s); col_entropy holds the entropy of each
    likelihood column. The model is frozen and every array is read-only, so
    nothing can invalidate a context once built.
    """

    state_pref: Categorical
    ln_pref_states: np.ndarray
    ln_obs_marginal: np.ndarray
    col_entropy: np.ndarray


@dataclass(frozen=True)
class History:
    """Observed prefix of a trial: o_0..o_t and the actions a_1..a_t between them.

    Indices are taken by operator.index, so a float such as 1.9 is a TypeError.
    """

    observations: tuple[int, ...]
    actions: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "observations", tuple(map(operator.index, self.observations)))
        object.__setattr__(self, "actions", tuple(map(operator.index, self.actions)))
        if len(self.actions) != len(self.observations) - 1:
            raise ValueError(
                "history requires len(actions) == len(observations) - 1 "
                f"(got {len(self.actions)} actions, {len(self.observations)} observations)"
            )

    @property
    def t(self) -> int:
        """Current decision time: number of observations minus one."""
        return len(self.observations) - 1


@dataclass(frozen=True)
class Policy:
    """A committed sequence of future actions a_{t+1}..a_T, integers as in History."""

    actions: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "actions", tuple(map(operator.index, self.actions)))

    def __len__(self) -> int:
        return len(self.actions)


@dataclass(frozen=True)
class Violation:
    """One validation failure: which rule, on which tensor, at which index."""

    rule: str
    tensor: str
    index: tuple
    message: str


@dataclass(frozen=True)
class ValidationReport:
    violations: tuple[Violation, ...] = ()

    @property
    def ok(self) -> bool:
        return not self.violations

    def __str__(self) -> str:
        if self.ok:
            return "Ok"
        found = "; ".join(
            f"{v.rule} in {v.tensor} at {v.index}: {v.message}" for v in self.violations
        )
        return f"{len(self.violations)} violation(s): {found}"


def _check_finite(name: str, arr: np.ndarray, out: list[Violation]) -> bool:
    bad = ~np.isfinite(arr)
    if np.any(bad):
        idx = tuple(int(i) for i in np.argwhere(bad)[0])
        out.append(Violation("NonFiniteEntry", name, idx, "entry is not finite"))
        return False
    return True


def _check_columns_stochastic(name: str, mat: np.ndarray, out: list[Violation]):
    neg = mat < 0
    if np.any(neg):
        idx = tuple(int(i) for i in np.argwhere(neg)[0])
        out.append(Violation("NegativeEntry", name, idx, f"entry {mat[idx]} < 0"))
    sums = mat.sum(axis=0)
    for j in np.nonzero(np.abs(sums - 1.0) > NORM_ATOL)[0]:
        out.append(
            Violation(
                "NotStochastic",
                name,
                (int(j),),
                f"column {int(j)} sums to {sums[j]:.12g}, expected 1",
            )
        )


def validate_model(model: GenerativeModel) -> ValidationReport:
    """Check dimensions, finiteness, non-negativity, and column stochasticity.

    Returns an Ok report or the full list of violations; never raises on a
    merely-invalid model.
    """
    out: list[Violation] = []
    A = model.likelihood.matrix
    B = model.transitions.tensor
    D = model.initial_belief.probs
    C = model.preferences.obs_log_pref

    if model.horizon < 1:
        out.append(Violation("DimensionMismatch", "horizon", (), "horizon must be >= 1"))
    for name, arr, shape in (
        ("likelihood", A, (model.n_obs, model.n_states)),
        ("transitions", B, (model.n_actions, model.n_states, model.n_states)),
        ("initial_belief", D, (model.n_states,)),
        ("obs_log_pref", C, (model.n_obs,)),
    ):
        if arr.shape != shape:
            out.append(
                Violation("DimensionMismatch", name, arr.shape, f"expected shape {shape}")
            )
    for name, labels, count in (
        ("state_labels", model.state_labels, model.n_states),
        ("obs_labels", model.obs_labels, model.n_obs),
        ("action_labels", model.action_labels, model.n_actions),
    ):
        if labels is not None and len(labels) != count:
            out.append(
                Violation(
                    "DimensionMismatch",
                    name,
                    (len(labels),),
                    f"expected {count} labels",
                )
            )
    if out:
        return ValidationReport(tuple(out))

    if _check_finite("likelihood", A, out):
        _check_columns_stochastic("likelihood", A, out)
    if _check_finite("transitions", B, out):
        for a in range(model.n_actions):
            _check_columns_stochastic(f"transitions[{a}]", B[a], out)
    if _check_finite("initial_belief", D, out):
        _check_columns_stochastic("initial_belief", D.reshape(-1, 1), out)
    _check_finite("obs_log_pref", C, out)
    return ValidationReport(tuple(out))


def pullback_preferences(model: GenerativeModel) -> Categorical:
    """Pull observation preferences back to states through the likelihood map.

    state_log_pref[s] = sum_o P(o|s) * obs_log_pref[o]; the returned state
    preference is exp(state_log_pref) normalized. Exact for deterministic
    likelihoods (each state inherits the preference of its one observation),
    and keeps every state's mass positive unless its exp underflows to 0.
    """
    state_log_pref = model.likelihood.matrix.T @ model.preferences.obs_log_pref
    return Categorical(softmax(state_log_pref))


def make_model(
    *,
    likelihood,
    transitions,
    initial_belief,
    obs_log_pref,
    horizon: int,
    state_labels: Sequence[str] | None = None,
    obs_labels: Sequence[str] | None = None,
    action_labels: Sequence[str] | None = None,
) -> GenerativeModel:
    """Assemble a GenerativeModel from raw arrays, inferring dimension fields."""
    A = np.asarray(likelihood, dtype=float)
    B = np.asarray(transitions, dtype=float)
    D = np.asarray(initial_belief, dtype=float)
    C = np.asarray(obs_log_pref, dtype=float)
    return GenerativeModel(
        n_states=A.shape[1],
        n_obs=A.shape[0],
        n_actions=B.shape[0],
        likelihood=Likelihood(A),
        transitions=Transitions(B),
        initial_belief=Categorical(D),
        preferences=LogPreferences(C),
        horizon=int(horizon),
        state_labels=tuple(state_labels) if state_labels else None,
        obs_labels=tuple(obs_labels) if obs_labels else None,
        action_labels=tuple(action_labels) if action_labels else None,
    )


class ModelFormatError(ValueError):
    """The model document could not be parsed into the expected fields."""


def model_from_dict(doc: dict) -> GenerativeModel:
    """Build and validate a model from a parsed document.

    Raises ModelFormatError on structural problems and ValueError carrying the
    validation report when the tensors are inconsistent.
    """
    if not isinstance(doc, dict):
        raise ModelFormatError("model document must be a single top-level object")
    required = [
        "n_states",
        "n_obs",
        "n_actions",
        "horizon",
        "likelihood",
        "transitions",
        "initial_belief",
        "obs_log_pref",
    ]
    missing = [k for k in required if k not in doc]
    if missing:
        raise ModelFormatError(f"missing fields: {', '.join(missing)}")
    for key in ("n_states", "n_obs", "n_actions", "horizon"):
        if type(doc[key]) is not int:
            raise ModelFormatError(f"{key} must be an integer, got {doc[key]!r}")
    for key in ("state_labels", "obs_labels", "action_labels"):
        labels = doc.get(key, [])
        if not isinstance(labels, list) or not all(isinstance(x, str) for x in labels):
            raise ModelFormatError(f"{key} must be a list of strings")
    try:
        A = np.array(doc["likelihood"], dtype=float)
        B = np.array(doc["transitions"], dtype=float)
        D = np.array(doc["initial_belief"], dtype=float)
        C = np.array(doc["obs_log_pref"], dtype=float)
    except (TypeError, ValueError, OverflowError) as exc:
        raise ModelFormatError(f"non-numeric tensor data: {exc}") from exc
    if A.ndim != 2 or B.ndim != 3 or D.ndim != 1 or C.ndim != 1:
        raise ModelFormatError("tensor fields have wrong rank")
    model = GenerativeModel(
        n_states=int(doc["n_states"]),
        n_obs=int(doc["n_obs"]),
        n_actions=int(doc["n_actions"]),
        likelihood=Likelihood(A),
        transitions=Transitions(B),
        initial_belief=_categorical_lenient(D),
        preferences=LogPreferences(C),
        horizon=int(doc["horizon"]),
        state_labels=tuple(doc["state_labels"]) if "state_labels" in doc else None,
        obs_labels=tuple(doc["obs_labels"]) if "obs_labels" in doc else None,
        action_labels=tuple(doc["action_labels"]) if "action_labels" in doc else None,
    )
    report = validate_model(model)
    if not report.ok:
        raise ValueError(str(report))
    return model


def _categorical_lenient(p: np.ndarray) -> Categorical:
    # Defer distribution checks to validate_model so a loader failure reports
    # every violation instead of stopping at the first constructor error.
    cat = object.__new__(Categorical)
    object.__setattr__(cat, "probs", _frozen_array(p))
    return cat


def load_model(path) -> GenerativeModel:
    """Load a model document from a JSON file, rejecting invalid models."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            doc = json.load(fh)
        except (json.JSONDecodeError, UnicodeDecodeError, RecursionError) as exc:
            raise ModelFormatError(f"malformed document: {exc}") from exc
    return model_from_dict(doc)

