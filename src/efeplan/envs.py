"""Environments: the interaction contract plus the two-step T-maze task.

The T-maze has four locations (middle, top-left, top-right, bottom) crossed
with two contexts (reward-left, reward-right), giving 8 hidden states. One top
arm holds the reward, the other the punishment; the bottom arm shows a cue
whose color discloses the context (black <-> reward-left, white <->
reward-right, fixed by convention). Each action moves directly to a location;
top arms are absorbing so a trial's outcome classes stay mutually exclusive.

Emissions and transitions are deterministic and shared verbatim between the
environment and the agent's generative model.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .model import GenerativeModel, make_model

LOC_MIDDLE, LOC_TOP_LEFT, LOC_TOP_RIGHT, LOC_BOTTOM = 0, 1, 2, 3
CTX_REWARD_LEFT, CTX_REWARD_RIGHT = 0, 1

OBS_MIDDLE_NULL = 0
OBS_LEFT_REWARD = 1
OBS_LEFT_PUNISH = 2
OBS_RIGHT_REWARD = 3
OBS_RIGHT_PUNISH = 4
OBS_CUE_BLACK = 5
OBS_CUE_WHITE = 6

REWARD_OBS = (OBS_LEFT_REWARD, OBS_RIGHT_REWARD)
PUNISH_OBS = (OBS_LEFT_PUNISH, OBS_RIGHT_PUNISH)
CUE_OBS = (OBS_CUE_BLACK, OBS_CUE_WHITE)

STATE_LABELS = (
    "middle/reward-left",
    "middle/reward-right",
    "top-left/reward-left",
    "top-left/reward-right",
    "top-right/reward-left",
    "top-right/reward-right",
    "bottom/reward-left",
    "bottom/reward-right",
)
OBS_LABELS = (
    "middle-null",
    "left-reward",
    "left-punish",
    "right-reward",
    "right-punish",
    "cue-black",
    "cue-white",
)
ACTION_LABELS = ("go-middle", "go-top-left", "go-top-right", "go-bottom")

N_STATES, N_OBS, N_ACTIONS, HORIZON = 8, 7, 4, 2


class StepAfterDone(RuntimeError):
    """step() was called on a finished trial."""


class MalformedTrajectory(ValueError):
    """A trajectory does not have the shape or symbols of one complete trial."""


@dataclass(frozen=True)
class TMazeParams:
    """Tunable T-maze constants: preference magnitudes and trajectory rewards."""

    reward_log_pref: float = 6.0
    punish_log_pref: float = -6.0
    direct_reward: float = 10.0
    cue_reward: float = 5.0
    punishment: float = -10.0

    @staticmethod
    def from_overrides(overrides: dict | None) -> "TMazeParams":
        overrides = dict(overrides or {})
        known = {f for f in TMazeParams.__dataclass_fields__}
        unknown = set(overrides) - known
        if unknown:
            raise ValueError(f"unknown T-maze overrides: {sorted(unknown)}")
        for key, value in overrides.items():
            finite = type(value) is float and math.isfinite(value)
            if type(value) is not int and not finite:
                raise ValueError(
                    f"T-maze override {key} must be a finite number, got {value!r}"
                )
        return TMazeParams(**overrides)


def state_index(location: int, context: int) -> int:
    return 2 * location + context


def state_parts(state: int) -> tuple[int, int]:
    return divmod(state, 2)


def tmaze_emission(state: int) -> int:
    """The single observation each hidden state emits."""
    location, context = state_parts(state)
    if location == LOC_MIDDLE:
        return OBS_MIDDLE_NULL
    if location == LOC_TOP_LEFT:
        return OBS_LEFT_REWARD if context == CTX_REWARD_LEFT else OBS_LEFT_PUNISH
    if location == LOC_TOP_RIGHT:
        return OBS_RIGHT_PUNISH if context == CTX_REWARD_LEFT else OBS_RIGHT_REWARD
    return OBS_CUE_BLACK if context == CTX_REWARD_LEFT else OBS_CUE_WHITE


def tmaze_transition(state: int, action: int) -> int:
    """Deterministic movement: go to the chosen location; top arms absorb."""
    location, context = state_parts(state)
    next_location = location if location in (LOC_TOP_LEFT, LOC_TOP_RIGHT) else action
    return state_index(next_location, context)


def tmaze_model(params: TMazeParams | None = None) -> GenerativeModel:
    """The agent's T-maze generative model (prediction POMDP + preferences)."""
    params = params or TMazeParams()
    A = np.zeros((N_OBS, N_STATES))
    for s in range(N_STATES):
        A[tmaze_emission(s), s] = 1.0
    B = np.zeros((N_ACTIONS, N_STATES, N_STATES))
    for a in range(N_ACTIONS):
        for s in range(N_STATES):
            B[a, tmaze_transition(s, a), s] = 1.0
    D = np.zeros(N_STATES)
    D[state_index(LOC_MIDDLE, CTX_REWARD_LEFT)] = 0.5
    D[state_index(LOC_MIDDLE, CTX_REWARD_RIGHT)] = 0.5
    C = np.zeros(N_OBS)
    for o in REWARD_OBS:
        C[o] = params.reward_log_pref
    for o in PUNISH_OBS:
        C[o] = params.punish_log_pref
    return make_model(
        likelihood=A,
        transitions=B,
        initial_belief=D,
        obs_log_pref=C,
        horizon=HORIZON,
        state_labels=STATE_LABELS,
        obs_labels=OBS_LABELS,
        action_labels=ACTION_LABELS,
    )


def score_trajectory(
    observations, actions, params: TMazeParams | None = None
) -> float:
    """Score one complete trial from its observation/action record.

    Direct reward (reward observed at t=1) scores high; the cue route (cue at
    t=1, reward at t=2) scores half; any punishment observation scores the
    penalty; anything else scores zero. Absorbing arms repeat their
    observation, but the outcome is counted once per trial.
    """
    params = params or TMazeParams()
    observations = [int(o) for o in observations]
    actions = [int(a) for a in actions]
    if len(observations) != HORIZON + 1 or len(actions) != HORIZON:
        raise MalformedTrajectory(
            f"expected {HORIZON + 1} observations and {HORIZON} actions, "
            f"got {len(observations)} and {len(actions)}"
        )
    if any(not 0 <= o < N_OBS for o in observations) or any(
        not 0 <= a < N_ACTIONS for a in actions
    ):
        raise MalformedTrajectory("trajectory contains out-of-range indices")
    if any(o in PUNISH_OBS for o in observations):
        return params.punishment
    if observations[1] in REWARD_OBS:
        return params.direct_reward
    if observations[1] in CUE_OBS and observations[2] in REWARD_OBS:
        return params.cue_reward
    return 0.0


class Environment:
    """Contract every environment implements for the trial harness."""

    def reset(self, seed) -> int:
        raise NotImplementedError

    def step(self, action: int) -> tuple[int, bool]:
        raise NotImplementedError

    def ground_truth(self) -> int:
        raise NotImplementedError

    def score(self, observations, actions) -> float:
        raise NotImplementedError


@dataclass
class TMazeEnv(Environment):
    """The external T-maze process, mirroring tmaze_model's tensors exactly."""

    params: TMazeParams = field(default_factory=TMazeParams)
    _state: int = 0
    _steps: int = 0
    _done: bool = True

    def reset(self, seed) -> int:
        """Start a trial: middle location, context drawn half/half from the seed."""
        rng = seed if isinstance(seed, np.random.Generator) else np.random.default_rng(seed)
        context = int(rng.integers(0, 2))
        self._state = state_index(LOC_MIDDLE, context)
        self._steps = 0
        self._done = False
        return tmaze_emission(self._state)

    def step(self, action: int) -> tuple[int, bool]:
        if self._done:
            raise StepAfterDone("trial is already finished")
        if not 0 <= int(action) < N_ACTIONS:
            raise ValueError(f"action index {action} out of range")
        self._state = tmaze_transition(self._state, int(action))
        self._steps += 1
        self._done = self._steps >= HORIZON
        return tmaze_emission(self._state), self._done

    def ground_truth(self) -> int:
        """Current hidden state (for logging only)."""
        return self._state

    def score(self, observations, actions) -> float:
        return score_trajectory(observations, actions, self.params)


def make_environment(
    name: str, overrides: dict | None = None
) -> tuple[GenerativeModel, Environment]:
    """Build a (model, environment) pair by name for the experiment config."""
    if name == "tmaze":
        params = TMazeParams.from_overrides(overrides)
        return tmaze_model(params), TMazeEnv(params)
    raise ValueError(f"unknown environment: {name!r}")
