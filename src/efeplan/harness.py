"""Receding-horizon trial loop, multi-trial experiments, and CSV emission.

One trial: reset the environment, then at every decision time score every
remaining policy under the agent's objective, marginalize the policy posterior
onto the next action, execute it, and record everything. Experiments repeat
trials with per-trial RNG substreams derived statelessly from (master_seed,
agent_index, trial_index), so results are independent of execution order and
reruns are byte-identical.

Everything a decision derives from its history before the RNG draw is a pure
function of (model, history, kind, gamma, reward), so an experiment builds its
model once and plans each distinct history of an agent once; trials that
revisit a history share the cached, read-only arrays. Likewise each distinct
final history is smoothed and scored once.
"""
from __future__ import annotations

import json
import sys
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .envs import Environment, make_environment
from .inference import MarginalBeliefs, filter_and_smooth, preferential_inference
from .model import Categorical, GenerativeModel, History
from .planning import (
    EfeBreakdown,
    ObjectiveKind,
    SelectionMode,
    _scored_posterior,
    _tied_argmax,
    action_marginal,
    select_action,
)

DEFAULT_SELECTION = {
    ObjectiveKind.EXPECTED_FREE_ENERGY: SelectionMode.ARGMAX,
    ObjectiveKind.INFO_GAIN_ONLY: SelectionMode.ARGMAX,
    ObjectiveKind.REWARD_PLUS_INFO_GAIN: SelectionMode.ARGMAX,
    # The pure reward maximizer faces all-tied objectives before any
    # information arrives; sampling its ties is the comparison protocol.
    ObjectiveKind.EXPECTED_REWARD: SelectionMode.SAMPLE,
}

FLOAT_FMT = "%.12g"


class ConfigError(ValueError):
    """The experiment configuration is structurally invalid."""


class TrialError(RuntimeError):
    """An inference or environment failure, annotated with its trial context."""


@dataclass(frozen=True)
class AgentSpec:
    kind: ObjectiveKind
    selection: SelectionMode

    @property
    def name(self) -> str:
        return self.kind.value


@dataclass(frozen=True)
class ExperimentConfig:
    environment: str = "tmaze"
    env_overrides: dict = field(default_factory=dict)
    agents: tuple[AgentSpec, ...] = ()
    gamma: float = 1.0
    n_trials: int = 1
    master_seed: int = 0
    reward_per_obs: tuple[float, ...] | None = None
    output_dir: str | None = None

    def __post_init__(self):
        # JSON integers only: a bool, a float such as 2.7 or an inf is refused.
        for name, minimum in (("n_trials", 1), ("master_seed", 0)):
            value = getattr(self, name)
            if type(value) is not int or value < minimum:
                raise ConfigError(f"{name} must be an integer >= {minimum}, got {value!r}")
        # int/float comparisons are exact, so an int too large for a float fails here.
        if type(self.gamma) not in (int, float) or not 0 < self.gamma <= sys.float_info.max:
            raise ConfigError(f"gamma must be a finite number > 0, got {self.gamma!r}")
        object.__setattr__(self, "gamma", float(self.gamma))
        if not isinstance(self.env_overrides, dict):
            raise ConfigError(
                f"environment overrides must be an object, got {self.env_overrides!r}"
            )
        if self.output_dir is not None and not isinstance(self.output_dir, str):
            raise ConfigError(f"output_dir must be a string, got {self.output_dir!r}")
        if self.output_dir == "":
            raise ConfigError("output_dir must not be empty")
        # JSON numbers only, and finite: a bool, a string, a NaN or an inf is refused.
        reward = self.reward_per_obs
        if reward is not None:
            if not isinstance(reward, (list, tuple)) or not all(
                type(r) in (int, float) and -sys.float_info.max <= r <= sys.float_info.max
                for r in reward
            ):
                raise ConfigError(f"reward_per_obs must list finite numbers, got {reward!r}")
            object.__setattr__(self, "reward_per_obs", tuple(float(r) for r in reward))
        if not self.agents:
            raise ConfigError("at least one agent is required")
        # Records and summaries are keyed by kind, so a repeated kind would
        # overwrite an earlier agent's trials.
        names = [spec.name for spec in self.agents]
        repeated = sorted({name for name in names if names.count(name) > 1})
        if repeated:
            raise ConfigError(f"agent kind listed more than once: {', '.join(repeated)}")


def config_from_dict(doc: dict) -> ExperimentConfig:
    """Parse a configuration document, applying per-agent selection defaults."""
    if not isinstance(doc, dict):
        raise ConfigError("config document must be a single top-level object")
    env = doc.get("environment", {})
    if isinstance(env, str):
        env = {"name": env}
    if not isinstance(env, dict) or "name" not in env:
        raise ConfigError("environment must name an environment")

    agents_field = doc.get("agents")
    if not agents_field or not isinstance(agents_field, list):
        raise ConfigError("agents must be a non-empty list")
    if "selection" in doc:
        raise ConfigError(
            'a top-level "selection" key is not supported; set it per agent as '
            '{"kind": ..., "selection": ...}'
        )
    agents = []
    for entry in agents_field:
        if isinstance(entry, str):
            kind_name, sel_name = entry, None
        elif isinstance(entry, dict) and "kind" in entry:
            kind_name, sel_name = entry["kind"], entry.get("selection")
        else:
            raise ConfigError(f"bad agent entry: {entry!r}")
        try:
            kind = ObjectiveKind(kind_name)
        except ValueError as exc:
            raise ConfigError(f"unknown agent kind: {kind_name!r}") from exc
        if sel_name is None:
            selection = DEFAULT_SELECTION[kind]
        else:
            try:
                selection = SelectionMode(sel_name)
            except ValueError as exc:
                raise ConfigError(f"unknown selection mode: {sel_name!r}") from exc
        agents.append(AgentSpec(kind=kind, selection=selection))

    return ExperimentConfig(
        environment=env["name"],
        env_overrides=env.get("overrides", {}),
        agents=tuple(agents),
        gamma=doc.get("gamma", 1.0),
        n_trials=doc.get("n_trials", 1),
        master_seed=doc.get("master_seed", 0),
        reward_per_obs=doc.get("reward_per_obs"),
        output_dir=doc.get("output_dir"),
    )


def load_config(path) -> ExperimentConfig:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            doc = json.load(fh)
        except (json.JSONDecodeError, UnicodeDecodeError, RecursionError) as exc:
            raise ConfigError(f"malformed config document: {exc}") from exc
    return config_from_dict(doc)


@dataclass(frozen=True, eq=False)
class BeliefTrace:
    """Beliefs over every timestep 0..T, held at each decision time.

    held_at[t] are the marginals the agent held when choosing action t+1
    (future entries are predictive under its greedy plan); the final entry is
    the post-trial smoothed posterior over the whole trajectory.
    """

    held_at: tuple[MarginalBeliefs, ...]


@dataclass(frozen=True, eq=False)
class TrialRecord:
    trial_index: int
    agent: ObjectiveKind
    context: int
    observations: tuple[int, ...]
    actions: tuple[int, ...]
    score: float
    action_marginals: tuple[np.ndarray, ...]
    policy_probs: tuple[np.ndarray, ...]
    efe_rows: tuple[tuple[EfeBreakdown, ...], ...] | None


def derive_rng(master_seed: int, agent_index: int, trial_index: int) -> np.random.Generator:
    """Stateless per-trial substream; independent of trial execution order.

    The stream is that of `SeedSequence([master_seed, agent_index,
    trial_index])`. numpy coerces each int entropy item to its 32-bit words,
    least significant first (0 is one word); handing it those words as a
    uint32 array skips that per-call coercion.
    """
    words = []
    for value in (int(master_seed), int(agent_index), int(trial_index)):
        if value < 0:
            raise ValueError(f"substream components must be non-negative, got {value}")
        words.append(value & 0xFFFFFFFF)
        value >>= 32
        while value:
            words.append(value & 0xFFFFFFFF)
            value >>= 32
    return np.random.default_rng(np.random.SeedSequence(np.array(words, dtype=np.uint32)))


@dataclass(frozen=True, eq=False)
class _Plan:
    """What one decision derives from its history before the RNG draw."""

    policy_probs: np.ndarray
    marginal: Categorical
    argmax: int  # the action argmax selection takes from marginal
    efe_rows: tuple[EfeBreakdown, ...] | None  # kept for the EFE agent only
    held_at: MarginalBeliefs  # predictive under the greedy plan


@dataclass(frozen=True, eq=False)
class _Outcome:
    """What a trial derives from its final history: the smoothed posterior and the score."""

    smoothed: MarginalBeliefs
    score: float


# A history as the trial loop holds it: (observations o_0..o_t, actions a_1..a_t).
_HistoryKey = tuple[tuple[int, ...], tuple[int, ...]]


class PlanCache:
    """Plans and trial outcomes of one agent, keyed by raw history tuples.

    A `History` is built only when a key is missed. Valid for a single
    (model, environment, kind, gamma, reward_per_obs); run_experiment keeps
    one per agent for the length of the experiment.
    """

    def __init__(self):
        self.plans: dict[_HistoryKey, _Plan] = {}
        self.outcomes: dict[_HistoryKey, _Outcome] = {}


def _plan(model, history, kind, gamma, reward_per_obs) -> _Plan:
    posterior, rows = _scored_posterior(model, history, gamma, kind, reward_per_obs)
    greedy = posterior.policies[_tied_argmax(posterior.probs.probs)]
    marginal = action_marginal(posterior, model.n_actions)
    return _Plan(
        policy_probs=posterior.probs.probs,
        marginal=marginal,
        argmax=select_action(marginal, SelectionMode.ARGMAX),
        efe_rows=tuple(rows) if kind is ObjectiveKind.EXPECTED_FREE_ENERGY else None,
        held_at=filter_and_smooth(model, history, greedy),
    )


def run_trial(
    model: GenerativeModel,
    env: Environment,
    kind: ObjectiveKind,
    gamma: float,
    mode: SelectionMode,
    rng: np.random.Generator,
    reward_per_obs: np.ndarray | None = None,
    trial_index: int = 0,
    cache: PlanCache | None = None,
) -> tuple[TrialRecord, BeliefTrace]:
    """Run one receding-horizon episode of the given agent against the environment.

    A cache shared across calls must only be shared by calls with the same
    model, environment, kind, gamma and reward_per_obs: it holds each final
    history's score as well as its plans.
    """
    if reward_per_obs is None:
        reward_per_obs = model.preferences.obs_log_pref
    if cache is None:
        cache = PlanCache()
    observations = [int(env.reset(rng))]
    context = env.ground_truth() % 2
    actions: list[int] = []
    plans: list[_Plan] = []

    try:
        done = False
        while not done:
            key = (tuple(observations), tuple(actions))
            plan = cache.plans.get(key)
            if plan is None:
                plan = cache.plans[key] = _plan(
                    model, History(*key), kind, gamma, reward_per_obs
                )
            plans.append(plan)
            if mode is SelectionMode.ARGMAX:
                action = plan.argmax
            else:
                action = select_action(plan.marginal, mode, rng)

            obs, done = env.step(action)
            actions.append(int(action))
            observations.append(int(obs))
    except (ValueError, RuntimeError) as exc:
        raise TrialError(
            f"trial {trial_index}, agent {kind.value!r}: {exc}"
        ) from exc

    key = (tuple(observations), tuple(actions))
    outcome = cache.outcomes.get(key)
    if outcome is None:
        outcome = cache.outcomes[key] = _Outcome(
            smoothed=preferential_inference(model, History(*key)).past,
            score=float(env.score(observations, actions)),
        )
    record = TrialRecord(
        trial_index=trial_index,
        agent=kind,
        context=int(context),
        observations=key[0],
        actions=key[1],
        score=outcome.score,
        action_marginals=tuple(p.marginal.probs for p in plans),
        policy_probs=tuple(p.policy_probs for p in plans),
        efe_rows=(
            tuple(p.efe_rows for p in plans)
            if kind is ObjectiveKind.EXPECTED_FREE_ENERGY
            else None
        ),
    )
    held_at = tuple(p.held_at for p in plans) + (outcome.smoothed,)
    return record, BeliefTrace(held_at=held_at)


@dataclass(frozen=True, eq=False)
class ExperimentResult:
    config: ExperimentConfig
    records: dict[str, list[TrialRecord]]
    traces: dict[str, list[BeliefTrace]]
    summary: dict


def build_environment(
    config: ExperimentConfig,
) -> tuple[GenerativeModel, Environment, np.ndarray]:
    """The config's (model, environment) pair and its checked reward vector.

    reward_per_obs defaults to the model's observation log-preferences; a
    configured vector of the wrong length is a ConfigError.
    """
    model, env = make_environment(config.environment, config.env_overrides)
    if config.reward_per_obs is None:
        return model, env, model.preferences.obs_log_pref
    reward = np.asarray(config.reward_per_obs, dtype=float)
    if reward.shape != (model.n_obs,):
        raise ConfigError(
            f"reward_per_obs has {reward.size} entries, "
            f"the {config.environment!r} model has {model.n_obs} observations"
        )
    return model, env, reward


def run_experiment(config: ExperimentConfig) -> ExperimentResult:
    """Run n_trials independent trials per configured agent and summarize scores."""
    model, env, reward_per_obs = build_environment(config)
    records: dict[str, list[TrialRecord]] = {}
    traces: dict[str, list[BeliefTrace]] = {}
    summary_agents = {}
    for agent_index, spec in enumerate(config.agents):
        agent_records = []
        agent_traces = []
        cache = PlanCache()
        for trial in range(config.n_trials):
            rng = derive_rng(config.master_seed, agent_index, trial)
            record, trace = run_trial(
                model,
                env,
                spec.kind,
                config.gamma,
                spec.selection,
                rng,
                reward_per_obs=reward_per_obs,
                trial_index=trial,
                cache=cache,
            )
            agent_records.append(record)
            agent_traces.append(trace)
        records[spec.name] = agent_records
        traces[spec.name] = agent_traces

        scores = [r.score for r in agent_records]
        cumulative = list(np.cumsum(scores))
        mean = float(np.mean(scores))
        std_error = (
            float(np.std(scores, ddof=1) / np.sqrt(len(scores))) if len(scores) > 1 else 0.0
        )
        summary_agents[spec.name] = {
            "scores": scores,
            "cumulative": [float(c) for c in cumulative],
            "mean": mean,
            "std_error": std_error,
        }
    summary = {
        "environment": config.environment,
        "n_trials": config.n_trials,
        "master_seed": config.master_seed,
        "gamma": config.gamma,
        "agents": summary_agents,
    }
    return ExperimentResult(config=config, records=records, traces=traces, summary=summary)


def _write_prefixed(fh, prefix: str, lines: tuple[str, ...]) -> None:
    """Write each of lines, prefixed and newline-terminated, in one call."""
    if lines:
        fh.write(prefix + ("\n" + prefix).join(lines) + "\n")


def write_outputs(result: ExperimentResult, output_dir) -> list[Path]:
    """Emit trials.csv, beliefs.csv, efe.csv and summary.json deterministically.

    Trials that share a history share its plan objects (see PlanCache), so the
    per-decision belief and EFE lines are formatted once per distinct object
    and reused under each trial's prefix. The memos are keyed by identity, not
    value: EfeBreakdown(-0.0, ...) == EfeBreakdown(0.0, ...), yet the two print
    differently. The result keeps every keyed object alive, so no id is reused
    while writing.
    """
    out = Path(output_dir)
    out.mkdir(parents=True, exist_ok=True)
    fmt = lambda x: FLOAT_FMT % float(x)  # noqa: E731

    trials_path = out / "trials.csv"
    with open(trials_path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("trial,agent,context,t,action,observation,score_so_far\n")
        for name, agent_records in result.records.items():
            running = 0.0
            for rec in agent_records:
                running += rec.score
                for t, (a, o) in enumerate(zip(rec.actions, rec.observations[1:])):
                    fh.write(
                        f"{rec.trial_index},{name},{rec.context},{t},{a},{o},{fmt(running)}\n"
                    )

    beliefs_path = out / "beliefs.csv"
    belief_lines: dict[int, tuple[str, ...]] = {}
    with open(beliefs_path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("trial,agent,decision_time,belief_time,state,probability\n")
        for name, agent_traces in result.traces.items():
            for trial, trace in enumerate(agent_traces):
                for dt, beliefs in enumerate(trace.held_at):
                    lines = belief_lines.get(id(beliefs))
                    if lines is None:
                        lines = belief_lines[id(beliefs)] = tuple(
                            f"{bt},{s},{fmt(p)}"
                            for bt in range(len(beliefs))
                            for s, p in enumerate(beliefs[bt].probs)
                        )
                    _write_prefixed(fh, f"{trial},{name},{dt},", lines)

    efe_path = out / "efe.csv"
    efe_lines: dict[int, tuple[str, ...]] = {}
    with open(efe_path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(
            "trial,t,policy_index,total,risk,ambiguity,extrinsic,intrinsic,residual\n"
        )
        for agent_records in result.records.values():
            for rec in agent_records:
                if rec.efe_rows is None:
                    continue
                for t, rows in enumerate(rec.efe_rows):
                    lines = efe_lines.get(id(rows))
                    if lines is None:
                        lines = efe_lines[id(rows)] = tuple(
                            f"{idx},{','.join(fmt(v) for v in row.as_row())}"
                            for idx, row in enumerate(rows)
                        )
                    _write_prefixed(fh, f"{rec.trial_index},{t},", lines)

    summary_path = out / "summary.json"
    with open(summary_path, "w", encoding="utf-8", newline="\n") as fh:
        json.dump(result.summary, fh, indent=1, sort_keys=True)
        fh.write("\n")

    return [trials_path, beliefs_path, efe_path, summary_path]
