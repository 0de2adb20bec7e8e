"""Inputs, closed-loop timed runs and output checks of the three benchmark workloads.

Each workload draws all of its inputs from the benchmark seed. A timed run is
a closed loop: a decision (or an `efeplan run` call) starts only after the
previous one returned. Everything that is not the program's own work (input
generation, output checks) happens outside the timed region. The package is
reached through its module attributes at call time, so that a traced pass sees
the wrappers `tracing.Tracer` installs.
"""
from __future__ import annotations

import contextlib
import csv
import io
import json
import math
import os
import shutil
import statistics
import time
import zlib
from collections import defaultdict
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from efeplan import cli, envs, harness, model, planning

EFE = planning.ObjectiveKind.EXPECTED_FREE_ENERGY
REWARD = planning.ObjectiveKind.EXPECTED_REWARD
KINDS = (EFE, REWARD)
TOL = 1e-9
OUTPUT_FILES = ("trials.csv", "beliefs.csv", "efe.csv", "summary.json")


@dataclass(frozen=True)
class Sizes:
    """How much work one run does besides its time budget. The smoke test shrinks it."""

    setup_reps: int = 4  # set-up is repeated, half before and half after timing
    min_per_kind: int = 100  # p90 then has >= 10 samples beyond it
    verify_every: int = 32  # one decision in this many gets the oracle checks
    tmaze_trials: int = 100  # trials per agent in one `efeplan run` call
    min_runs: int = 5  # `efeplan run` calls per timed run, at least
    trace_rounds: int | None = None  # decision rounds in a traced pass; None: per workload


def substream(seed: int, *path) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence([int(seed), *path]))


def percentile(values, q: float) -> float:
    """Nearest-rank percentile: with 100 values, p90 leaves 10 samples beyond it."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


# ---------------------------------------------------------------- inputs


def random_arrays(rng, n_states, n_obs, n_actions, horizon) -> dict:
    """Keyword arguments of `make_model` for a dense random model."""
    likelihood = rng.dirichlet(np.ones(n_obs), size=n_states).T
    transitions = np.stack(
        [rng.dirichlet(np.ones(n_states), size=n_states).T for _ in range(n_actions)]
    )
    return dict(
        likelihood=likelihood / likelihood.sum(axis=0),
        transitions=transitions / transitions.sum(axis=1, keepdims=True),
        initial_belief=rng.dirichlet(np.ones(n_states)),
        obs_log_pref=rng.normal(0.0, 2.0, n_obs),
        horizon=horizon,
    )


def simulate_prefix(rng, arrays: dict, n_steps: int) -> tuple[tuple, tuple]:
    """Observations o_0..o_n and random actions a_1..a_n drawn from the model itself."""
    A, B = arrays["likelihood"], arrays["transitions"]
    state = rng.choice(A.shape[1], p=arrays["initial_belief"])
    observations = [int(rng.choice(A.shape[0], p=A[:, state]))]
    actions = []
    for _ in range(n_steps):
        a = int(rng.integers(B.shape[0]))
        state = rng.choice(B.shape[1], p=B[a][:, state])
        actions.append(a)
        observations.append(int(rng.choice(A.shape[0], p=A[:, state])))
    return tuple(observations), tuple(actions)


@dataclass(frozen=True)
class RandomCase:
    """A fresh random model of one shape per decision, decided at t = prefix."""

    shape: tuple[int, int, int, int]  # (states, observations, actions, horizon)
    steps_left: int | None = None  # None: decide at t = 0 over the whole horizon

    def make(self, rng, context=None):
        S, O, A, H = self.shape
        arrays = random_arrays(rng, S, O, A, H)
        prefix = 0 if self.steps_left is None else H - self.steps_left
        observations, actions = simulate_prefix(rng, arrays, prefix)
        return arrays, None, observations, actions


@dataclass(frozen=True)
class TmazeCase:
    """A T-maze decision at t (0 or 1), its history drawn from the environment."""

    t: int

    def make(self, rng, context):
        tm_model, env = context
        observations = [int(env.reset(rng))]
        actions = []
        for _ in range(self.t):
            actions.append(int(rng.integers(tm_model.n_actions)))
            observations.append(int(env.step(actions[-1])[0]))
        return None, tm_model, tuple(observations), tuple(actions)


# ---------------------------------------------------------------- decisions


@dataclass
class Decision:
    kind: planning.ObjectiveKind
    arrays: dict | None  # built into a model inside the timed region
    model: model.GenerativeModel | None
    observations: tuple
    actions: tuple
    rng: np.random.Generator
    seconds: float = 0.0
    result: tuple | None = None


def decide(d: Decision) -> None:
    """The timed unit: build the model, score every policy, marginalize, select."""
    start = time.perf_counter()
    m = d.model if d.model is not None else model.make_model(**d.arrays)
    history = model.History(d.observations, d.actions)
    posterior = planning.policy_posterior(
        m, history, kind=d.kind, reward_per_obs=m.preferences.obs_log_pref
    )
    marginal = planning.action_marginal(posterior, m.n_actions)
    action = planning.select_action(marginal, harness.DEFAULT_SELECTION[d.kind], d.rng)
    d.seconds = time.perf_counter() - start
    d.result = (m, history, posterior, marginal, action)


def is_normalized(p) -> bool:
    p = np.asarray(p, dtype=float)
    return bool(np.all(p >= 0) and abs(p.sum() - 1.0) <= TOL)


def check_decision(d: Decision) -> list[str]:
    """Cheap checks on every decision: sizes, normalization, the chosen action."""
    m, history, posterior, marginal, action = d.result
    errors = []
    n_policies = m.n_actions ** (m.horizon - history.t)
    if len(posterior.policies) != n_policies:
        errors.append(f"{len(posterior.policies)} policies, expected {n_policies}")
    if not is_normalized(posterior.probs.probs):
        errors.append("policy posterior not normalized")
    probs = marginal.probs
    if len(probs) != m.n_actions or not is_normalized(probs):
        errors.append("action marginal not normalized")
    elif not 0 <= action < m.n_actions or probs[action] <= 0:
        errors.append(f"action {action} has no posterior mass")
    elif harness.DEFAULT_SELECTION[d.kind] is planning.SelectionMode.ARGMAX and (
        probs[action] < probs.max() - TOL
    ):
        errors.append(f"argmax selection chose action {action}, not a maximizer")
    return errors


def check_rows(rows) -> list[str]:
    """Both decompositions of every EFE row, and a non-negative residual."""
    errors = []
    for i, r in enumerate(rows):
        if abs(r.total - (r.risk + r.ambiguity)) > TOL:
            errors.append(f"row {i}: total != risk + ambiguity")
        if abs(r.total - (-r.extrinsic - r.intrinsic + r.residual)) > TOL:
            errors.append(f"row {i}: total != -extrinsic - intrinsic + residual")
        if r.residual < -1e-12:
            errors.append(f"row {i}: residual {r.residual} < 0")
    return errors


def verify_decision(d: Decision, rng) -> list[str]:
    """Oracle checks for a sampled decision, against the policy tree and per-policy references."""
    m, history, posterior, _, _ = d.result
    policies, rows = planning.efe_table(m, history)
    errors = check_rows(rows)
    picks = rng.choice(len(policies), size=min(3, len(policies)), replace=False)
    reward = m.preferences.obs_log_pref
    for i in picks:
        ref = planning.efe_breakdown(m, history, policies[i])
        if any(abs(a - b) > TOL for a, b in zip(ref.as_row(), rows[i].as_row())):
            errors.append(f"tree row {i} differs from efe_breakdown")
        if d.kind is EFE:
            want = -rows[i].total
        else:
            want = planning.alternative_objective(m, history, policies[i], REWARD, reward)
        if abs(posterior.log_weights[i] - want) > TOL:
            errors.append(f"policy {i}: score {posterior.log_weights[i]} != reference {want}")
    return errors


@dataclass
class DecisionLoop:
    """Closed-loop decisions cycling through `cases` x `KINDS`, one round at a time."""

    tag: int
    seed: int
    cases: tuple
    context: object = None  # (model, environment) for TmazeCase
    sample: bool = True  # keep decisions for the oracle checks
    verify_every: int = 1
    verify_offset: int = 0
    min_per_kind: int = 0
    count: int = 0  # decisions made, kept or not; indexes the input substreams
    latencies: dict = field(default_factory=lambda: defaultdict(list))  # kind -> ms
    policies: int = 0  # scored by the timed decisions
    busy: float = 0.0  # seconds spent in timed decisions
    sampled: list = field(default_factory=list)
    errors: list = field(default_factory=list)
    failed: int = 0

    def _make(self, phase, index, case, kind) -> Decision:
        rng = substream(self.seed, self.tag, phase, index)
        return Decision(kind, *case.make(rng, self.context), rng=rng)

    def run_round(self, phase: int, tracer=None, keep: bool = True) -> None:
        for case in self.cases:
            for kind in KINDS:
                index = self.count
                self.count += 1
                d = self._make(phase, index, case, kind)
                if tracer is not None:
                    tracer.unit = f"decision-{phase}-{index}"
                try:
                    decide(d)
                except Exception as exc:  # a failed decision is counted, not fatal
                    self.failed += 1
                    self.errors.append(f"decision {index} ({kind.value}): {exc!r}")
                    continue
                errors = check_decision(d)
                self.failed += bool(errors)
                self.errors.extend(errors)
                first_round = index < len(self.cases) * len(KINDS)
                if self.sample and (
                    first_round or (keep and index % self.verify_every == self.verify_offset)
                ):
                    self.sampled.append(d)
                if keep:
                    self.latencies[kind].append(d.seconds * 1e3)
                    self.policies += len(d.result[2].policies)
                    self.busy += d.seconds

    def start_timed(self, sizes: Sizes) -> None:
        self.verify_every = sizes.verify_every
        self.verify_offset = int(substream(self.seed, self.tag, 0).integers(sizes.verify_every))
        self.min_per_kind = sizes.min_per_kind

    def run_for(self, seconds: float) -> None:
        """Timed whole rounds until `seconds` have passed."""
        start = time.perf_counter()
        while time.perf_counter() - start < seconds:
            self.run_round(0)

    def short(self) -> bool:
        """Whether a kind still lacks its minimum sample (never, once a decision failed)."""
        return not self.failed and any(
            len(self.latencies[kind]) < self.min_per_kind for kind in KINDS
        )

    def verify_sampled(self) -> None:
        rng = substream(self.seed, self.tag, 99)
        for d in self.sampled:
            errors = verify_decision(d, rng)
            self.failed += bool(errors)
            self.errors.extend(errors)
        self.sampled.clear()

    def metrics(self) -> dict:
        """Latency percentiles per kind, and throughputs over the busy time of all decisions.

        A shared host can switch between two speeds for tens of seconds at a
        time; totals move in proportion to the time spent at each speed, where
        a median over rounds jumps from one speed to the other.
        """
        out = {}
        for kind in KINDS:
            values = self.latencies[kind] or [0.0]  # empty only when every decision failed
            out[f"{kind.value}_decision_p50_ms"] = (statistics.median(values), "ms", len(values))
            out[f"{kind.value}_decision_p90_ms"] = (percentile(values, 0.9), "ms", len(values))
        n = sum(len(v) for v in self.latencies.values())
        busy = self.busy or 1.0  # zero only when every decision failed
        out["policies_per_s"] = (self.policies / busy, "1/s", n)
        out["decisions_per_s"] = (n / busy, "1/s", n)
        return out


# ---------------------------------------------------------------- workloads


class DecisionWorkload:
    """plan-grid and late-decision: one decision per freshly seeded random model."""

    def __init__(self, name, cases, warm_rounds, trace_rounds, seed, sizes):
        self.name, self.cases, self.seed, self.sizes = name, cases, seed, sizes
        self.warm_rounds = warm_rounds
        self.trace_rounds = sizes.trace_rounds or trace_rounds
        self.tag = zlib.crc32(name.encode())
        self.context = None
        self.loops = []
        self.failed, self.attempted, self.errors = 0, 0, []

    def _loop(self, sample: bool = True) -> DecisionLoop:
        loop = DecisionLoop(self.tag, self.seed, self.cases, self.context, sample)
        self.loops.append(loop)
        return loop

    def setup(self, rep: int) -> None:
        """Warm-up: rounds of decisions on inputs no timed run uses."""
        self._decide_rounds(1000 + rep, self.warm_rounds, sample=False)

    def _decide_rounds(self, phase: int, rounds: int, tracer=None, sample: bool = True) -> None:
        loop = self._loop(sample)
        for _ in range(rounds):
            loop.run_round(phase, tracer, keep=False)

    def _timed_loop(self) -> DecisionLoop:
        loop = self._loop()
        loop.start_timed(self.sizes)
        return loop

    def run_timed(self, seconds: float) -> dict:
        """End-to-end metrics; here one trial is one decision."""
        loop = self._timed_loop()
        loop.run_for(seconds)
        while loop.short():
            loop.run_round(0)
        out = loop.metrics()
        out["trials_per_s"] = out.pop("decisions_per_s")
        return out

    def trace_pass(self, phase: int, tracer=None) -> float:
        start = time.perf_counter()
        self._decide_rounds(phase, self.trace_rounds, tracer)
        return time.perf_counter() - start

    def finish(self) -> None:
        """Oracle checks on the sampled decisions, then the totals of every loop."""
        for loop in self.loops:
            loop.verify_sampled()
            self.attempted += loop.count
            self.failed += loop.failed
            self.errors.extend(loop.errors)

    def close(self) -> None:
        pass


class TmazeWorkload(DecisionWorkload):
    """tmaze-fig2: the bundled fig2 experiment through `efeplan.cli.main`, plus T-maze decisions.

    Each `efeplan run` call, on its own master seed, is followed by single
    T-maze decisions (one at t=0 for every two at t=1) for a third of the
    call's time; these give this workload its decision-latency figures.
    Interleaving the two lets both see the same machine conditions.
    """

    DECISIONS_PER_RUN_TIME = 1 / 3
    WARM_TRIALS = 30

    def __init__(self, seed, root, sizes):
        cases = (TmazeCase(0), TmazeCase(1), TmazeCase(1))
        super().__init__("tmaze-fig2", cases, 4, 10, seed, sizes)
        self.fig2 = json.loads((root / "src/efeplan/data/fig2.json").read_text())
        self.n_agents = len(self.fig2["agents"])
        self.work = root / ".bench_work" / f"tmaze-fig2-{os.getpid()}"
        shutil.rmtree(self.work, ignore_errors=True)
        self.work.mkdir(parents=True)
        self.runs = 0
        self.first_run = None

    def _run(self, n_trials: int):
        """One checked `efeplan run` call on a fresh seed: (seconds, trials, config, output dir)."""
        self.runs += 1
        doc = dict(self.fig2, n_trials=n_trials)
        doc["master_seed"] = int(substream(self.seed, self.tag, 7, self.runs).integers(2**31))
        config = self.work / f"config-{self.runs}.json"
        config.write_text(json.dumps(doc))
        out = self.work / f"out-{self.runs}"
        self.attempted += 1
        with contextlib.redirect_stdout(io.StringIO()):
            start = time.perf_counter()
            code = cli.main(["run", str(config), "--output-dir", str(out)])
            seconds = time.perf_counter() - start
        try:
            if code != 0:
                errors = [f"efeplan run exited {code}"]
            else:
                errors = check_outputs(out, n_trials, self.n_agents)
        except (OSError, ValueError, KeyError) as exc:
            errors = [f"{out.name}: unreadable output: {exc!r}"]
        self.failed += bool(errors)
        self.errors.extend(errors)
        return seconds, n_trials * self.n_agents, config, out

    def _discard(self, config, out):
        if self.first_run is None:
            self.first_run = (config, out)
        else:
            shutil.rmtree(out, ignore_errors=True)

    def setup(self, rep: int) -> None:
        self.context = envs.make_environment("tmaze")
        _, _, _, out = self._run(min(self.WARM_TRIALS, self.sizes.tmaze_trials))
        shutil.rmtree(out, ignore_errors=True)
        super().setup(rep)

    def run_timed(self, seconds: float) -> dict:
        runs, trials, busy = 0, 0, 0.0
        loop = self._timed_loop()
        start = time.perf_counter()
        while time.perf_counter() - start < seconds or runs < self.sizes.min_runs or loop.short():
            wall, n, config, out = self._run(self.sizes.tmaze_trials)
            runs, trials, busy = runs + 1, trials + n, busy + wall
            self._discard(config, out)
            loop.run_for(wall * self.DECISIONS_PER_RUN_TIME)
        out = loop.metrics()
        del out["decisions_per_s"]
        out["trials_per_s"] = (trials / busy, "1/s", runs)
        return out

    def trace_pass(self, phase: int, tracer=None) -> float:
        start = time.perf_counter()
        if tracer is not None:
            tracer.unit = f"run-{phase}"
        _, _, config, out = self._run(self.sizes.tmaze_trials)
        self._discard(config, out)
        self._decide_rounds(phase, self.trace_rounds, tracer)
        return time.perf_counter() - start

    def finish(self) -> None:
        super().finish()
        config, out = self.first_run
        rerun = self.work / "rerun"
        self.attempted += 1
        with contextlib.redirect_stdout(io.StringIO()):
            code = cli.main(["run", str(config), "--output-dir", str(rerun)])
        try:
            differs = [f for f in OUTPUT_FILES if (out / f).read_bytes() != (rerun / f).read_bytes()]
        except OSError as exc:
            differs = [repr(exc)]
        if code != 0 or differs:
            self.failed += 1
            self.errors.append(f"rerun of {config.name} exited {code}, differing files {differs}")

    def close(self) -> None:
        shutil.rmtree(self.work, ignore_errors=True)


def check_outputs(out: Path, n_trials: int, n_agents: int) -> list[str]:
    """The four output files of one fig2 run: present, complete and self-consistent."""
    missing = [f for f in OUTPUT_FILES if not (out / f).is_file()]
    if missing:
        return [f"{out.name}: missing {missing}"]
    errors = []
    summary = json.loads((out / "summary.json").read_text())
    if summary.get("n_trials") != n_trials or len(summary.get("agents", {})) != n_agents:
        errors.append(f"{out.name}: summary.json does not describe the run")
    with open(out / "trials.csv", newline="") as fh:
        n_rows = sum(1 for _ in csv.DictReader(fh))
    if n_rows != 2 * n_trials * n_agents:  # the T-maze horizon is 2
        errors.append(f"{out.name}: trials.csv has {n_rows} rows")
    with open(out / "efe.csv", newline="") as fh:
        rows = [
            planning.EfeBreakdown(*(float(r[k]) for k in ("total", "risk", "ambiguity", "extrinsic", "intrinsic", "residual")))
            for r in csv.DictReader(fh)
        ]
    if not rows:
        errors.append(f"{out.name}: efe.csv is empty")
    errors.extend(f"{out.name}: {e}" for e in check_rows(rows))
    mass = defaultdict(float)
    with open(out / "beliefs.csv", newline="") as fh:
        for r in csv.DictReader(fh):
            mass[(r["trial"], r["agent"], r["decision_time"], r["belief_time"])] += float(r["probability"])
    if any(abs(v - 1.0) > TOL for v in mass.values()):
        errors.append(f"{out.name}: a belief in beliefs.csv is not normalized")
    return errors


PLAN_GRID = tuple(RandomCase(s) for s in ((20, 10, 4, 5), (12, 8, 3, 7), (48, 16, 6, 4)))
# Two short-history models for each long one, so that neither percentile of a
# kind falls in the gap between the two shapes' latencies.
LATE_DECISION = tuple(
    RandomCase(s, steps_left=2) for s in ((16, 8, 4, 64), (16, 8, 4, 64), (32, 12, 4, 96))
)


def make_workload(name: str, seed: int, root: Path, sizes: Sizes):
    if name == "tmaze-fig2":
        return TmazeWorkload(seed, root, sizes)
    if name == "plan-grid":
        return DecisionWorkload(name, PLAN_GRID, 1, 2, seed, sizes)
    if name == "late-decision":
        return DecisionWorkload(name, LATE_DECISION, 4, 10, seed, sizes)
    raise ValueError(f"unknown workload {name!r}")
