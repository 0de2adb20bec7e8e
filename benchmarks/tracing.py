"""Span recorder for the traced benchmark run, and the per-layer metrics it yields.

`Tracer.install` replaces each reported public function of efeplan with a
timing wrapper at every module attribute that holds it, because the package
calls most functions through names imported into other modules (for example
`filter_and_smooth` is reached as `harness.filter_and_smooth`,
`planning.filter_and_smooth` and `inference.filter_and_smooth`). The
environment's `reset` and `step` are wrapped on each `Environment` subclass.
`uninstall` puts the originals back.

Spans are kept in memory, one per call: name, start, end, parent span and the
decision or trial it belongs to, plus a small note for the counters below.
Self time is a span's duration minus the durations of its child spans.
"""
from __future__ import annotations

import inspect
import json
import sys
import time
from collections import defaultdict
from pathlib import Path

# (span name, defining module, attribute) of every wrapped public function.
LAYER_FUNCTIONS = (
    ("cli.main", "efeplan.cli", "main"),
    ("harness.run_experiment", "efeplan.harness", "run_experiment"),
    ("harness.run_trial", "efeplan.harness", "run_trial"),
    ("harness.write_outputs", "efeplan.harness", "write_outputs"),
    ("envs.make_environment", "efeplan.envs", "make_environment"),
    ("model.pullback_preferences", "efeplan.model", "pullback_preferences"),
    ("inference.filter_and_smooth", "efeplan.inference", "filter_and_smooth"),
    ("inference.preferential_inference", "efeplan.inference", "preferential_inference"),
    ("planning.efe_table", "efeplan.planning", "efe_table"),
    ("planning.policy_scores", "efeplan.planning", "policy_scores"),
    ("planning.policy_posterior", "efeplan.planning", "policy_posterior"),
    ("planning.action_marginal", "efeplan.planning", "action_marginal"),
    ("planning.select_action", "efeplan.planning", "select_action"),
)
ENV_METHODS = ("reset", "step")

# Spans every workload must record at least once; a renamed import that
# bypasses a wrapper then fails the run instead of reporting a free layer.
DECISION_SPANS = (
    "model.pullback_preferences",
    "inference.filter_and_smooth",
    "planning.efe_table",
    "planning.policy_scores",
    "planning.policy_posterior",
    "planning.action_marginal",
    "planning.select_action",
)
ALL_SPANS = tuple(name for name, _, _ in LAYER_FUNCTIONS) + tuple(
    f"envs.{m}" for m in ENV_METHODS
)


def _tree_nodes(bound):
    """Nodes of the policy tree one efe_table call scores: sum_d A^d."""
    model, history = bound.arguments["model"], bound.arguments["history"]
    depth = model.horizon - history.t
    return sum(model.n_actions**d for d in range(1, depth + 1))


def _bytes_written(bound, paths):
    return sum(Path(p).stat().st_size for p in paths)


# Per-span notes: computed after the call from its bound arguments and result.
NOTES = {
    "harness.write_outputs": _bytes_written,
    "planning.efe_table": lambda bound, result: _tree_nodes(bound),
    "planning.policy_scores": lambda bound, result: bound.arguments["kind"].value,
    "harness.run_trial": lambda bound, result: bound.arguments["kind"].value,
    "envs.reset": lambda bound, result: int(result),
    "envs.step": lambda bound, result: (int(bound.arguments["action"]), int(result[0])),
}


class Span:
    __slots__ = ("name", "start", "end", "parent", "unit", "note")

    def __init__(self, name, start, parent, unit):
        self.name = name
        self.start = start
        self.end = start
        self.parent = parent
        self.unit = unit
        self.note = None

    def as_dict(self, index):
        return {
            "id": index,
            "name": self.name,
            "start": self.start,
            "end": self.end,
            "parent": self.parent,
            "unit": self.unit,
            "note": self.note,
        }


class Tracer:
    """Records one span per call of every wrapped efeplan function."""

    def __init__(self):
        self.spans: list[Span] = []
        self.unit = ""  # decision or trial id, set by the benchmark loop
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    def _wrap(self, name, fn):
        signature = inspect.signature(fn)
        note = NOTES.get(name)
        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            parent = stack[-1] if stack else -1
            unit = spans[parent].unit if parent >= 0 else self.unit
            if name == "harness.run_trial":
                bound = signature.bind(*args, **kwargs)
                unit = f"{unit}/{bound.arguments['kind'].value}/trial-{bound.arguments.get('trial_index', 0)}"
            span = Span(name, time.perf_counter(), parent, unit)
            stack.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                stack.pop()
            if note is not None:
                span.note = note(signature.bind(*args, **kwargs), result)
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self) -> None:
        modules = [
            m
            for key, m in list(sys.modules.items())
            if key == "efeplan" or key.startswith("efeplan.")
        ]
        for name, module_name, attr in LAYER_FUNCTIONS:
            original = getattr(sys.modules[module_name], attr)
            wrapper = self._wrap(name, original)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._patched.append((module, key, original))
                        setattr(module, key, wrapper)
        envs = sys.modules["efeplan.envs"]
        for cls in list(vars(envs).values()):
            if isinstance(cls, type) and issubclass(cls, envs.Environment):
                for method in ENV_METHODS:
                    if method in vars(cls) and cls is not envs.Environment:
                        original = vars(cls)[method]
                        self._patched.append((cls, method, original))
                        setattr(cls, method, self._wrap(f"envs.{method}", original))

    def uninstall(self) -> None:
        for owner, key, original in reversed(self._patched):
            setattr(owner, key, original)
        self._patched.clear()

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()
        return False

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            for i, span in enumerate(self.spans):
                fh.write(json.dumps(span.as_dict(i)) + "\n")


def _ancestor(spans, index, name):
    parent = spans[index].parent
    while parent >= 0 and spans[parent].name != name:
        parent = spans[parent].parent
    return parent


def repeat_history_share(spans) -> tuple[float, int]:
    """Share of harness decisions whose (kind, history) already occurred in the same experiment.

    A decision's history is rebuilt from the environment spans of its trial:
    the observation `reset` returned and the (action, observation) of every
    earlier `step`. Returns the share and the number of decisions it covers.
    """
    trials: dict[int, list] = defaultdict(list)
    for i, span in enumerate(spans):
        if span.name in ("envs.reset", "envs.step"):
            trial = _ancestor(spans, i, "harness.run_trial")
            if trial >= 0:
                trials[trial].append(span.note)
    seen, decisions, repeats = set(), 0, 0
    for trial, events in sorted(trials.items()):
        experiment = _ancestor(spans, trial, "harness.run_experiment")
        kind = spans[trial].note
        for k in range(1, len(events)):
            key = (experiment, kind, tuple(events[:k]))
            decisions += 1
            repeats += key in seen
            seen.add(key)
    return (repeats / decisions if decisions else 0.0), decisions


def layer_metrics(spans, overhead_share: float) -> tuple[dict, dict, list[str]]:
    """Per-layer metrics from one traced pass.

    Returns (metrics as {name: (value, unit)}, sample counts, layers with no calls).
    """
    calls = defaultdict(int)
    total = defaultdict(float)
    child = [0.0] * len(spans)
    for span in spans:
        if span.parent >= 0:
            child[span.parent] += span.end - span.start
    self_time = defaultdict(float)
    reward_self = 0.0
    nodes = 0
    written = 0
    for i, span in enumerate(spans):
        duration = span.end - span.start
        calls[span.name] += 1
        total[span.name] += duration
        self_time[span.name] += duration - child[i]
        if span.name == "planning.policy_scores" and span.note == "reward":
            reward_self += duration - child[i]
        elif span.name == "planning.efe_table":
            nodes += span.note
        elif span.name == "harness.write_outputs":
            written += span.note

    decisions = calls["planning.select_action"]
    share, harness_decisions = repeat_history_share(spans)
    c = lambda name: (calls[name], "count")  # noqa: E731
    metrics = {
        "harness.run_trial.calls": c("harness.run_trial"),
        "harness.run_trial.self_s": (self_time["harness.run_trial"], "s"),
        "harness.repeat_history_share": (share, "ratio"),
        "harness.write_outputs.s": (total["harness.write_outputs"], "s"),
        "harness.write_outputs.bytes": (written, "bytes"),
        "envs.make_environment.calls": c("envs.make_environment"),
        "envs.make_environment.s": (total["envs.make_environment"], "s"),
        "envs.step.s": (total["envs.step"], "s"),
        "model.pullback_preferences.calls": c("model.pullback_preferences"),
        "model.pullback_preferences.s": (total["model.pullback_preferences"], "s"),
        "inference.filter_and_smooth.calls": c("inference.filter_and_smooth"),
        "inference.filter_and_smooth.self_s": (self_time["inference.filter_and_smooth"], "s"),
        "inference.filter_calls_per_decision": (
            calls["inference.filter_and_smooth"] / decisions if decisions else 0.0,
            "calls/decision",
        ),
        "inference.preferential_inference.calls": c("inference.preferential_inference"),
        "inference.preferential_inference.s": (total["inference.preferential_inference"], "s"),
        "planning.efe_table.calls": c("planning.efe_table"),
        "planning.efe_table.self_s": (self_time["planning.efe_table"], "s"),
        "planning.efe_table.nodes": (nodes, "count"),
        "planning.efe_table.us_per_node": (
            1e6 * self_time["planning.efe_table"] / nodes if nodes else 0.0,
            "us",
        ),
        "planning.policy_scores.calls": c("planning.policy_scores"),
        "planning.policy_scores.reward.self_s": (reward_self, "s"),
        "planning.action_marginal.s": (total["planning.action_marginal"], "s"),
        "planning.select_action.s": (total["planning.select_action"], "s"),
        "cli.main.s": (total["cli.main"], "s"),
        "harness.run_experiment.s": (total["harness.run_experiment"], "s"),
        "planning.policy_posterior.s": (total["planning.policy_posterior"], "s"),
        "trace.overhead_share": (overhead_share, "ratio"),
    }
    samples = {}
    for metric in metrics:
        span = max((n for n in ALL_SPANS if metric.startswith(n + ".")), key=len, default=None)
        samples[metric] = calls[span] if span else decisions
    samples["harness.repeat_history_share"] = harness_decisions
    samples["trace.overhead_share"] = 1
    missing = [name for name in ALL_SPANS if calls[name] == 0]
    return metrics, samples, missing
