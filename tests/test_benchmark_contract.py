"""The traced benchmark's layer contract, checked at test-suite speed.

`benchmarks/tracing.py` wraps named efeplan functions and binds some of their
arguments by name; a traced benchmark run fails when a layer records no calls.
This test loads that module read-only, runs a short `efeplan run` and one EFE
and one reward decision under its tracer, and asserts every layer was seen.
"""
from __future__ import annotations

import importlib.util
import json
from pathlib import Path

import numpy as np

from efeplan import cli, planning
from efeplan.data import data_path
from efeplan.model import History

from conftest import random_model

TRACING_PATH = Path(__file__).resolve().parents[1] / "benchmarks" / "tracing.py"


def load_tracing():
    spec = importlib.util.spec_from_file_location("efeplan_bench_tracing", TRACING_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def decide(model, kind, rng):
    """One t=0 decision as the benchmark times it, reached through module attributes."""
    reward = model.preferences.obs_log_pref
    posterior = planning.policy_posterior(
        model, History((0,), ()), kind=kind, reward_per_obs=reward
    )
    marginal = planning.action_marginal(posterior, model.n_actions)
    return planning.select_action(marginal, planning.SelectionMode.SAMPLE, rng)


def decide_both_kinds(model, rng):
    for kind in (
        planning.ObjectiveKind.EXPECTED_FREE_ENERGY,
        planning.ObjectiveKind.EXPECTED_REWARD,
    ):
        decide(model, kind, rng)


def test_traced_run_and_decisions_record_every_layer(tmp_path):
    # tmaze-fig2 traces `efeplan run` plus single decisions and requires every
    # layer; plan-grid and late-decision trace EFE and reward decisions only
    # and require the decision layers
    tracing = load_tracing()
    config = json.loads(data_path("fig2.json").read_text(encoding="utf-8"))
    config.update(n_trials=2, output_dir=str(tmp_path / "out"))
    config_path = tmp_path / "fig2.json"
    config_path.write_text(json.dumps(config), encoding="utf-8")
    rng = np.random.default_rng(7)
    model = random_model(rng, max_states=4, max_actions=3, max_horizon=3)

    with tracing.Tracer() as tracer:
        assert cli.main(["run", str(config_path)]) == 0
        decide_both_kinds(model, rng)
    metrics, _, missing = tracing.layer_metrics(tracer.spans, 0.0)
    assert missing == []
    assert metrics["planning.efe_table.nodes"][0] > 0

    # plan-grid and late-decision draw a fresh model per decision, and only a
    # model's first decision derives its planner context
    model = random_model(rng, max_states=4, max_actions=3, max_horizon=3)
    with tracing.Tracer() as tracer:
        decide_both_kinds(model, rng)
    _, _, missing = tracing.layer_metrics(tracer.spans, 0.0)
    assert [name for name in missing if name in tracing.DECISION_SPANS] == []
    kinds = {s.note for s in tracer.spans if s.name == "planning.policy_scores"}
    assert kinds == {"efe", "reward"}
    # each decision filters its history once, inside the scorer, so a scorer
    # that stops reaching filter_and_smooth fails here, not in the traced run
    assert filter_spans_per_scorer(tracer.spans) == [1, 1]


def filter_spans_per_scorer(spans) -> list[int]:
    """Per `planning.policy_scores` span, its `inference.filter_and_smooth` descendants."""
    counts = {i: 0 for i, s in enumerate(spans) if s.name == "planning.policy_scores"}
    for span in spans:
        if span.name == "inference.filter_and_smooth":
            parent = span.parent
            while parent >= 0 and parent not in counts:
                parent = spans[parent].parent
            if parent >= 0:
                counts[parent] += 1
    return list(counts.values())
