"""Trial loop, experiment determinism, seed isolation, and CSV emission."""
from __future__ import annotations

import dataclasses
import json
from pathlib import Path

import numpy as np
import pytest

import efeplan as ep
from efeplan import harness, planning
from efeplan.data import data_path

OUTPUT_FILES = ("trials.csv", "beliefs.csv", "efe.csv", "summary.json")


def small_config(**over):
    doc = {
        "environment": {"name": "tmaze"},
        "agents": ["efe", "reward", "info_gain"],
        "gamma": 1.0,
        "n_trials": 6,
        "master_seed": 99,
    }
    doc.update(over)
    return ep.config_from_dict(doc)


def records_equal(a: ep.TrialRecord, b: ep.TrialRecord) -> bool:
    if (a.observations, a.actions, a.context, a.score) != (
        b.observations,
        b.actions,
        b.context,
        b.score,
    ):
        return False
    for x, y in zip(a.action_marginals, b.action_marginals):
        if not np.array_equal(x, y):
            return False
    for x, y in zip(a.policy_probs, b.policy_probs):
        if not np.array_equal(x, y):
            return False
    return True


def stacked(beliefs: ep.MarginalBeliefs) -> np.ndarray:
    """Per-timestep beliefs as one (timesteps, states) matrix."""
    return np.stack([c.probs for c in beliefs])


def test_trial_record_shapes():
    model, env = ep.make_environment("tmaze")
    record, trace = ep.run_trial(
        model,
        env,
        ep.ObjectiveKind.EXPECTED_FREE_ENERGY,
        1.0,
        ep.SelectionMode.ARGMAX,
        ep.derive_rng(0, 0, 0),
    )
    T = model.horizon
    assert len(record.observations) == T + 1
    assert len(record.actions) == T
    assert len(record.action_marginals) == T
    assert len(record.policy_probs) == T
    assert record.policy_probs[0].shape == (16,)
    assert record.policy_probs[1].shape == (4,)
    assert record.efe_rows is not None and len(record.efe_rows) == T
    assert record.score in (-10.0, 0.0, 5.0, 10.0)
    # trace: one entry per decision time plus the post-trial smoothing,
    # each covering every timestep 0..T
    assert len(trace.held_at) == T + 1
    for beliefs in trace.held_at:
        assert len(beliefs) == T + 1
        for b in beliefs:
            assert abs(b.probs.sum() - 1.0) < 1e-10


def test_non_efe_agents_skip_breakdown_table():
    model, env = ep.make_environment("tmaze")
    record, _ = ep.run_trial(
        model,
        env,
        ep.ObjectiveKind.EXPECTED_REWARD,
        1.0,
        ep.SelectionMode.SAMPLE,
        ep.derive_rng(0, 0, 0),
    )
    assert record.efe_rows is None


def test_same_substream_reproduces_trial_exactly():
    for kind, mode in [
        (ep.ObjectiveKind.EXPECTED_FREE_ENERGY, ep.SelectionMode.ARGMAX),
        (ep.ObjectiveKind.EXPECTED_REWARD, ep.SelectionMode.SAMPLE),
    ]:
        runs = []
        for _ in range(2):
            model, env = ep.make_environment("tmaze")
            runs.append(
                ep.run_trial(model, env, kind, 1.0, mode, ep.derive_rng(4, 1, 9))[0]
            )
        assert records_equal(*runs)


def test_seed_isolation_order_independent():
    # running trial 3's substream alone matches running it after trials 0..2
    def run_with_stream(trial_index):
        model, env = ep.make_environment("tmaze")
        return ep.run_trial(
            model,
            env,
            ep.ObjectiveKind.EXPECTED_REWARD,
            1.0,
            ep.SelectionMode.SAMPLE,
            ep.derive_rng(7, 0, trial_index),
            trial_index=trial_index,
        )[0]

    alone = run_with_stream(3)
    for i in range(3):
        run_with_stream(i)
    again = run_with_stream(3)
    assert records_equal(alone, again)


@pytest.mark.parametrize(
    "master_seed", [0, 7, 2**32 - 1, 2**32, 2**32 + 1, 2**64 - 1, 2**64, 8589934595, 10**30]
)
def test_derive_rng_equals_seed_sequence_of_the_three_ints(master_seed):
    # the uint32 words it builds are what numpy makes of each int entropy item
    for agent_index, trial_index in ((0, 0), (2, 17), (1, 2**32 + 1)):
        got = ep.derive_rng(master_seed, agent_index, trial_index)
        want = np.random.default_rng(
            np.random.SeedSequence([master_seed, agent_index, trial_index])
        )
        assert got.bit_generator.state == want.bit_generator.state
        assert np.array_equal(got.random(8), want.random(8))


def test_derive_rng_rejects_a_negative_component():
    for components in ((-1, 0, 0), (0, -1, 0), (0, 0, -(2**40))):
        with pytest.raises(ValueError):
            ep.derive_rng(*components)


def test_experiment_summary_and_prefix_sums():
    result = ep.run_experiment(small_config())
    for name, agent in result.summary["agents"].items():
        scores = agent["scores"]
        assert len(scores) == 6
        assert agent["cumulative"] == list(np.cumsum(scores))
        assert agent["mean"] == pytest.approx(np.mean(scores))
    assert set(result.records) == {"efe", "reward", "info_gain"}


def test_experiment_rerun_identical():
    a = ep.run_experiment(small_config())
    b = ep.run_experiment(small_config())
    assert a.summary == b.summary
    for name in a.records:
        for ra, rb in zip(a.records[name], b.records[name]):
            assert records_equal(ra, rb)


def test_reward_agent_first_action_uniform_chi_square():
    # all 16 policies tie at expected reward 0, so the sampled first action
    # must be 4-way uniform; chi-square at n=4000 with a 0.001 critical value.
    # As agent 0 of master seed 12345, trial i draws from derive_rng(12345, 0, i).
    n = 4000
    cfg = small_config(agents=["reward"], n_trials=n, master_seed=12345)
    counts = np.zeros(4)
    for record in ep.run_experiment(cfg).records["reward"]:
        counts[record.actions[0]] += 1
        assert np.allclose(record.action_marginals[0], 0.25, atol=1e-12)
    expected = n / 4
    chi2 = float(((counts - expected) ** 2 / expected).sum())
    assert chi2 < 16.27  # chi-square df=3 at p=0.001


def test_experiment_plans_each_distinct_history_once(monkeypatch):
    calls = []
    original = planning.policy_scores

    def counting(model, history, kind, *args, **kwargs):
        calls.append((kind, history))
        return original(model, history, kind, *args, **kwargs)

    monkeypatch.setattr(planning, "policy_scores", counting)
    result = ep.run_experiment(small_config(n_trials=30))
    distinct = set()
    for name, agent_records in result.records.items():
        for rec in agent_records:
            for t in range(len(rec.actions)):
                history = ep.History(rec.observations[: t + 1], rec.actions[:t])
                distinct.add((ep.ObjectiveKind(name), history))
    assert len(calls) == len(set(calls)) == len(distinct)
    assert set(calls) == distinct


def test_fig2_experiment_pulls_back_preferences_once(monkeypatch):
    # every plan, final smoothing and preference posterior of the experiment
    # shares the one model's planner context
    calls = []
    original = ep.model.pullback_preferences

    def counting(model):
        calls.append(model)
        return original(model)

    monkeypatch.setattr(ep.model, "pullback_preferences", counting)
    ep.run_experiment(ep.load_config(data_path("fig2.json")))
    assert len(calls) == 1


def test_fig2_experiment_filters_each_plan_forward_only(monkeypatch):
    # each distinct plan roots its tree on one forward-only pass and smooths
    # the greedy policy once for held_at; each distinct final history is
    # smoothed once for the trial outcome
    calls = []
    original = ep.inference.filter_and_smooth

    def counting(model, history, policy=None, *, smooth=True):
        calls.append((smooth, policy is None))
        return original(model, history, policy, smooth=smooth)

    for module in (planning, harness, ep.inference):
        monkeypatch.setattr(module, "filter_and_smooth", counting)
    result = ep.run_experiment(ep.load_config(data_path("fig2.json")))
    plans = finals = 0
    for agent_records in result.records.values():
        decisions, final_histories = distinct_histories(agent_records)
        plans += len(decisions)
        finals += len(final_histories)
    assert (plans, finals) == (13, 25)
    assert calls.count((False, True)) == plans  # tree roots
    assert calls.count((True, False)) == plans  # held_at under the greedy policy
    assert calls.count((True, True)) == finals  # trial outcomes
    assert len(calls) == 2 * plans + finals


def test_experiment_records_match_fresh_trials():
    cfg = small_config(n_trials=12)
    result = ep.run_experiment(cfg)
    for agent_index, spec in enumerate(cfg.agents):
        for trial, cached in enumerate(result.records[spec.name]):
            model, env = ep.make_environment("tmaze")
            fresh, trace = ep.run_trial(
                model,
                env,
                spec.kind,
                cfg.gamma,
                spec.selection,
                ep.derive_rng(cfg.master_seed, agent_index, trial),
                trial_index=trial,
            )
            assert records_equal(cached, fresh)
            held = result.traces[spec.name][trial].held_at
            for a, b in zip(held, trace.held_at):
                assert np.array_equal(stacked(a), stacked(b))


def test_cached_arrays_are_read_only():
    result = ep.run_experiment(small_config(n_trials=3, agents=["efe"]))
    rec = result.records["efe"][0]
    for array in rec.action_marginals + rec.policy_probs:
        with pytest.raises(ValueError):
            array[0] = 0.0


def test_greedy_plan_starts_with_executed_action():
    # Every first-decision policy ties, and so does every t=1 policy from the
    # middle; under the tie rule the greedy plan behind held_at[0] is the
    # lowest-index policy, which is the route the agent then takes.
    model, env = ep.make_environment("tmaze")
    record, trace = ep.run_trial(
        model,
        env,
        ep.ObjectiveKind.EXPECTED_FREE_ENERGY,
        1.0,
        ep.SelectionMode.ARGMAX,
        ep.derive_rng(2026, 0, 0),
    )
    first = ep.History(record.observations[:1], ())
    held = stacked(trace.held_at[0])
    matching = [
        second
        for second in range(model.n_actions)
        if np.array_equal(
            held,
            stacked(
                ep.filter_and_smooth(model, first, ep.Policy((record.actions[0], second)))
            ),
        )
    ]
    assert record.actions == (0, 0)
    assert matching == [record.actions[1]]


def test_info_gain_agent_never_stays_middle():
    # argmax selection is deterministic, but check across many seeds anyway
    for seed in range(50):
        model, env = ep.make_environment("tmaze")
        record, _ = ep.run_trial(
            model,
            env,
            ep.ObjectiveKind.INFO_GAIN_ONLY,
            1.0,
            ep.SelectionMode.ARGMAX,
            ep.derive_rng(seed, 0, 0),
        )
        assert record.actions[0] != 0


def test_trial_error_attaches_context():
    # an environment whose emissions contradict the model surfaces ZeroEvidence
    class LyingEnv(ep.TMazeEnv):
        def reset(self, seed):
            super().reset(seed)
            return 1  # claims left-reward while standing in the middle

    model, _ = ep.make_environment("tmaze")
    with pytest.raises(ep.TrialError, match="trial 5") as exc_info:
        ep.run_trial(
            model,
            LyingEnv(),
            ep.ObjectiveKind.EXPECTED_FREE_ENERGY,
            1.0,
            ep.SelectionMode.ARGMAX,
            ep.derive_rng(0, 0, 5),
            trial_index=5,
        )
    assert isinstance(exc_info.value.__cause__, ep.ZeroEvidence)


def test_config_validation():
    with pytest.raises(ep.ConfigError):
        small_config(n_trials=0)
    with pytest.raises(ep.ConfigError):
        small_config(gamma=0.0)
    with pytest.raises(ep.ConfigError):
        small_config(agents=[])
    with pytest.raises(ep.ConfigError):
        small_config(agents=["no_such_agent"])
    # records are keyed by kind, so a repeated kind would lose trials
    with pytest.raises(ep.ConfigError, match="more than once: reward"):
        small_config(agents=["reward", "efe", {"kind": "reward", "selection": "argmax"}])
    cfg = small_config(agents=[{"kind": "reward", "selection": "argmax"}])
    assert cfg.agents[0].selection is ep.SelectionMode.ARGMAX


def test_default_selection_modes():
    cfg = small_config()
    modes = {spec.name: spec.selection for spec in cfg.agents}
    assert modes["efe"] is ep.SelectionMode.ARGMAX
    assert modes["info_gain"] is ep.SelectionMode.ARGMAX
    assert modes["reward"] is ep.SelectionMode.SAMPLE


def test_write_outputs_deterministic_bytes(tmp_path):
    cfg = small_config(n_trials=4)
    dir_a, dir_b = tmp_path / "a", tmp_path / "b"
    ep.write_outputs(ep.run_experiment(cfg), dir_a)
    ep.write_outputs(ep.run_experiment(cfg), dir_b)
    for name in ("trials.csv", "beliefs.csv", "efe.csv", "summary.json"):
        assert (dir_a / name).read_bytes() == (dir_b / name).read_bytes()


def test_trials_csv_cumulative_column(tmp_path):
    cfg = small_config(n_trials=5, agents=["efe"])
    result = ep.run_experiment(cfg)
    ep.write_outputs(result, tmp_path)
    lines = (tmp_path / "trials.csv").read_text().strip().splitlines()[1:]
    last_per_trial = {}
    for line in lines:
        trial, agent, ctx, t, action, obs, score_so_far = line.split(",")
        last_per_trial[int(trial)] = float(score_so_far)
    scores = [r.score for r in result.records["efe"]]
    assert [last_per_trial[i] for i in range(5)] == list(np.cumsum(scores))


def test_efe_csv_roundtrip_precision(tmp_path):
    cfg = small_config(n_trials=2, agents=["efe"])
    result = ep.run_experiment(cfg)
    ep.write_outputs(result, tmp_path)
    lines = (tmp_path / "efe.csv").read_text().strip().splitlines()[1:]
    by_key = {}
    for line in lines:
        cells = line.split(",")
        by_key[(int(cells[0]), int(cells[1]), int(cells[2]))] = [
            float(x) for x in cells[3:]
        ]
    for rec in result.records["efe"]:
        for t, rows in enumerate(rec.efe_rows):
            for idx, bd in enumerate(rows):
                parsed = by_key[(rec.trial_index, t, idx)]
                for got, want in zip(parsed, bd.as_row()):
                    assert abs(got - want) <= 1e-10


def reference_write_outputs(result: ep.ExperimentResult, output_dir) -> None:
    """The per-row writer: formats every line afresh, sharing nothing."""
    out = Path(output_dir)
    out.mkdir(parents=True, exist_ok=True)
    fmt = lambda x: harness.FLOAT_FMT % float(x)  # noqa: E731
    with open(out / "trials.csv", "w", encoding="utf-8", newline="\n") as fh:
        fh.write("trial,agent,context,t,action,observation,score_so_far\n")
        for name, agent_records in result.records.items():
            running = 0.0
            for rec in agent_records:
                running += rec.score
                for t, (a, o) in enumerate(zip(rec.actions, rec.observations[1:])):
                    fh.write(
                        f"{rec.trial_index},{name},{rec.context},{t},{a},{o},{fmt(running)}\n"
                    )
    with open(out / "beliefs.csv", "w", encoding="utf-8", newline="\n") as fh:
        fh.write("trial,agent,decision_time,belief_time,state,probability\n")
        for name, agent_traces in result.traces.items():
            for trial, trace in enumerate(agent_traces):
                for dt, beliefs in enumerate(trace.held_at):
                    for bt in range(len(beliefs)):
                        probs = beliefs[bt].probs
                        for s in range(len(probs)):
                            fh.write(f"{trial},{name},{dt},{bt},{s},{fmt(probs[s])}\n")
    with open(out / "efe.csv", "w", encoding="utf-8", newline="\n") as fh:
        fh.write("trial,t,policy_index,total,risk,ambiguity,extrinsic,intrinsic,residual\n")
        for agent_records in result.records.values():
            for rec in agent_records:
                if rec.efe_rows is None:
                    continue
                for t, rows in enumerate(rec.efe_rows):
                    for idx, row in enumerate(rows):
                        cells = ",".join(fmt(v) for v in row.as_row())
                        fh.write(f"{rec.trial_index},{t},{idx},{cells}\n")
    with open(out / "summary.json", "w", encoding="utf-8", newline="\n") as fh:
        json.dump(result.summary, fh, indent=1, sort_keys=True)
        fh.write("\n")


def assert_outputs_match_reference(result: ep.ExperimentResult, tmp_path) -> None:
    ep.write_outputs(result, tmp_path / "shared")
    reference_write_outputs(result, tmp_path / "reference")
    for name in OUTPUT_FILES:
        got = (tmp_path / "shared" / name).read_bytes()
        assert got == (tmp_path / "reference" / name).read_bytes(), name


WRITER_CONFIGS = {
    "fig2": lambda: ep.load_config(data_path("fig2.json")),
    "four-agents-gamma-2.5": lambda: small_config(
        agents=["efe", "reward", "info_gain", "reward_info_gain"],
        gamma=2.5,
        n_trials=40,
        master_seed=31,
    ),
}


@pytest.mark.parametrize("name", sorted(WRITER_CONFIGS))
def test_write_outputs_matches_per_row_reference(tmp_path, name):
    result = ep.run_experiment(WRITER_CONFIGS[name]())
    # The plan cache makes trials share plan objects: the case the memo serves.
    held = [trace.held_at[0] for trace in result.traces["efe"]]
    assert len({id(b) for b in held}) < len(held)
    assert_outputs_match_reference(result, tmp_path)


@pytest.mark.parametrize("name", sorted(WRITER_CONFIGS))
def test_write_outputs_matches_reference_without_shared_plans(tmp_path, name):
    cfg = WRITER_CONFIGS[name]()
    model, env, reward_per_obs = harness.build_environment(cfg)
    records, traces = {}, {}
    for agent_index, spec in enumerate(cfg.agents):
        pairs = [
            ep.run_trial(
                model,
                env,
                spec.kind,
                cfg.gamma,
                spec.selection,
                ep.derive_rng(cfg.master_seed, agent_index, trial),
                reward_per_obs=reward_per_obs,
                trial_index=trial,
            )
            for trial in range(cfg.n_trials)
        ]
        records[spec.name] = [record for record, _ in pairs]
        traces[spec.name] = [trace for _, trace in pairs]
    held = [trace.held_at[0] for trace in traces["efe"]]
    assert len({id(b) for b in held}) == len(held)
    unshared = ep.ExperimentResult(
        config=cfg, records=records, traces=traces, summary=ep.run_experiment(cfg).summary
    )
    assert_outputs_match_reference(unshared, tmp_path)


def test_write_outputs_keeps_signed_zero_rows_apart(tmp_path):
    # Equal EFE-row tuples that print differently: a memo keyed by value
    # would write one trial's cells for the other.
    base = ep.run_experiment(small_config(n_trials=2, agents=["efe"]))
    rows = [(ep.EfeBreakdown(zero, 1.0, -1.0, 0.5, zero, 0.5),) for zero in (0.0, -0.0)]
    assert rows[0] == rows[1] and hash(rows[0]) == hash(rows[1])
    records = [
        dataclasses.replace(rec, efe_rows=(trial_rows,) * len(rec.efe_rows))
        for rec, trial_rows in zip(base.records["efe"], rows)
    ]
    result = dataclasses.replace(base, records={"efe": records})
    assert_outputs_match_reference(result, tmp_path)
    lines = (tmp_path / "shared" / "efe.csv").read_text().splitlines()[1:]
    assert lines[0].startswith("0,0,0,0,1,") and lines[-1].startswith("1,1,0,-0,1,")


# --- the plan cache against the uncached-key trial loop ------------------------


class ReferenceCache:
    """The History-keyed cache of the reference loop: plans and smoothed posteriors."""

    def __init__(self):
        self.plans = {}
        self.smoothed = {}


def reference_run_trial(
    model,
    env,
    kind,
    gamma,
    mode,
    rng,
    reward_per_obs=None,
    trial_index=0,
    cache=None,
):
    """The trial loop that builds a History per step, selects per step and scores per trial."""
    if reward_per_obs is None:
        reward_per_obs = model.preferences.obs_log_pref
    if cache is None:
        cache = ReferenceCache()
    observations = [int(env.reset(rng))]
    context = env.ground_truth() % 2
    actions = []
    plans = []

    try:
        done = False
        while not done:
            history = ep.History(tuple(observations), tuple(actions))
            plan = cache.plans.get(history)
            if plan is None:
                plan = cache.plans[history] = harness._plan(
                    model, history, kind, gamma, reward_per_obs
                )
            plans.append(plan)
            action = planning.select_action(plan.marginal, mode, rng)

            obs, done = env.step(action)
            actions.append(int(action))
            observations.append(int(obs))
    except (ValueError, RuntimeError) as exc:
        raise ep.TrialError(f"trial {trial_index}, agent {kind.value!r}: {exc}") from exc

    final = ep.History(tuple(observations), tuple(actions))
    smoothed = cache.smoothed.get(final)
    if smoothed is None:
        smoothed = cache.smoothed[final] = ep.preferential_inference(model, final).past
    score = float(env.score(observations, actions))
    record = ep.TrialRecord(
        trial_index=trial_index,
        agent=kind,
        context=int(context),
        observations=tuple(observations),
        actions=tuple(actions),
        score=score,
        action_marginals=tuple(p.marginal.probs for p in plans),
        policy_probs=tuple(p.policy_probs for p in plans),
        efe_rows=(
            tuple(p.efe_rows for p in plans)
            if kind is ep.ObjectiveKind.EXPECTED_FREE_ENERGY
            else None
        ),
    )
    held_at = tuple(p.held_at for p in plans) + (smoothed,)
    return record, ep.BeliefTrace(held_at=held_at)


def fig2_config(master_seed):
    doc = json.loads(Path(data_path("fig2.json")).read_text(encoding="utf-8"))
    return ep.config_from_dict(dict(doc, master_seed=master_seed))


CACHE_CONFIGS = {
    **{f"fig2-seed-{seed}": (lambda seed=seed: fig2_config(seed)) for seed in (0, 7, 123, 2026)},
    "four-agents-200-gamma-2.5": lambda: small_config(
        agents=["efe", "reward", "info_gain", "reward_info_gain"],
        gamma=2.5,
        n_trials=200,
        master_seed=31,
    ),
}


@pytest.mark.parametrize("name", sorted(CACHE_CONFIGS))
def test_run_experiment_matches_reference_trial_loop(tmp_path, name):
    cfg = CACHE_CONFIGS[name]()
    result = ep.run_experiment(cfg)
    model, env, reward_per_obs = harness.build_environment(cfg)
    records, traces = {}, {}
    for agent_index, spec in enumerate(cfg.agents):
        cache = ReferenceCache()
        pairs = [
            reference_run_trial(
                model,
                env,
                spec.kind,
                cfg.gamma,
                spec.selection,
                ep.derive_rng(cfg.master_seed, agent_index, trial),
                reward_per_obs=reward_per_obs,
                trial_index=trial,
                cache=cache,
            )
            for trial in range(cfg.n_trials)
        ]
        records[spec.name] = [record for record, _ in pairs]
        traces[spec.name] = [trace for _, trace in pairs]
        assert result.summary["agents"][spec.name]["scores"] == [
            record.score for record in records[spec.name]
        ]
        for got, want in zip(result.records[spec.name], records[spec.name]):
            assert records_equal(got, want)
            assert got.trial_index == want.trial_index and got.agent is want.agent
            assert (got.efe_rows is None) == (want.efe_rows is None)
            if got.efe_rows is not None:
                assert got.efe_rows == want.efe_rows
        for got, want in zip(result.traces[spec.name], traces[spec.name]):
            assert len(got.held_at) == len(want.held_at)
            for a, b in zip(got.held_at, want.held_at):
                assert np.array_equal(stacked(a), stacked(b))
    reference = ep.ExperimentResult(
        config=cfg, records=records, traces=traces, summary=result.summary
    )
    ep.write_outputs(result, tmp_path / "cached")
    ep.write_outputs(reference, tmp_path / "reference")
    for file_name in OUTPUT_FILES:
        got = (tmp_path / "cached" / file_name).read_bytes()
        assert got == (tmp_path / "reference" / file_name).read_bytes(), file_name


def distinct_histories(records):
    """Distinct decision histories and distinct final histories of one agent's records."""
    decisions, finals = set(), set()
    for rec in records:
        finals.add((rec.observations, rec.actions))
        for t in range(len(rec.actions)):
            decisions.add((rec.observations[: t + 1], rec.actions[:t]))
    return decisions, finals


@pytest.mark.parametrize(
    "kind, mode",
    [
        ("efe", ep.SelectionMode.ARGMAX),
        ("info_gain", ep.SelectionMode.ARGMAX),
        ("reward", ep.SelectionMode.ARGMAX),
        ("reward", ep.SelectionMode.SAMPLE),
        ("reward_info_gain", ep.SelectionMode.SAMPLE),
    ],
)
def test_cache_selects_once_per_plan_and_scores_once_per_final_history(
    monkeypatch, kind, mode
):
    selections, scored = [], []
    select, score = planning.select_action, ep.TMazeEnv.score

    def counting_select(marginal, selection_mode=ep.SelectionMode.ARGMAX, rng=None):
        selections.append(selection_mode)
        return select(marginal, selection_mode, rng)

    def counting_score(self, observations, actions):
        scored.append((tuple(observations), tuple(actions)))
        return score(self, observations, actions)

    monkeypatch.setattr(harness, "select_action", counting_select)
    monkeypatch.setattr(ep.TMazeEnv, "score", counting_score)
    model, env = ep.make_environment("tmaze")
    cache = harness.PlanCache()
    records = [
        ep.run_trial(
            model,
            env,
            ep.ObjectiveKind(kind),
            1.0,
            mode,
            ep.derive_rng(5, 0, trial),
            trial_index=trial,
            cache=cache,
        )[0]
        for trial in range(60)
    ]
    decisions, finals = distinct_histories(records)
    assert set(cache.plans) == decisions and set(cache.outcomes) == finals
    argmax_calls = selections.count(ep.SelectionMode.ARGMAX)
    assert argmax_calls == len(decisions)
    sampled = 0 if mode is ep.SelectionMode.ARGMAX else 60 * model.horizon
    assert len(selections) - argmax_calls == sampled
    assert len(scored) == len(set(scored)) and set(scored) == finals
    if mode is ep.SelectionMode.SAMPLE:
        assert len(finals) > 1  # the sampling agent does take different routes

