"""CLI subcommands, exit codes, and output-file contracts."""
from __future__ import annotations

import json

import numpy as np
import pytest

import efeplan as ep
from efeplan.cli import main
from efeplan.data import data_path
from efeplan.model import model_to_dict


@pytest.fixture
def tmaze_path(tmp_path):
    path = tmp_path / "tmaze.json"
    ep.save_model(ep.tmaze_model(), path)
    return path


@pytest.fixture
def config_path(tmp_path):
    doc = {
        "environment": {"name": "tmaze"},
        "agents": ["efe", "reward"],
        "gamma": 1.0,
        "n_trials": 4,
        "master_seed": 11,
        "output_dir": str(tmp_path / "out"),
    }
    path = tmp_path / "config.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    return path


def test_validate_bundled_model_exit_0(capsys):
    assert main(["validate", str(data_path("tmaze.json"))]) == 0
    assert "Ok" in capsys.readouterr().out


def test_validate_bad_column_exit_1(tmp_path, capsys):
    doc = model_to_dict(ep.tmaze_model())
    doc["likelihood"][0][0] = 0.9  # column 0 now sums to 0.9
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    assert main(["validate", str(path)]) == 1
    err = capsys.readouterr().err
    assert "NotStochastic" in err and "column 0" in err


def test_validate_malformed_exit_2(tmp_path, capsys):
    path = tmp_path / "junk.json"
    path.write_text("{ nope", encoding="utf-8")
    assert main(["validate", str(path)]) == 2
    assert "parse failure" in capsys.readouterr().err


def test_validate_missing_file_exit_2(tmp_path):
    assert main(["validate", str(tmp_path / "absent.json")]) == 2


def test_plan_prints_16_sorted_rows(tmaze_path, capsys):
    assert main(["plan", str(tmaze_path)]) == 0
    out = capsys.readouterr().out.strip().splitlines()
    header, rows = out[0], out[1:]
    assert header.startswith("policy,total,risk")
    assert len(rows) == 16
    totals = [float(r.split(",")[1]) for r in rows]
    assert totals == sorted(totals)
    # every printed row satisfies total = risk + ambiguity at printed precision
    for r in rows:
        cells = r.split(",")
        total, risk, ambiguity = float(cells[1]), float(cells[2]), float(cells[3])
        assert abs(total - (risk + ambiguity)) < 1e-9
    # posterior column sums to 1
    probs = [float(r.split(",")[-1]) for r in rows]
    assert abs(sum(probs) - 1.0) < 1e-9


def test_plan_gamma_zero_uniform_posterior(tmaze_path, capsys):
    assert main(["plan", str(tmaze_path), "--gamma", "0"]) == 0
    rows = capsys.readouterr().out.strip().splitlines()[1:]
    probs = [float(r.split(",")[-1]) for r in rows]
    assert np.allclose(probs, 1 / 16, atol=1e-12)


def test_plan_with_history(tmaze_path, capsys):
    assert main(["plan", str(tmaze_path), "--obs", "0,5", "--actions", "3"]) == 0
    rows = capsys.readouterr().out.strip().splitlines()[1:]
    assert len(rows) == 4
    # after the cue the reward arm is the unique minimizer
    assert rows[0].split(",")[0] == "1"


def test_plan_inconsistent_history_exit_1(tmaze_path, capsys):
    assert main(["plan", str(tmaze_path), "--obs", "1"]) == 1
    assert "planning failed" in capsys.readouterr().err


def test_plan_unparseable_history_exit_2(tmaze_path, capsys):
    assert main(["plan", str(tmaze_path), "--obs", "a"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("bad history:") and len(err.splitlines()) == 1


def test_plan_well_formed_impossible_history_exit_1(tmaze_path, capsys):
    # Every index is in range, but going middle (action 0) cannot show a cue.
    assert main(["plan", str(tmaze_path), "--obs", "0,5", "--actions", "0"]) == 1
    assert capsys.readouterr().err.startswith("planning failed:")


def test_plan_mismatched_history_lengths_exit_2(tmaze_path, capsys):
    assert main(["plan", str(tmaze_path), "--obs", "0,5"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("bad history:") and len(err.splitlines()) == 1


@pytest.mark.parametrize(
    "obs, actions", [("0,5", "9"), ("0,7", "3"), ("-1", ""), ("0,5", "-1")]
)
def test_plan_out_of_range_history_index_exit_2(tmaze_path, capsys, obs, actions):
    assert main(["plan", str(tmaze_path), "--obs", obs, "--actions", actions]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("bad history:") and "out of range" in captured.err
    assert len(captured.err.splitlines()) == 1 and captured.out == ""


def test_plan_history_beyond_horizon_exit_2(tmaze_path, capsys):
    # three actions on a horizon-2 model is malformed, not a planning failure
    args = ["plan", str(tmaze_path), "--obs", "0,1,1,1", "--actions", "1,1,1"]
    assert main(args) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("bad history:") and "horizon" in captured.err
    assert len(captured.err.splitlines()) == 1 and captured.out == ""


def test_plan_history_at_horizon_exit_1(tmaze_path, capsys):
    # a complete trial is well formed but leaves no decision to plan
    assert main(["plan", str(tmaze_path), "--obs", "0,1,1", "--actions", "1,1"]) == 1
    assert capsys.readouterr().err.startswith("planning failed:")


def write_tmaze_doc(tmp_path, **changes):
    doc = json.loads(data_path("tmaze.json").read_text(encoding="utf-8"))
    doc.update(changes)
    path = tmp_path / "model.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    return path


@pytest.mark.parametrize(
    "field, value",
    [("n_states", "8"), ("n_obs", 7.0), ("n_actions", True), ("horizon", "x")],
)
def test_validate_non_integer_dimension_exit_2(tmp_path, capsys, field, value):
    assert main(["validate", str(write_tmaze_doc(tmp_path, **{field: value}))]) == 2
    err = capsys.readouterr().err
    assert err.startswith("parse failure:") and field in err
    assert len(err.splitlines()) == 1


@pytest.mark.parametrize(
    "field, value",
    [("obs_labels", 5), ("state_labels", ["a", 1]), ("action_labels", "abcd")],
)
def test_validate_malformed_label_field_exit_2(tmp_path, capsys, field, value):
    assert main(["validate", str(write_tmaze_doc(tmp_path, **{field: value}))]) == 2
    err = capsys.readouterr().err
    assert err.startswith("parse failure:") and field in err
    assert len(err.splitlines()) == 1


@pytest.mark.parametrize("field", ["state_labels", "obs_labels", "action_labels"])
def test_validate_label_table_wrong_length_exit_1(tmp_path, capsys, field):
    path = write_tmaze_doc(tmp_path, **{field: ["a", "b", "c"]})
    assert main(["validate", str(path)]) == 1
    captured = capsys.readouterr()
    assert f"DimensionMismatch in {field}" in captured.err and captured.out == ""


def _bad_likelihood_columns():
    likelihood = json.loads(data_path("tmaze.json").read_text(encoding="utf-8"))["likelihood"]
    likelihood[0][0] = 0.9  # column 0 now sums to 0.9
    likelihood[0][1] = 0.8  # column 1 now sums to 0.8
    return likelihood


@pytest.mark.parametrize("command", ["validate", "plan"])
@pytest.mark.parametrize(
    "changes, expected",
    [
        ({"state_labels": ["a", "b", "c"]}, "1 violation(s): DimensionMismatch in state_labels"),
        ({"likelihood": _bad_likelihood_columns()}, "2 violation(s): NotStochastic"),
    ],
)
def test_validation_report_is_one_line_exit_1(tmp_path, capsys, command, changes, expected):
    assert main([command, str(write_tmaze_doc(tmp_path, **changes))]) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith(expected) and captured.out == ""
    assert len(captured.err.splitlines()) == 1


def test_run_non_numeric_override_exit_1(tmp_path, capsys):
    doc = {
        "environment": {"name": "tmaze", "overrides": {"punishment": "abc"}},
        "agents": ["efe"],
        "n_trials": 2,
        "master_seed": 3,
        "output_dir": str(tmp_path / "out"),
    }
    path = tmp_path / "config.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    assert main(["run", str(path)]) == 1
    err = capsys.readouterr().err
    assert "punishment" in err and len(err.splitlines()) == 1
    assert not (tmp_path / "out" / "trials.csv").exists()


def test_run_writes_files_and_reruns_identically(config_path, tmp_path, capsys):
    assert main(["run", str(config_path)]) == 0
    out_dir = tmp_path / "out"
    first = {
        name: (out_dir / name).read_bytes()
        for name in ("trials.csv", "beliefs.csv", "efe.csv", "summary.json")
    }
    assert main(["run", str(config_path)]) == 0
    for name, blob in first.items():
        assert (out_dir / name).read_bytes() == blob


def test_run_output_dir_flag_and_env(config_path, tmp_path, monkeypatch):
    flag_dir = tmp_path / "flagged"
    assert main(["run", str(config_path), "--output-dir", str(flag_dir)]) == 0
    assert (flag_dir / "summary.json").exists()
    env_dir = tmp_path / "enved"
    monkeypatch.setenv("EFEPLAN_OUTPUT_DIR", str(env_dir))
    assert main(["run", str(config_path)]) == 0
    assert (env_dir / "summary.json").exists()


def test_run_output_dir_under_regular_file_exit_2(config_path, tmp_path, capsys):
    blocker = tmp_path / "plain.txt"
    blocker.write_text("not a directory", encoding="utf-8")
    code = main(["run", str(config_path), "--output-dir", str(blocker / "out")])
    assert code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("cannot create output directory:")
    assert len(captured.err.splitlines()) == 1


def test_run_unwritable_output_file_exit_2(config_path, tmp_path, capsys):
    out = tmp_path / "out"
    (out / "trials.csv").mkdir(parents=True)
    assert main(["run", str(config_path), "--output-dir", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("cannot write outputs:") and len(err.splitlines()) == 1


def test_run_reward_per_obs_wrong_length_exit_2(tmp_path, capsys):
    doc = {
        "environment": {"name": "tmaze"},
        "agents": ["reward"],
        "n_trials": 1,
        "reward_per_obs": [1.0, -1.0],
        "output_dir": str(tmp_path / "o"),
    }
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    assert main(["run", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config failure: reward_per_obs has 2 entries")
    assert main(["trace", str(path), "0"]) == 2


def test_run_bad_config_exit_2(tmp_path, capsys):
    doc = {"environment": {"name": "tmaze"}, "agents": ["efe"], "n_trials": 0}
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    assert main(["run", str(path)]) == 2
    assert "config failure" in capsys.readouterr().err


@pytest.mark.parametrize(
    "field, text",
    [
        ("n_trials", "1e400"),
        ("master_seed", "1e400"),
        ("gamma", "1e400"),
        ("master_seed", "-3"),
        ("n_trials", "2.7"),
    ],
)
def test_run_bad_numeric_config_field_exit_2(tmp_path, capsys, field, text):
    doc = json.loads(data_path("fig2.json").read_text(encoding="utf-8"))
    doc.update(n_trials=2, output_dir=str(tmp_path / "out"))
    doc[field] = "VALUE"
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(doc).replace('"VALUE"', text), encoding="utf-8")
    for argv in (["run", str(path)], ["trace", str(path), "0"]):
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith(f"config failure: {field} must be")
        assert len(captured.err.splitlines()) == 1 and captured.out == ""
    assert not (tmp_path / "out").exists()


def test_run_unknown_environment_exit_1(tmp_path, capsys):
    doc = {
        "environment": {"name": "labyrinth"},
        "agents": ["efe"],
        "n_trials": 1,
        "output_dir": str(tmp_path / "o"),
    }
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    assert main(["run", str(path)]) == 1


def test_trace_prints_beliefs(config_path, capsys):
    assert main(["trace", str(config_path), "2", "--agent", "efe"]) == 0
    out = capsys.readouterr().out
    assert "trial 2 agent efe" in out
    assert "decision_time 0" in out
    assert "post-trial" in out


def test_trace_bad_trial_index_exit_2(config_path, capsys):
    assert main(["trace", str(config_path), "99"]) == 2


def test_unknown_subcommand_is_usage_error():
    with pytest.raises(SystemExit) as exc_info:
        main(["frobnicate"])
    assert exc_info.value.code == 2


def test_bundled_fig2_config_loads():
    cfg = ep.load_config(data_path("fig2.json"))
    assert cfg.n_trials == 50
    assert [a.name for a in cfg.agents] == ["efe", "reward", "info_gain"]
