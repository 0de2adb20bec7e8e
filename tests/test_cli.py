"""CLI subcommands, exit codes, and output-file contracts."""
from __future__ import annotations

import json
import os
import resource
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import efeplan as ep
from efeplan.cli import main
from efeplan.data import data_path


def tmaze_doc() -> dict:
    """The bundled T-maze model document, freshly parsed."""
    return json.loads(data_path("tmaze.json").read_text(encoding="utf-8"))


@pytest.fixture
def tmaze_path():
    return data_path("tmaze.json")


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
    doc = tmaze_doc()
    doc["likelihood"][0][0] = 0.9  # column 0 now sums to 0.9
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    assert main(["validate", str(path)]) == 1
    err = capsys.readouterr().err
    assert "NotStochastic" in err and "column 0" in err


def test_validate_near_stochastic_column_exit_1(tmp_path, capsys):
    doc = tmaze_doc()
    doc["likelihood"] = (np.array(doc["likelihood"]) * (1 + 5e-10)).tolist()
    path = tmp_path / "loose.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    assert main(["validate", str(path)]) == 1
    err = capsys.readouterr().err
    assert "NotStochastic" in err and len(err.splitlines()) == 1


def test_validate_malformed_exit_2(tmp_path, capsys):
    path = tmp_path / "junk.json"
    path.write_text("{ nope", encoding="utf-8")
    assert main(["validate", str(path)]) == 2
    assert "parse failure" in capsys.readouterr().err


@pytest.mark.parametrize(
    "document",
    [b'\xff\xfe\x00{"a":1}', b"[" * 100_000 + b"]" * 100_000],
    ids=["not-utf8", "nested-100000-deep"],
)
@pytest.mark.parametrize(
    "argv", [["validate"], ["plan"], ["run"], ["trace", "0"]], ids=lambda argv: argv[0]
)
def test_undecodable_document_exit_2_one_line(tmp_path, capsys, document, argv):
    # bytes that are not UTF-8, and nesting past the JSON decoder's recursion
    # limit, are malformed documents like any other
    path = tmp_path / "doc.json"
    path.write_bytes(document)
    assert main([argv[0], str(path), *argv[1:]]) == 2
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1 and "Traceback" not in err
    assert err.startswith(("parse failure: malformed", "config failure: malformed"))


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


def test_plan_builds_each_row_once(tmaze_path, capsys, monkeypatch):
    built = []
    breakdown = ep.planning._breakdown

    def counted(*sums):
        built.append(sums)
        return breakdown(*sums)

    monkeypatch.setattr(ep.planning, "_breakdown", counted)
    assert main(["plan", str(tmaze_path)]) == 0
    assert len(capsys.readouterr().out.splitlines()) == 17
    assert len(built) == 16


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


@pytest.mark.parametrize(
    "gamma, code, prefix",
    [
        ("nan", 2, "bad gamma: nan is not a finite number >= 0"),
        ("-1", 2, "bad gamma: -1.0 is not a finite number >= 0"),
        ("inf", 2, "bad gamma: inf is not a finite number >= 0"),
        ("1e308", 1, "planning failed: gamma 1e+308 times the policy score"),
    ],
)
def test_plan_bad_gamma_one_line(tmaze_path, capsys, gamma, code, prefix):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["plan", str(tmaze_path), "--gamma", gamma]) == code
    captured = capsys.readouterr()
    assert captured.err.startswith(prefix) and captured.out == ""
    assert len(captured.err.splitlines()) == 1


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
    doc = tmaze_doc()
    doc.update(changes)
    path = tmp_path / "model.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    return path


def test_plan_policy_cap_message_omits_the_count(tmp_path, capsys):
    # 4^1000000 has 602,060 digits, past the limit of int-to-str conversion
    path = write_tmaze_doc(tmp_path, horizon=1_000_000)
    assert main(["validate", str(path)]) == 0  # the cap limits planning, not models
    assert main(["plan", str(path)]) == 1
    captured = capsys.readouterr()
    assert captured.out == "Ok\n"
    assert captured.err == (
        "planning failed: 4 actions over 1000000 steps exceed the cap of 1000000 policies\n"
    )


def test_plan_one_action_beyond_the_cap_exit_1(tmp_path, capsys):
    doc = tmaze_doc()
    doc.pop("action_labels", None)
    doc.update(n_actions=1, transitions=doc["transitions"][:1], horizon=10**30)
    path = tmp_path / "model.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    assert main(["plan", str(path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("planning failed: 1 actions over") and "cap" in err
    assert len(err.splitlines()) == 1


def tmaze_pref(magnitude: float) -> list[float]:
    """The T-maze observation preferences with reward and punishment at ±magnitude."""
    return [0.0, magnitude, -magnitude, magnitude, -magnitude, 0.0, 0.0]


@pytest.mark.parametrize("magnitude", [800.0, 1e300])
def test_plan_no_finite_policy_score_exit_1(tmp_path, capsys, magnitude):
    # every state but the two rewarding ones has preference 0, so every risk is inf
    path = write_tmaze_doc(tmp_path, obs_log_pref=tmaze_pref(magnitude))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["plan", str(path)]) == 1
    captured = capsys.readouterr()
    assert captured.err == "planning failed: no policy has a finite score\n"
    assert captured.out == ""


def test_plan_gamma_zero_gives_minus_inf_scores_no_weight(tmp_path, capsys):
    # at ±400, 12 of the 16 policy scores are -inf; gamma 0 must not turn them into nan
    path = write_tmaze_doc(tmp_path, obs_log_pref=tmaze_pref(400.0))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["plan", str(path), "--gamma", "0"]) == 0
    rows = [r.split(",") for r in capsys.readouterr().out.strip().splitlines()[1:]]
    assert [row[0] for row in rows if row[1] != "inf"] == ["0-0", "0-3", "3-0", "3-3"]
    assert [float(row[-1]) for row in rows] == [0.25] * 4 + [0.0] * 12


def _limit_address_space():
    limit = 1 << 30
    resource.setrlimit(resource.RLIMIT_AS, (limit, limit))


def child_env() -> dict:
    """The environment of a child `python -m efeplan.cli`: this checkout's
    package first on the path, and one BLAS thread."""
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1")
    src = str(Path(ep.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return env


def test_plan_astronomical_horizon_exit_1_in_bounded_memory(tmp_path):
    # Building 4^(10^30) grows without bound, so the command runs in a child
    # whose address space alone is capped: a regression fails this test by
    # MemoryError or timeout instead of exhausting the host.
    path = write_tmaze_doc(tmp_path, horizon=10**30)
    env = child_env()
    results = {}
    for command in ("validate", "plan"):
        results[command] = subprocess.run(
            [sys.executable, "-m", "efeplan.cli", command, str(path)],
            env=env,
            capture_output=True,
            text=True,
            timeout=60,
            preexec_fn=_limit_address_space,
        )
    assert results["validate"].returncode == 0 and results["validate"].stdout == "Ok\n"
    plan = results["plan"]
    assert plan.returncode == 1 and plan.stdout == ""
    assert plan.stderr == (
        f"planning failed: 4 actions over {10**30} steps exceed the cap of 1000000 policies\n"
    )


def test_plan_into_a_closed_pipe_exits_1_without_traceback(tmaze_path):
    # the read end is closed before the child starts, so its first write to
    # stdout fails on every run
    env = child_env()
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        child = subprocess.run(
            [sys.executable, "-m", "efeplan.cli", "plan", str(tmaze_path)],
            env=env,
            stdout=write_end,
            stderr=subprocess.PIPE,
            text=True,
            timeout=60,
        )
    finally:
        os.close(write_end)
    assert child.returncode == 1
    assert child.stderr == "output closed early: broken pipe\n"


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
    likelihood = tmaze_doc()["likelihood"]
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


def _with_huge_entry(field):
    """The T-maze's `field` tensor with its first entry set to 10**400."""
    tensor = tmaze_doc()[field]
    row = tensor
    while isinstance(row[0], list):
        row = row[0]
    row[0] = 10**400
    return tensor


@pytest.mark.parametrize("command", ["validate", "plan"])
@pytest.mark.parametrize(
    "field", ["likelihood", "transitions", "initial_belief", "obs_log_pref"]
)
def test_tensor_entry_too_large_for_a_float_exit_2(tmp_path, capsys, command, field):
    path = write_tmaze_doc(tmp_path, **{field: _with_huge_entry(field)})
    assert main([command, str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("parse failure:") and captured.out == ""
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


@pytest.mark.parametrize("argv", [["run"], ["trace", "0"]], ids=lambda argv: argv[0])
@pytest.mark.parametrize("value", [10**400, -(10**400)], ids=["10**400", "-10**400"])
def test_override_too_large_for_a_float_exit_1(tmp_path, capsys, argv, value):
    doc = {
        "environment": {"name": "tmaze", "overrides": {"reward_log_pref": value}},
        "agents": ["efe"],
        "n_trials": 2,
        "master_seed": 3,
        "output_dir": str(tmp_path / "out"),
    }
    path = tmp_path / "config.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    assert main([argv[0], str(path), *argv[1:]]) == 1
    captured = capsys.readouterr()
    assert "reward_log_pref" in captured.err and len(captured.err.splitlines()) == 1
    assert captured.out == "" and not (tmp_path / "out" / "trials.csv").exists()


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


def write_config(tmp_path, **changes):
    doc = {
        "environment": {"name": "tmaze"},
        "agents": ["efe"],
        "n_trials": 1,
        "output_dir": str(tmp_path / "out"),
    }
    doc.update(changes)
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    return path


def assert_config_failure(path, capsys, expected):
    for argv in (["run", str(path)], ["trace", str(path), "0"]):
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith(f"config failure: {expected}")
        assert len(captured.err.splitlines()) == 1 and captured.out == ""


@pytest.mark.parametrize("value", [True, 0, 1e308, [], {}])
def test_run_non_string_output_dir_exit_2(tmp_path, capsys, monkeypatch, value):
    monkeypatch.delenv("EFEPLAN_OUTPUT_DIR", raising=False)
    path = write_config(tmp_path, output_dir=value)
    assert_config_failure(path, capsys, "output_dir must be a string")


def test_run_empty_output_dir_exit_2(tmp_path, capsys, monkeypatch):
    # Path("") is the working directory, which a config cannot mean to name
    monkeypatch.delenv("EFEPLAN_OUTPUT_DIR", raising=False)
    monkeypatch.chdir(tmp_path)
    path = write_config(tmp_path, output_dir="")
    assert_config_failure(path, capsys, "output_dir must not be empty")
    assert sorted(p.name for p in tmp_path.iterdir()) == ["cfg.json"]


# one bad entry among the T-maze's seven observations, or no list at all
BAD_REWARD_ENTRIES = ('"inf"', '"1.5"', "NaN", "Infinity", "-Infinity", "true", "null", "1e400")
BAD_REWARDS = [f"[1, 2, 3, 4, 5, 6, {entry}]" for entry in BAD_REWARD_ENTRIES + ("[1]",)]


@pytest.mark.parametrize("text", BAD_REWARDS + ["5", '"1234567"', '{"a": 1}'])
def test_run_non_finite_reward_per_obs_exit_2(tmp_path, capsys, text):
    path = write_config(tmp_path, agents=["reward"], reward_per_obs="X")
    path.write_text(path.read_text(encoding="utf-8").replace('"X"', text), encoding="utf-8")
    assert_config_failure(path, capsys, "reward_per_obs must list finite numbers")
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("value", [[1], "punishment", 3, None])
def test_run_non_object_overrides_exit_2(tmp_path, capsys, value):
    path = write_config(tmp_path, environment={"name": "tmaze", "overrides": value})
    assert_config_failure(path, capsys, "environment overrides must be an object")
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("value", [[1], {"reward": "argmax"}, {}])
def test_run_top_level_selection_key_exit_2(tmp_path, capsys, value):
    # selection is set per agent; the old top-level map is refused, not ignored
    path = write_config(tmp_path, agents=["reward"], selection=value)
    assert_config_failure(
        path,
        capsys,
        'a top-level "selection" key is not supported; '
        'set it per agent as {"kind": ..., "selection": ...}',
    )


def test_run_overflowing_gamma_exit_1(tmp_path, capsys):
    doc = json.loads(data_path("fig2.json").read_text(encoding="utf-8"))
    doc.update(n_trials=2, gamma=1e308, output_dir=str(tmp_path / "out"))
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["run", str(path)]) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith("runtime failure: trial 0, agent 'efe': gamma 1e+308")
    assert "overflows" in captured.err and len(captured.err.splitlines()) == 1
    assert captured.out == ""


def test_run_no_finite_policy_score_exit_1(tmp_path, capsys):
    doc = json.loads(data_path("fig2.json").read_text(encoding="utf-8"))
    overrides = {"reward_log_pref": 800.0, "punish_log_pref": -800.0}
    doc.update(n_trials=2, output_dir=str(tmp_path / "out"))
    doc["environment"]["overrides"] = overrides
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["run", str(path)]) == 1
    captured = capsys.readouterr()
    assert captured.err == "runtime failure: trial 0, agent 'efe': no policy has a finite score\n"
    assert captured.out == ""


def test_run_repeated_agent_kind_exit_2(tmp_path, capsys):
    doc = {
        "environment": {"name": "tmaze"},
        "agents": [
            {"kind": "efe", "selection": "argmax"},
            {"kind": "efe", "selection": "sample"},
        ],
        "n_trials": 3,
        "output_dir": str(tmp_path / "out"),
    }
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    assert main(["run", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.err == "config failure: agent kind listed more than once: efe\n"
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


@pytest.mark.parametrize(
    "argv",
    [
        [],
        ["frobnicate"],
        ["plan"],
        ["plan", "model.json", "--gamma", "abc"],
        ["plan", "model.json", "--obs"],
        ["run", "config.json", "--bogus"],
        ["trace", "config.json", "first"],
        ["validate", "model.json", "two\nlines"],
    ],
    ids=[
        "no-command",
        "unknown-command",
        "no-model",
        "bad-gamma",
        "obs-without-value",
        "unknown-flag",
        "bad-trial",
        "extra-argument-with-line-break",
    ],
)
def test_usage_error_prints_one_line(capsys, argv):
    with pytest.raises(SystemExit) as exc_info:
        main(argv)
    assert exc_info.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.startswith("efeplan")
    assert ": error: " in captured.err and len(captured.err.splitlines()) == 1


def test_bundled_fig2_config_loads():
    cfg = ep.load_config(data_path("fig2.json"))
    assert cfg.n_trials == 50
    assert [a.name for a in cfg.agents] == ["efe", "reward", "info_gain"]
