"""The CLI contract under fuzzed input (hypothesis; MacIver et al., JOSS 2019).

Three input surfaces: the bundled `tmaze.json` with one field or nested
element replaced or deleted (through `validate` and `plan`), the bundled
`fig2.json` with one field replaced or deleted (through `run`), and the
`plan` flags `--obs`, `--actions` and `--gamma`. Each example calls
`cli.main` in-process. The contract: the exit code is 0, 1 or 2, and a
failure prints one stderr line and no traceback.

The properties run in one child process whose address space is capped, so an
input that makes the CLI grow without bound fails the test instead of
exhausting the host. Valid input can still be arbitrarily expensive, so the
strategies draw sizes (`n_trials`, `horizon`) only from small values, apart
from counts far past every cap.
"""
from __future__ import annotations

import contextlib
import io
import json
import os
import resource
import subprocess
import sys
import traceback
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

import efeplan
from efeplan import cli
from efeplan.data import data_path

from test_cli import tmaze_doc

ADDRESS_SPACE = 1 << 30
TESTS_DIR = Path(__file__).resolve().parent
SRC_DIR = Path(efeplan.__file__).resolve().parents[1]

# Small counts keep every valid document cheap to plan and run; 10**30 and
# 2**63 lie past every cap and every fixed-width integer.
INTEGERS = st.sampled_from([-1, 0, 1, 2, 3, 10**30, 2**63])
# Text comes from a fixed alphabet: digits, signs and exponents that parse as
# numbers, the names the documents use, and characters that break lines or
# quoting. (Arbitrary unicode text would make hypothesis build its character
# table, which takes seconds when the table is not cached yet.)
ALPHABET = "0123456789-+.,eExX_ abcnrtfuidgmoyw\n\t\"'\\\x00\u00e9\u2028"
TEXT = st.text(ALPHABET, max_size=6)
SCALARS = st.one_of(
    st.none(),
    st.booleans(),
    INTEGERS,
    st.floats(allow_nan=True, allow_infinity=True),
    TEXT,
)
JSON_VALUES = st.recursive(
    SCALARS,
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(TEXT, inner, max_size=3),
    max_leaves=6,
)


def paths(value, prefix=()):
    """Every key path into a JSON value, containers before their elements."""
    if isinstance(value, (dict, list)):
        for key, item in value.items() if isinstance(value, dict) else enumerate(value):
            yield prefix + (key,)
            yield from paths(item, prefix + (key,))


@st.composite
def mutated(draw, doc):
    """doc with one field or nested element replaced by a JSON value, or deleted.

    The top-level field is drawn first, so a field holding a large matrix is
    mutated no more often than a scalar one.
    """
    doc = json.loads(json.dumps(doc))
    field = draw(st.sampled_from(sorted(doc)))
    path = draw(st.sampled_from([(field,), *paths(doc[field], (field,))]))
    parent = doc
    for key in path[:-1]:
        parent = parent[key]
    if draw(st.booleans()):
        del parent[path[-1]]
    else:
        parent[path[-1]] = draw(JSON_VALUES)
    return doc


def fig2_doc() -> dict:
    """The bundled fig2 config cut to 2 trials per agent, so a valid run is quick."""
    doc = json.loads(data_path("fig2.json").read_text(encoding="utf-8"))
    doc["n_trials"] = 2
    return doc


def call_main(argv: list[str]) -> tuple[int, str]:
    """cli.main in-process: its exit code and stderr, SystemExit included."""
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code
        except Exception:  # the contract forbids any escaping exception
            code = traceback.format_exc()
    return code, err.getvalue()


def assert_contract(argv: list[str]) -> None:
    code, err = call_main(argv)
    assert code in (0, 1, 2), (argv, code, err)
    assert "Traceback" not in err, (argv, err)
    if code != 0:
        assert len(err.splitlines()) == 1, (argv, code, err)


@settings(max_examples=60)
@given(doc=mutated(tmaze_doc()))
def check_model_documents(workdir: Path, doc) -> None:
    path = workdir / "model.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    assert_contract(["validate", str(path)])
    assert_contract(["plan", str(path)])


@settings(max_examples=40)
@given(doc=mutated(fig2_doc()))
def check_config_documents(workdir: Path, doc) -> None:
    path = workdir / "config.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    argv = ["run", str(path)]
    if isinstance(doc.get("output_dir"), str):
        # the flag keeps every write under workdir; any other output_dir value
        # must fail the config check
        argv += ["--output-dir", str(workdir / "out")]
    assert_contract(argv)


INDEX_LISTS = st.lists(INTEGERS.map(str) | st.text("0123456789-+ ", max_size=3), max_size=4)
FLAG_TEXT = INDEX_LISTS.map(",".join) | TEXT
# (--obs, --actions) pairs: T-maze histories that plan, and arbitrary text
HISTORIES = st.sampled_from([("0", ""), ("0,5", "3"), ("0,1", "1"), ("0,2", "2")]) | st.tuples(
    FLAG_TEXT, FLAG_TEXT
)
GAMMAS = (
    st.floats(allow_nan=True, allow_infinity=True).map(repr)
    | st.sampled_from(["1", "0", "1e400", "-0", "0x10", "1_0", " 2 "])
    | TEXT
)


@settings(max_examples=60)
@given(history=HISTORIES, gamma=GAMMAS)
def check_plan_flags(workdir: Path, history: tuple[str, str], gamma: str) -> None:
    obs, actions = history
    model = str(data_path("tmaze.json"))
    # the --flag=value form passes values that begin with "-" as values
    assert_contract(["plan", model, f"--obs={obs}", f"--actions={actions}", f"--gamma={gamma}"])


def check_cli_contract(workdir: Path) -> None:
    check_model_documents(workdir)
    check_config_documents(workdir)
    check_plan_flags(workdir)


def _limit_address_space():
    resource.setrlimit(resource.RLIMIT_AS, (ADDRESS_SPACE, ADDRESS_SPACE))


def test_cli_contract_holds_on_fuzzed_input(tmp_path):
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1")
    env.pop("EFEPLAN_OUTPUT_DIR", None)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(SRC_DIR), str(TESTS_DIR), env.get("PYTHONPATH")])
    )
    # hypothesis caches what it reads from the source where this process
    # keeps it, not in the child's fresh working directory
    env.setdefault("HYPOTHESIS_STORAGE_DIRECTORY", str(Path.cwd() / ".hypothesis"))
    # conftest registers and loads the suite's hypothesis profile
    script = (
        "import sys, pathlib, conftest, test_cli_fuzz; "
        "test_cli_fuzz.check_cli_contract(pathlib.Path(sys.argv[1]))"
    )
    child = subprocess.run(
        [sys.executable, "-c", script, str(tmp_path)],
        cwd=tmp_path,
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
        preexec_fn=_limit_address_space,
    )
    assert child.returncode == 0, child.stderr[-4000:]
