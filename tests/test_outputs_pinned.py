"""The output bytes of the bundled configs, pinned by their sha256 digests.

A change that moves any byte of the four fig2 output files or of `efeplan
plan` stdout fails here. A change that means to move them updates the digests
and says which lines changed and why.
"""
from __future__ import annotations

import hashlib
import json

import pytest

import efeplan as ep
from efeplan import cli
from efeplan.data import data_path

OUTPUT_FILES = ("trials.csv", "beliefs.csv", "efe.csv", "summary.json")

# master seed -> sha256 of each output file, in OUTPUT_FILES order
FIG2_DIGESTS = {
    0: (
        "46ac429c0331a7cfdc83b46dcf97602ba1f2c0ddff25033dedddbc3557a8c056",
        "900cabb9450a7a2d2c953a8b4e8b6a434b460a6057a251960caa7c8bd81de2ef",
        "9d6bd0e84285a034125e79eed927b082659963881517a5c4a83436deedf74820",
        "3afe5d98e74d3d09a0bcd8ebe81cbebc1670608e88c33dec66949960820296b1",
    ),
    2026: (
        "ddf145c5d105a1ae3f154af8aba690a9c98f0d13dd8691eacaf974c05eeacc1e",
        "436ab4d9378221b1cdc3491f08ceed878e94d1a8e791c1711fdb6c207c6cc1f9",
        "9d6bd0e84285a034125e79eed927b082659963881517a5c4a83436deedf74820",
        "6829dbd32903ecd5d7fbd806e369b66c74633f126d22a7ad18148c1516cec145",
    ),
}

# `efeplan plan src/efeplan/data/tmaze.json`: the t = 0 policy table
PLAN_DIGEST = "bbf8ae4c90eb2e3554c3936085a35a281c2d7a50489b219c2ca2ee5bd07decd5"


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


@pytest.mark.parametrize("master_seed", sorted(FIG2_DIGESTS))
def test_fig2_output_files_are_pinned(tmp_path, master_seed):
    doc = json.loads(data_path("fig2.json").read_text(encoding="utf-8"))
    doc["master_seed"] = master_seed
    config = ep.config_from_dict(doc)
    ep.write_outputs(ep.run_experiment(config), tmp_path)
    got = {name: sha256((tmp_path / name).read_bytes()) for name in OUTPUT_FILES}
    assert got == dict(zip(OUTPUT_FILES, FIG2_DIGESTS[master_seed]))


def test_plan_stdout_is_pinned(capsys):
    assert cli.main(["plan", str(data_path("tmaze.json"))]) == 0
    captured = capsys.readouterr()
    assert captured.err == ""
    assert sha256(captured.out.encode("utf-8")) == PLAN_DIGEST
