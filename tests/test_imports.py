"""The package imports only what pyproject.toml declares."""
from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import efeplan


def test_importing_efeplan_does_not_import_scipy():
    # pyproject.toml declares only numpy, and importing scipy.special alone
    # costs a quarter of a second of start-up for every `efeplan` command.
    src = str(Path(efeplan.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    code = (
        "import sys, efeplan, efeplan.cli\n"
        "loaded = sorted(m for m in sys.modules if m.split('.')[0] == 'scipy')\n"
        "print(','.join(loaded))\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=60
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == ""
