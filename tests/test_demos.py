import os
import subprocess
import sys
from pathlib import Path

import pytest

import scatreg

SRC = Path(scatreg.__file__).resolve().parents[1]
DEMOS = sorted((SRC.parent / "demos").glob("*.py"))


def test_demos_are_found():
    assert DEMOS


@pytest.mark.parametrize("demo", DEMOS, ids=lambda path: path.stem)
def test_demo_runs_cleanly(demo):
    run = subprocess.run(
        [sys.executable, "-W", "error::RuntimeWarning", str(demo)],
        env={**os.environ, "PYTHONPATH": str(SRC)},
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert run.returncode == 0, run.stderr
    assert "Traceback" not in run.stdout + run.stderr
