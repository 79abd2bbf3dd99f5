"""Each demo runs to completion in a fresh interpreter."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import slw

ROOT = Path(__file__).resolve().parent.parent
SRC = str(Path(slw.__file__).resolve().parent.parent)
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def test_all_five_demos_are_found():
    assert len(DEMOS) == 5


@pytest.mark.parametrize("demo", DEMOS, ids=[d.stem for d in DEMOS])
def test_demo_runs(demo, tmp_path):
    env = dict(os.environ, PYTHONPATH=SRC)
    result = subprocess.run([sys.executable, str(demo)], cwd=tmp_path, env=env,
                            capture_output=True, timeout=120)
    stderr = result.stderr.decode()
    assert result.returncode == 0, stderr
    assert "Traceback" not in stderr
