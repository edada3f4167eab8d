"""Each demo script runs to completion against the current package."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parent.parent
DEMOS = sorted((REPO / "demos").glob("*.py"))


@pytest.mark.parametrize("demo", DEMOS, ids=[d.stem for d in DEMOS])
def test_demo_exits_0(demo, tmp_path):
    env = dict(os.environ, TMPDIR=str(tmp_path),
               PYTHONPATH=os.pathsep.join(
                   filter(None, [str(REPO / "src"),
                                 os.environ.get("PYTHONPATH")])))
    done = subprocess.run([sys.executable, str(demo)], cwd=tmp_path,
                          env=env, capture_output=True, text=True,
                          timeout=120)
    assert done.returncode == 0, done.stderr[-2000:]
