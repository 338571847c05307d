"""Every demo runs to completion and prints its results."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
DEMOS = sorted((ROOT / "demos").glob("*.py"))
# A None entry in sys.modules makes `import matplotlib` raise ImportError,
# so each demo takes its text-only path whether or not matplotlib is installed.
RUNNER = ("import runpy, sys; sys.modules['matplotlib'] = None; "
          "runpy.run_path(sys.argv[1], run_name='__main__')")


def test_demos_found():
    assert DEMOS  # an empty glob would parametrize no test at all


@pytest.mark.parametrize("demo", DEMOS, ids=lambda path: path.stem)
def test_demo_runs(demo, tmp_path):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run([sys.executable, "-c", RUNNER, str(demo)], cwd=tmp_path,
                          env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip()
    assert list(tmp_path.iterdir()) == []  # no plot without matplotlib
