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


# A stand-in matplotlib: use() and every method of the figure and axes that
# pyplot.subplots returns do nothing, so a demo's plot code runs to the end
# and writes no file.
STUB = {
    "__init__.py": "def use(*args, **kwargs):\n    pass\n",
    "pyplot.py": (
        "class _NoOp:\n"
        "    def __getattr__(self, name):\n"
        "        return lambda *args, **kwargs: None\n"
        "\n"
        "\n"
        "def subplots(nrows=1, ncols=1, **kwargs):\n"
        "    axes = tuple(_NoOp() for _ in range(nrows * ncols))\n"
        "    return _NoOp(), axes if len(axes) > 1 else axes[0]\n"
    ),
}
PLOTTING = [demo for demo in DEMOS if "import matplotlib" in demo.read_text()]


def test_plotting_demos_found():
    assert len(PLOTTING) >= 2


@pytest.mark.parametrize("demo", PLOTTING, ids=lambda path: path.stem)
def test_demo_plot_code_runs(demo, tmp_path):
    stub, run = tmp_path / "stub" / "matplotlib", tmp_path / "run"
    stub.mkdir(parents=True)
    run.mkdir()
    for name, text in STUB.items():
        (stub / name).write_text(text)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(stub.parent), str(ROOT / "src")]))
    proc = subprocess.run([sys.executable, str(demo)], cwd=run, env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert "\nsaved " in proc.stdout  # the plot branch ran to its last line
    assert list(run.iterdir()) == []
