"""Project tooling: the benchmark's tracer binds library names, so a rename
must fail here; each module exports exactly what it defines; and the package
metadata names the package's version."""

import importlib
import inspect
import types
from pathlib import Path

import pytest

import chimaxwell


def test_perfbench_binding_points_exist():
    # perfbench/ is no package: run spans.py as a module, writing no bytecode there
    path = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"
    spans = types.ModuleType("perfbench_spans")
    exec(compile(path.read_text(), str(path), "exec"), spans.__dict__)
    points = spans.binding_points(object())
    assert points
    missing = [f"{getattr(owner, '__name__', owner)}.{attr}" for owner, attr in points
               if not hasattr(owner, attr)]
    assert missing == []


@pytest.mark.parametrize("name", ["spin_algebra", "planewaves", "polarization",
                                  "chi_solver", "verify", "cli"])
def test_all_lists_the_public_functions_and_classes(name):
    module = importlib.import_module(f"chimaxwell.{name}")
    assert all(hasattr(module, export) for export in module.__all__)
    is_def = lambda value: inspect.isfunction(value) or inspect.isclass(value)
    defined = {attr for attr, value in vars(module).items() if not attr.startswith("_")
               and is_def(value) and value.__module__ == module.__name__}
    assert {export for export in module.__all__ if is_def(getattr(module, export))} == defined


def test_pyproject_version_is_the_package_version():
    tomllib = pytest.importorskip("tomllib")  # Python 3.11+
    with open(Path(__file__).resolve().parents[1] / "pyproject.toml", "rb") as f:
        project = tomllib.load(f)["project"]
    assert project["version"] == chimaxwell.__version__
