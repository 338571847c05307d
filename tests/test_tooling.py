"""Project tooling: the benchmark's tracer binds library names, so a rename
must fail here; each module exports exactly what it defines; the package
metadata names the package's version; and README's command lines parse."""

import importlib
import inspect
import types
from pathlib import Path

import pytest

import chimaxwell
from chimaxwell import cli


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


def readme_command_lines():
    """Every `chimaxwell ...` line of the bash block under README's
    "Command line", as argv; an optional `[--format csv]` gives two."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = readme.split("## Command line", 1)[1].split("```bash", 1)[1].split("```", 1)[0]
    argvs = []
    for line in block.splitlines():
        if line.startswith("chimaxwell "):
            argvs.append(line.replace(" [--format csv]", "").split()[1:])
            if "[--format csv]" in line:
                argvs.append(line.replace("[--format csv]", "--format csv").split()[1:])
    return argvs


def test_readme_command_lines_parse():
    argvs = readme_command_lines()
    assert {argv[0] for argv in argvs} == {"verify", "polarization-table", "massless-scan",
                                          "planewave", "simulate"}
    parser = cli._build_parser()
    for argv in argvs:
        parser.parse_args(argv)  # a usage error exits 2 and fails here
