"""The benchmark's tracer binds library names; a rename must fail here."""

import types
from pathlib import Path


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
