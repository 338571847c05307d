"""Spans at module boundaries, recorded from the benchmark's own code.

The tracer never edits the library.  It swaps a caller's binding for a
wrapping proxy -- a module reference such as `verify.sa`, or a name taken
with `from ... import` such as `planewaves.spin_dot_p` -- so a span covers
exactly one call that crosses from one module into another.  Wrapping every
function instead (345 681 `levi_civita` calls per verify op) was measured to
push a verify op from ~1.2 s to 1.75 s.

A span is (name, start, end, parent, op): `name` is `<module>.<function>`,
`parent` the index of the enclosing span or -1, `op` the operation's index.
Spans stay in memory until `write` at the end of the run.
"""

from __future__ import annotations

import functools
import gzip
import inspect
import time
from collections import Counter
from pathlib import Path

import chimaxwell.chi_solver
import chimaxwell.cli
import chimaxwell.planewaves
import chimaxwell.spin_algebra
import chimaxwell.verify

_MARK = "__perfbench_wrapped__"

# Calls that chi_solver.run makes inside its own module, each a layer the
# per-layer metrics name.
CHI_SOLVER_SPANS = ("init_state", "diagnostics", "save_snapshot",
                    "write_diagnostics_csv")


class Tracer:
    def __init__(self):
        self.spans: list[tuple | None] = []
        self.counts: Counter = Counter()
        self.op = -1
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []

    def span(self, name: str, fn):
        """fn wrapped so that every call records one span."""
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = stack[-1] if stack else -1
            index = len(spans)
            spans.append(None)
            stack.append(index)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[index] = (name, start, end, parent, self.op)

        setattr(wrapper, _MARK, True)
        return wrapper

    def counter(self, name: str, fn):
        """fn wrapped so that every call adds one to counts[name]; no span."""
        counts = self.counts

        @functools.wraps(fn, updated=())
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        setattr(wrapper, _MARK, True)
        return wrapper

    def patch(self, owner, attr: str, value) -> None:
        self._saved.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def restore(self) -> None:
        while self._saved:
            owner, attr, value = self._saved.pop()
            setattr(owner, attr, value)

    def write(self, path: Path) -> None:
        """Spans as gzipped CSV: name,start_ns,end_ns,parent,op."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with gzip.open(path, "wt") as fh:
            fh.write("name,start_ns,end_ns,parent,op\n")
            for name, start, end, parent, op in self.spans:
                fh.write(f"{name},{int(start * 1e9)},{int(end * 1e9)},{parent},{op}\n")


class ModuleProxy:
    """Stands in for a module reference: plain functions come back wrapped
    in a span named `<layer>.<function>`; classes and constants pass
    through unchanged, so isinstance checks and data access are untouched."""

    def __init__(self, tracer: Tracer, module, layer: str):
        self._tracer = tracer
        self._module = module
        self._layer = layer
        self._wrapped: dict[str, object] = {}

    def __getattr__(self, attr: str):
        value = getattr(self._module, attr)
        if not inspect.isfunction(value) or getattr(value, _MARK, False):
            return value
        wrapped = self._wrapped.get(attr)
        if wrapped is None or wrapped.__wrapped__ is not value:
            wrapped = self._tracer.span(f"{self._layer}.{attr}", value)
            self._wrapped[attr] = wrapped
        return wrapped


def _layer(module) -> str:
    return module.__name__.rsplit(".", 1)[-1]


def binding_points(workload) -> list[tuple[object, str]]:
    """Every (owner, attribute) the tracer swaps, for the restore check."""
    cs, sa = chimaxwell.chi_solver, chimaxwell.spin_algebra
    points = [(chimaxwell.verify, "sa"), (chimaxwell.verify, "pw"),
              (chimaxwell.verify, "pol"), (chimaxwell.cli, "chi_solver"),
              (chimaxwell.planewaves, "spin_dot_p"), (cs, "helicity_eigenvector"),
              (sa, "build_spin_matrices"), (cs, "SpectralSpace")]
    points += [(cs, name) for name in CHI_SOLVER_SPANS]
    points += [(workload, attr) for attr in ("chi_solver", "cli", "verify")
               if hasattr(workload, attr)]
    return points


def install(tracer: Tracer, workload) -> None:
    """Swap every binding in binding_points; tracer.restore() undoes it."""
    cs, sa, pw = chimaxwell.chi_solver, chimaxwell.spin_algebra, chimaxwell.planewaves
    vf, cli = chimaxwell.verify, chimaxwell.cli
    # Counters first, so the span proxies below wrap the counting versions.
    tracer.patch(sa, "build_spin_matrices",
                 tracer.counter("spin_algebra.build_spin_matrices", sa.build_spin_matrices))
    tracer.patch(cs, "SpectralSpace",
                 tracer.counter("chi_solver.SpectralSpace", cs.SpectralSpace))
    for name in CHI_SOLVER_SPANS:
        tracer.patch(cs, name, tracer.span(f"chi_solver.{name}", getattr(cs, name)))
    tracer.patch(pw, "spin_dot_p", tracer.span("spin_algebra.spin_dot_p", pw.spin_dot_p))
    tracer.patch(cs, "helicity_eigenvector",
                 tracer.span("planewaves.helicity_eigenvector", cs.helicity_eigenvector))
    for attr in ("sa", "pw", "pol"):
        module = getattr(vf, attr)
        tracer.patch(vf, attr, ModuleProxy(tracer, module, _layer(module)))
    tracer.patch(cli, "chi_solver", ModuleProxy(tracer, cs, "chi_solver"))
    # The benchmark's own calls into the library, the root span of each op.
    for attr in ("chi_solver", "cli", "verify"):
        module = getattr(workload, attr, None)
        if module is not None:
            tracer.patch(workload, attr, ModuleProxy(tracer, module, _layer(module)))


def op_layers(tracer: Tracer, lo: int, hi: int) -> dict[str, float]:
    """Totals over spans[lo:hi] (one op): '<span>.calls', '<span>.s',
    '<span>.self_s', '<layer>.calls' and '<layer>.self_s'.  Self time is
    span time minus the time of its direct children."""
    spans = tracer.spans
    child_time = Counter()
    for name, start, end, parent, _ in spans[lo:hi]:
        if parent >= 0:
            child_time[parent] += end - start
    out: Counter = Counter()
    for i in range(lo, hi):
        name, start, end, _, _ = spans[i]
        layer = name.split(".", 1)[0]
        self_s = end - start - child_time[i]
        out[f"{name}.calls"] += 1
        out[f"{name}.s"] += end - start
        out[f"{name}.self_s"] += self_s
        out[f"{layer}.calls"] += 1
        out[f"{layer}.self_s"] += self_s
    return dict(out)
