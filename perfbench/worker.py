"""One measuring process: set up one workload, run its ops, print JSON.

    python3 perfbench/worker.py --workload NAME --seed N --seconds S
                                [--trace 0|1] [--setup-only]

run.py starts this once per sample so that set-up, the cold op and peak RSS
belong to a fresh process that runs one workload only.  The process times
`import chimaxwell` plus building the workload's inputs (set-up), then runs
ops one at a time, closed loop, until the next op would end after S seconds
(at least two ops: the cold one and one warm one; three when traced).  The
last line of its standard output is a JSON object with the samples.
"""

from __future__ import annotations

import argparse
import json
import resource
import shutil
import statistics
import sys
import tempfile
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SCRATCH = ROOT / ".perfbench_tmp"
SPANS_DIR = ROOT / ".perfbench_out"


def import_library():
    """Import chimaxwell from this checkout's src/, never from elsewhere."""
    sys.path.insert(0, str(SRC))
    import chimaxwell

    if Path(chimaxwell.__file__).resolve().parent != SRC / "chimaxwell":
        raise ImportError(f"chimaxwell imported from {chimaxwell.__file__}, not {SRC}")
    return chimaxwell


def gate(wl, result) -> tuple[bool, str | None]:
    """Run the workload's correctness gate; an exception is a failed gate."""
    try:
        return bool(wl.check(result)), None
    except Exception:  # a gate that cannot run on this result rejects it
        return False, traceback.format_exc(limit=2)


def one_op(wl, index: int, tracer=None, poison=None) -> dict:
    """Time one op (wall and rusage), gate it, clean up after it.

    `poison`, used only by selftest.py, corrupts the result before the gate.
    """
    if tracer is not None:
        tracer.op = index
        lo, counts0 = len(tracer.spans), dict(tracer.counts)
    ru0 = resource.getrusage(resource.RUSAGE_SELF)
    t0 = time.perf_counter()
    try:
        result, error = wl.op(), None
    except Exception:  # the op failed; count it and keep measuring
        result, error = None, traceback.format_exc(limit=4)
    wall = time.perf_counter() - t0
    ru1 = resource.getrusage(resource.RUSAGE_SELF)
    hi = len(tracer.spans) if tracer is not None else 0
    record = {
        "wall_s": wall,
        "user_s": ru1.ru_utime - ru0.ru_utime,
        "sys_s": ru1.ru_stime - ru0.ru_stime,
        "minflt": ru1.ru_minflt - ru0.ru_minflt,
    }
    ok = False
    if error is None:
        try:
            if poison is not None:
                result = poison(result)
            ok, error = gate(wl, result)
            if tracer is not None:
                counts = {k: v - counts0.get(k, 0) for k, v in tracer.counts.items()}
                record["layers"] = layer_metrics(wl, tracer, lo, hi, counts, record, result)
        finally:
            wl.cleanup(result)
    record["ok"] = ok
    if error is not None:
        record["error"] = error
        print(f"op {index} failed:\n{error}", file=sys.stderr)
    elif not ok:
        print(f"op {index} failed its gate", file=sys.stderr)
    return record


def layer_metrics(wl, tracer, lo: int, hi: int, counts: dict, record: dict,
                  result) -> dict:
    """The per-layer metrics of one traced op.  A layer the op never enters
    reads 0."""
    import spans

    layers = spans.op_layers(tracer, lo, hi)
    get = layers.get
    run_self = get("chi_solver.run.self_s", 0.0)
    cell_steps = wl.cells * wl.steps
    total_bytes, snapshot_bytes = (wl.bytes_written(result)
                                   if hasattr(wl, "bytes_written") else (0, 0))
    snapshot_s = get("chi_solver.save_snapshot.s", 0.0)
    return {
        "chi_solver.run.self_s": run_self,
        "chi_solver.run.ns_per_cell_step": run_self * 1e9 / cell_steps if cell_steps else 0.0,
        "chi_solver.diagnostics.calls": get("chi_solver.diagnostics.calls", 0),
        "chi_solver.diagnostics.s": get("chi_solver.diagnostics.s", 0.0),
        "chi_solver.SpectralSpace.calls": counts.get("chi_solver.SpectralSpace", 0),
        "chi_solver.init_state.s": get("chi_solver.init_state.s", 0.0),
        "chi_solver.save_snapshot.calls": get("chi_solver.save_snapshot.calls", 0),
        "chi_solver.save_snapshot.s": snapshot_s,
        "chi_solver.save_snapshot.MB_per_s":
            snapshot_bytes / 1e6 / snapshot_s if snapshot_s > 0 else 0.0,
        "chi_solver.write_diagnostics_csv.s": get("chi_solver.write_diagnostics_csv.s", 0.0),
        "cli.self_s": get("cli.self_s", 0.0),
        "cli.bytes_written": total_bytes,
        "verify.self_s": get("verify.self_s", 0.0),
        "spin_algebra.self_s": get("spin_algebra.self_s", 0.0),
        "spin_algebra.calls": get("spin_algebra.calls", 0),
        "planewaves.self_s": get("planewaves.self_s", 0.0),
        "planewaves.calls": get("planewaves.calls", 0),
        "polarization.self_s": get("polarization.self_s", 0.0),
        "polarization.calls": get("polarization.calls", 0),
        "spin_algebra.build_spin_matrices.calls":
            counts.get("spin_algebra.build_spin_matrices", 0),
        "proc.user_s": record["user_s"],
        "proc.sys_s": record["sys_s"],
        "proc.minflt": record["minflt"],
    }


def run_ops(wl, seconds: float, tracer=None) -> list[dict]:
    """Closed loop: one op at a time until the next one, judged by the
    median time of an iteration so far, would end after `seconds`.

    With a tracer, odd-numbered ops run traced (bindings swapped before the
    op, restored after it) and even ones plain, so the two kinds share the
    machine's state and their ratio is the tracing overhead."""
    if tracer is not None:
        import spans

    min_ops = 2 if tracer is None else 3
    deadline = time.perf_counter() + seconds
    records, laps = [], []
    while True:
        start = time.perf_counter()
        traced = tracer is not None and len(records) % 2 == 1
        if traced:
            spans.install(tracer, wl)
        try:
            record = one_op(wl, len(records), tracer if traced else None)
        finally:
            if traced:
                tracer.restore()
        record["traced"] = traced
        records.append(record)
        laps.append(time.perf_counter() - start)
        if (len(records) >= min_ops
                and time.perf_counter() + statistics.median(laps) > deadline):
            return records


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    start = time.perf_counter()
    chimaxwell = import_library()
    import numpy
    import workloads

    SCRATCH.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=SCRATCH))
    try:
        wl = workloads.WORKLOADS[args.workload](args.seed, workdir)
        setup_s = time.perf_counter() - start
        out = {"setup_s": setup_s, "numpy": numpy.__version__,
               "chimaxwell": chimaxwell.__version__}
        if not args.setup_only:
            tracer = None
            if args.trace:
                import spans

                tracer = spans.Tracer()
            out["ops"] = run_ops(wl, args.seconds, tracer)
            if tracer is not None:
                tracer.write(SPANS_DIR / f"spans-{args.workload}-seed{args.seed}.csv.gz")
            out["maxrss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
            out["digest"] = getattr(wl, "reference", None)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            SCRATCH.rmdir()
        except OSError:  # another worker's directory is still there
            pass
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
