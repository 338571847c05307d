"""Self-test of the benchmark's gates and tracer.

    python3 perfbench/selftest.py

For every workload it runs traced ops in this process, each with a fresh
tracer, and checks that

* the clean op passes its gate and each NaN-poisoned result fails it, and
  the failures are counted (fail_ratio > 0);
* every binding the tracer swapped is restored after each op;
* the exact counts (every `.calls` metric) repeat between ops of the same
  seed, and also between two traced worker processes for verify;

and that run.py exits non-zero, printing no result, in a directory that
holds only BENCHMARK.json and perfbench/.  Exits 0 when all of that holds.
It takes about a minute.
"""

from __future__ import annotations

import dataclasses
import json
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import run
import worker

NAN = float("nan")


def _poison_field(result, field):
    final, diags, snaps = result
    data = getattr(final, field).copy()
    data.flat[data.size // 2] = NAN
    return dataclasses.replace(final, **{field: data}), diags, snaps


def _poison_diag(result, field):
    final, diags, snaps = result
    diags = list(diags)
    diags[len(diags) // 2] = dataclasses.replace(diags[len(diags) // 2], **{field: NAN})
    return final, diags, snaps


def _poison_summary(result):
    path = result[1] / "summary.json"
    summary = json.loads(path.read_text())
    summary["energy_drift"] = NAN
    path.write_text(json.dumps(summary))
    return result


def _poison_csv(result):
    path = result[1] / "diagnostics.csv"
    lines = path.read_text().splitlines()
    cells = lines[5].split(",")
    cells[1] = "nan"
    lines[5] = ",".join(cells)
    path.write_text("\n".join(lines) + "\n")
    return result


def _poison_snapshot(result):
    path = sorted(result[1].glob("snapshot_*.bin"))[-1]
    with path.open("r+b") as fh:
        fh.write(b"\x00\x00\x00\x00\x00\x00\xf8\x7f")  # a little-endian NaN
    return result


def _poison_report(report):
    report.checks[0] = dataclasses.replace(report.checks[0], residual=NAN)
    return report


POISONS = {
    "propagate": [lambda r: _poison_field(r, "e"),
                  lambda r: _poison_diag(r, "gauss_e_residual")],
    "monitor": [lambda r: _poison_field(r, "chi_re"),
                lambda r: _poison_diag(r, "curl_j_residual")],
    "simulate_1d": [_poison_summary, _poison_csv, _poison_snapshot],
    "verify": [_poison_report],
}


def exact_counts(record: dict) -> dict:
    return {k: v for k, v in record["layers"].items() if k.endswith(".calls")}


def check_workload(name: str, workloads, spans, workdir: Path) -> list[str]:
    problems = []
    wl = workloads.WORKLOADS[name](0, workdir)
    points = spans.binding_points(wl)
    before = [getattr(owner, attr) for owner, attr in points]
    records = []
    for poison in [None] + POISONS[name]:
        tracer = spans.Tracer()
        spans.install(tracer, wl)
        try:
            records.append(worker.one_op(wl, len(records), tracer, poison))
        finally:
            tracer.restore()
        if any(getattr(owner, attr) is not value
               for (owner, attr), value in zip(points, before)):
            problems.append(f"{name}: a binding was not restored")
    if not records[0]["ok"]:
        problems.append(f"{name}: the clean op failed its gate")
    for i, rec in enumerate(records[1:], 1):
        if rec["ok"]:
            problems.append(f"{name}: poisoned result {i} passed the gate")
    attempted, failed = run.count_failures([{"ops": records, "digest": None}])
    if failed != len(POISONS[name]) or not failed / attempted > 0:
        problems.append(f"{name}: counted {failed}/{attempted} failures")
    counts = [exact_counts(rec) for rec in records]
    if any(c != counts[0] for c in counts):
        problems.append(f"{name}: exact counts differ between ops: {counts}")
    print(f"{name}: {failed}/{attempted} poisoned ops counted as failed; "
          f"counts {counts[0]}")
    return problems


def check_processes_agree(name: str) -> list[str]:
    """Two traced worker processes with the same seed give the same counts."""
    deadline = time.monotonic() + run.HARD_LIMIT_S
    results = [run.worker(name, 0, 0, 1, deadline) for _ in range(2)]
    counts = [exact_counts(op) for res in results for op in res["ops"] if op["traced"]]
    if any(c != counts[0] for c in counts):
        return [f"{name}: exact counts differ between traced processes: {counts}"]
    return []


def check_bare_directory() -> list[str]:
    """run.py must fail, printing no result, without the library's source."""
    worker.SCRATCH.mkdir(exist_ok=True)
    bare = Path(tempfile.mkdtemp(prefix="bare-", dir=worker.SCRATCH))
    try:
        shutil.copy(run.ROOT / "BENCHMARK.json", bare)
        shutil.copytree(run.HERE, bare / "perfbench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        proc = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", "verify", "--seed", "0",
             "--seconds", "1", "--trace", "0"],
            cwd=bare, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
            timeout=120)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    if proc.returncode == 0 or '"correct"' in proc.stdout:
        return [f"bare directory: exit {proc.returncode}, stdout {proc.stdout!r}"]
    return []


def main() -> int:
    worker.import_library()
    import spans
    import workloads

    problems = []
    worker.SCRATCH.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix="selftest-", dir=worker.SCRATCH))
    try:
        for name in run.WORKLOADS:
            problems += check_workload(name, workloads, spans, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    problems += check_processes_agree("verify")
    problems += check_bare_directory()
    for problem in problems:
        print("FAIL", problem)
    print("selftest", "failed" if problems else "passed")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
