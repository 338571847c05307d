"""chimaxwell benchmark: time to a checked solution on four workloads.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all --seed N --seconds S [--report F]

Workloads (see workloads.py for why each exists):
  propagate    chi_solver.run, 3-D n=64 plane wave, 32 steps, 2 samples
  monitor      chi_solver.run, 3-D n=64 chi Gaussian, 6 steps, 7 samples
  simulate_1d  cli simulate, 1-D n=1024, 2048 steps, 129 outputs, CSV
  verify       verify.run_verification(seed, trials=1000)

Load is a closed loop: one process, one client, one op at a time.  Every
sample comes from a fresh process (worker.py) that runs one workload only,
with BLAS limited to one thread, so set-up time, the cold op and peak RSS
are never shared between workloads or with the traced run.

--trace 0 measures the end-to-end metrics.  It starts three set-up probes
(import chimaxwell and build the inputs, nothing else), then three measuring
processes that share the S seconds; each times its first op as the cold op
and every later op as warm.
  run_s        median wall seconds of a warm op
  cold_run_s   median wall seconds of the first op in a fresh process
  cpu_s        median user+sys CPU seconds of a warm op (getrusage)
  peak_rss_mb  median ru_maxrss of the measuring processes
  setup_s      median set-up seconds over all six processes
Only ops whose gate passed enter the op medians.  The clock covers the call
into the library only; the gate runs after it stops.
fail_ratio (failed / attempted) is carried by the result's `failed` and
`attempted`; an op counts as failed when it raised or its gate rejected it.

--trace 1 measures the per-layer metrics in one more fresh process, in
which every second op is traced: spans are recorded at module boundaries
(spans.py) and each metric is the median over the traced ops, plus
trace.overhead_ratio = median traced op / median warm plain op.  Spans are
written to .perfbench_out/.

The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics.  The metric names and units are
those declared in BENCHMARK.json.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("propagate", "monitor", "simulate_1d", "verify")
SETUP_PROBES = 3
MEASURING_PROCESSES = 3
# Every worker must end within this many seconds of the run's start.
HARD_LIMIT_S = 170.0
THREAD_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
              "MKL_NUM_THREADS": "1"}


class BenchError(RuntimeError):
    pass


def declared_metrics() -> tuple[dict, dict]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return ({m["name"]: m["unit"] for m in spec["end_to_end"]},
            {m["name"]: m["unit"] for m in spec["per_layer"]})


def machine_info() -> dict:
    caches = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        try:
            level = (index / "level").read_text().strip()
            kind = (index / "type").read_text().strip()
            caches[f"L{level}_{kind}"] = (index / "size").read_text().strip()
        except OSError:
            continue
    return {
        "cpu_count": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "caches": caches,
        "machine": platform.machine(),
        "python": platform.python_version(),
        "blas_threads": THREAD_ENV,
    }


def worker(workload: str, seed: int, seconds: float, trace: int, deadline: float,
           setup_only: bool = False) -> dict:
    """Run worker.py in a fresh process and return its JSON result."""
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", f"{seconds:.3f}", "--trace", str(trace)]
    if setup_only:
        cmd.append("--setup-only")
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise BenchError("no time left for another worker")
    env = dict(os.environ, **THREAD_ENV)
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE,
                              text=True, timeout=timeout)
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"worker {workload} exceeded its time limit") from exc
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"worker {workload} exited with {proc.returncode}")
    return json.loads(lines[-1])


def count_failures(results: list[dict]) -> tuple[int, int]:
    """(attempted, failed) over every op of every measuring process.  Verify
    reports must also agree across processes: ops of a process whose report
    digest differs from the first process's count as failed."""
    attempted = failed = 0
    reference = results[0].get("digest")
    for res in results:
        ops = res["ops"]
        attempted += len(ops)
        if res.get("digest") != reference:
            failed += len(ops)
        else:
            failed += sum(not op["ok"] for op in ops)
    return attempted, failed


def passed(ops: list[dict]) -> list[dict]:
    """The ops whose gate passed; only these count toward a timing."""
    return [op for op in ops if op["ok"]]


def warm_ops(res: dict) -> list[dict]:
    """Every op of a process after its first (worker.py runs at least two)."""
    return passed(res["ops"][1:])


def measure(workload: str, seed: int, seconds: float) -> tuple[dict, dict]:
    """End-to-end metrics of one workload, and the raw samples."""
    start = time.monotonic()
    deadline = start + HARD_LIMIT_S
    probes = [worker(workload, seed, 0, 0, deadline, setup_only=True)
              for _ in range(SETUP_PROBES)]
    results = []
    for i in range(MEASURING_PROCESSES):
        left = seconds - (time.monotonic() - start)
        share = max(left, 0.0) / (MEASURING_PROCESSES - i)
        results.append(worker(workload, seed, share, 0, deadline))
    warm = [op for res in results for op in warm_ops(res)]
    cold = passed([res["ops"][0] for res in results])
    if not warm or not cold:
        raise BenchError(f"no {'warm' if cold else 'cold'} op of {workload} passed its gate")
    metrics = {
        "run_s": statistics.median(op["wall_s"] for op in warm),
        "cold_run_s": statistics.median(op["wall_s"] for op in cold),
        "cpu_s": statistics.median(op["user_s"] + op["sys_s"] for op in warm),
        "peak_rss_mb": statistics.median(res["maxrss_kb"] / 1024.0 for res in results),
        "setup_s": statistics.median(r["setup_s"] for r in probes + results),
    }
    attempted, failed = count_failures(results)
    samples = {"setup_probes": probes, "processes": results,
               "attempted": attempted, "failed": failed}
    return metrics, samples


def measure_layers(workload: str, seed: int, seconds: float) -> tuple[dict, dict]:
    """Per-layer metrics of one workload from a traced process whose traced
    ops alternate with plain ones."""
    res = worker(workload, seed, seconds, 1, time.monotonic() + HARD_LIMIT_S)
    ops = passed([op for op in res["ops"] if op["traced"]])
    plain_ops = [op for op in warm_ops(res) if not op["traced"]]
    if not ops or not plain_ops:
        raise BenchError(f"no warm op of {workload} passed its gate")
    metrics = {name: statistics.median(op["layers"][name] for op in ops)
               for name in ops[0]["layers"]}
    metrics["trace.overhead_ratio"] = (
        statistics.median(op["wall_s"] for op in ops)
        / statistics.median(op["wall_s"] for op in plain_ops))
    attempted, failed = count_failures([res])
    samples = {"processes": [res], "attempted": attempted, "failed": failed}
    return metrics, samples


def run_workload(workload: str, seed: int, seconds: float, trace: int) -> dict:
    e2e_units, layer_units = declared_metrics()
    units = layer_units if trace else e2e_units
    metrics, samples = (measure_layers if trace else measure)(workload, seed, seconds)
    if set(metrics) != set(units):
        raise BenchError(f"measured metrics {sorted(metrics)} differ from "
                         f"BENCHMARK.json {sorted(units)}")
    return {
        "correct": samples["failed"] == 0,
        "attempted": samples["attempted"],
        "failed": samples["failed"],
        "metrics": {name: {"value": float(metrics[name]), "unit": units[name]}
                    for name in units},
        "samples": samples,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="chimaxwell benchmark")
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--report", help="also write every sample to this JSON file")
    args = parser.parse_args(argv)

    names = WORKLOADS if args.workload == "all" else (args.workload,)
    info = machine_info()
    runs = {}
    try:
        for name in names:
            runs[name] = run_workload(name, args.seed, args.seconds, args.trace)
    except BenchError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1

    first = next(iter(runs.values()))["samples"]["processes"][0]
    info["numpy"] = first["numpy"]
    info["chimaxwell"] = first["chimaxwell"]
    print("machine " + json.dumps(info, sort_keys=True))
    for name, run in runs.items():
        fail_ratio = run["failed"] / run["attempted"]
        print(f"{name}: fail_ratio {fail_ratio:.4g} ({run['failed']}/{run['attempted']} ops)")
        for metric, m in run["metrics"].items():
            print(f"{name}: {metric} {m['value']:.6g} {m['unit']}")
    if args.report:
        report = {"machine": info, "seed": args.seed, "seconds": args.seconds,
                  "trace": args.trace, "workloads": runs}
        Path(args.report).write_text(json.dumps(report, indent=1, sort_keys=True) + "\n")

    if len(runs) == 1:
        metrics = next(iter(runs.values()))["metrics"]
    else:
        metrics = {f"{name}.{metric}": m for name, run in runs.items()
                   for metric, m in run["metrics"].items()}
    print(json.dumps({
        "correct": all(run["correct"] for run in runs.values()),
        "attempted": sum(run["attempted"] for run in runs.values()),
        "failed": sum(run["failed"] for run in runs.values()),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
