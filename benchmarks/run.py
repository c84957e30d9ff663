"""formukit benchmark: run one workload, check its outputs, report metrics.

    python3 benchmarks/run.py --workload forward_inverse --seed 1 --seconds 25 --trace 0
    python3 benchmarks/run.py --smoke

Run from any directory of a checkout; formukit is imported from its src/.
The last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics: the end-to-end metrics with --trace 0, the
per-layer metrics with --trace 1. See README.md in this directory.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
WORKLOADS = ("forward_inverse", "strategy_bench", "cli_session")
SETUP_REPEATS = 3
DEADLINE_S = 170.0


class BenchError(RuntimeError):
    pass


def _env():
    src = ROOT / "src"
    if not (src / "formukit" / "__init__.py").is_file():
        raise BenchError(f"no formukit sources under {src}")
    path = os.environ.get("PYTHONPATH")
    return dict(os.environ, PYTHONPATH=f"{src}{os.pathsep}{path}" if path else str(src),
                OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1", MKL_NUM_THREADS="1",
                PYTHONHASHSEED="0")


def run_workload(workload, seed, seconds, trace, smoke=False):
    """Set up ``SETUP_REPEATS`` fresh workload processes, one at a time; the
    last one also runs the timed phase. Returns the worker's result plus
    the median set-up time, counted from each process start."""
    env = _env()
    deadline = time.monotonic() + DEADLINE_S
    workdir = OUT / f"work-{workload}-{seed}-{os.getpid()}"
    repeats = 1 if (trace or smoke) else SETUP_REPEATS
    setups = []
    try:
        for rep in range(repeats):
            shutil.rmtree(workdir, ignore_errors=True)
            workdir.mkdir(parents=True)
            cmd = [sys.executable, str(HERE / "worker.py"), "--workload", workload,
                   "--seed", str(seed), "--seconds", str(seconds), "--workdir", str(workdir)]
            if trace:
                cmd += ["--trace", str(OUT / f"spans-{workload}-s{seed}.jsonl")]
            if smoke:
                cmd.append("--smoke")
            if rep < repeats - 1:
                cmd.append("--setup-only")
            start = time.perf_counter()
            proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, env=env, cwd=ROOT)
            timer = threading.Timer(max(deadline - time.monotonic(), 1.0), proc.kill)
            timer.start()
            try:
                ready = proc.stdout.readline()
                setups.append(time.perf_counter() - start)
                rest = proc.stdout.read()
                code = proc.wait()
            finally:
                timer.cancel()
            if ready.strip() != "READY" or code != 0:
                raise BenchError(f"{workload} worker exited with code {code}")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    result = json.loads(rest.strip().splitlines()[-1])
    result["setup_s"] = statistics.median(setups)
    return result


def report(workload, result, trace):
    from tracing import PER_LAYER

    if trace:
        metrics = {name: {"value": result["layers"][name], "unit": unit}
                   for name, unit in PER_LAYER}
    else:
        metrics = {"setup_s": {"value": result["setup_s"], "unit": "s"},
                   "ops_per_s": {"value": result["ops_per_s"], "unit": "1/s"},
                   "peak_rss_mb": {"value": result["peak_rss_mb"], "unit": "MB"}}
    print(f"{workload}: {result['passes']} pass(es), {result['attempted']} operations "
          f"({result['failed']} failed) in {result['elapsed_s']:.3f} s; "
          f"machine.calib_ms {result['calib_ms']:.3f}")
    for problem in result["problems"]:
        print(f"CHECK FAILED: {problem}")
    for name, m in metrics.items():
        print(f"  {name} = {m['value']:.6g} {m['unit']}")
    return {"correct": not result["problems"], "attempted": result["attempted"],
            "failed": result["failed"], "metrics": metrics}


def smoke():
    """Every workload and every check at tiny sizes, traced, with both reports."""
    ok = True
    for workload in WORKLOADS:
        result = run_workload(workload, 0, 0.0, 1, smoke=True)
        for trace in (0, 1):
            summary = report(workload, result, trace)
            ok &= summary["correct"] and summary["attempted"] > 0
    return ok


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="run every workload once at tiny sizes and exit 0 if all checks pass")
    args = parser.parse_args(argv)
    try:
        if args.smoke:
            return 0 if smoke() else 1
        if args.workload is None:
            parser.error("--workload is required")
        result = run_workload(args.workload, args.seed, args.seconds, args.trace)
        print(json.dumps(report(args.workload, result, args.trace)))
    except BenchError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
