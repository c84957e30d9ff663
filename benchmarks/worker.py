"""One workload process: set-up, one warm-up operation, the timed passes,
then the output checks.

Started by run.py. Prints READY when set-up is done, then, unless
--setup-only, its result as one JSON line. Timing covers whole passes only,
and ends at the pass boundary nearest to --seconds.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

CALIB_REPEATS = 5


def calibrate_ms():
    """A fixed pure-Python loop that runs no formukit code."""
    start = time.perf_counter()
    total = 0
    for i in range(200_000):
        total += i * i % 7
    return (time.perf_counter() - start) * 1e3


def import_seconds(repeats=3):
    """Median time of a fresh ``import formukit.cli``, each in a new interpreter."""
    code = ("import time; t = time.perf_counter(); import formukit.cli; "
            "print(time.perf_counter() - t)")
    return statistics.median(
        float(subprocess.run([sys.executable, "-c", code], capture_output=True,
                             text=True, check=True).stdout)
        for _ in range(repeats))


def main(argv=None):
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--workdir", required=True)
    parser.add_argument("--trace", help="write spans to this file and report per-layer metrics")
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args(argv)

    from workloads import WORKLOADS

    tracer = None
    if args.trace:
        from tracing import Tracer

        tracer = Tracer()
        tracer.install()
    workload = WORKLOADS[args.workload](args.seed, Path(args.workdir), args.smoke, tracer)
    workload.setup()
    warm_up = getattr(workload, "warm_up", None) or workload.ops[0][1]
    warm_up()
    print("READY", flush=True)
    if args.setup_only:
        return 0

    calib = [calibrate_ms() for _ in range(CALIB_REPEATS)]
    attempted = failed = passes = 0
    start = time.perf_counter()
    while True:
        workload.begin_pass(passes)
        for _, op in workload.ops:
            if tracer:
                tracer.op_id = attempted
            done, bad = op()
            attempted += done
            failed += bad
        passes += 1
        elapsed = time.perf_counter() - start
        # Stop at the pass boundary nearest to the requested length.
        if elapsed * (1.0 + 0.5 / passes) >= args.seconds:
            break
    if tracer:
        tracer.op_id = None
        tracer.uninstall()
    calib += [calibrate_ms() for _ in range(CALIB_REPEATS)]

    result = {
        "attempted": attempted,
        "failed": failed,
        "passes": passes,
        "elapsed_s": elapsed,
        "ops_per_s": attempted / elapsed,
        "peak_rss_mb": workload.peak_rss_mb(),
        "calib_ms": statistics.median(calib),
        "problems": workload.check(),
    }
    if tracer:
        from tracing import layer_metrics

        extra = dict(workload.extra, calib_ms=result["calib_ms"],
                     ops_per_s=result["ops_per_s"], import_s=import_seconds())
        result["layers"] = layer_metrics(tracer.spans, extra)
        tracer.write(args.trace)
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
