"""sqkd benchmark: one workload, one closed-loop client, one JSON result line.

    python3 perfbench/run.py --workload {sample,verify,exact} --seed N \
        --seconds S --trace {0,1}

--trace 0 prints the end-to-end metrics; --trace 1 runs the workload once
untraced and once with spans around every layer's public functions, and
prints the per-layer metrics plus the tracing overhead.  The last line of
standard output is {"correct", "attempted", "failed", "metrics"}; the line
before it gives the sample counts and the tail percentile.  See README.md.
"""

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SETUP_SAMPLES = 9
IMPORT_PROGRAM = "import sys; sys.path.insert(0, sys.argv[1]); import sqkd, sqkd.cli"


def _cap_threads():
    """Cap the BLAS/OpenMP pools at nproc before numpy is first imported."""
    nproc = len(os.sched_getaffinity(0))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        current = os.environ.get(var, "")
        n = int(current) if current.isdigit() and int(current) > 0 else nproc
        os.environ[var] = str(min(n, nproc))
    return nproc


def _setup_s() -> float:
    """Median wall time from a fresh interpreter to sqkd and sqkd.cli imported."""
    cmd = [sys.executable, "-c", IMPORT_PROGRAM, str(SRC)]
    subprocess.run(cmd, check=True, cwd=ROOT)  # untimed: writes the bytecode cache
    times = []
    for _ in range(SETUP_SAMPLES):
        t0 = time.perf_counter()
        subprocess.run(cmd, check=True, cwd=ROOT)
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def _percentile(values, pct: int) -> float:
    return statistics.quantiles(values, n=100, method="inclusive")[pct - 1]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=("sample", "verify", "exact"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    if not (SRC / "sqkd" / "__init__.py").is_file():
        print(f"error: no sqkd sources under {SRC}", file=sys.stderr)
        return 2
    nproc = _cap_threads()
    sys.path.insert(0, str(SRC))
    setup_s = _setup_s() if args.trace == 0 else None

    import ops  # imports numpy and sqkd, after the thread caps are set
    import spans

    workload = ops.WORKLOADS[args.workload]
    with tempfile.TemporaryDirectory(prefix=".perfbench-", dir=ROOT) as tmp:
        runner = ops.Runner(args.workload, args.seed, Path(tmp))
        runner.warm_up()
        if args.trace == 0:
            seg = runner.measure(args.seconds, workload.min_ops)
            lat = seg.latencies
            metrics = {
                "setup_s": (setup_s, "s"),
                "rounds_per_s": (seg.rate(seg.cycle_rounds), "rounds/s"),
                "patterns_per_s": (seg.rate(seg.cycle_patterns), "patterns/s"),
                "ops_per_s": (seg.rate(seg.cycle_ops), "ops/s"),
                "op_p50_s": (statistics.median(lat), "s"),
                "op_tail_s": (_percentile(lat, workload.tail_pct), "s"),
                "peak_rss_mb": (
                    resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
            }
            detail = {"op_latency_samples": len(lat), "op_tail_percentile": workload.tail_pct,
                      "setup_samples": SETUP_SAMPLES}
        else:
            untraced = runner.measure(args.seconds / 2)
            tracer = spans.Tracer()
            runner.tracer = tracer
            restore = spans.install(tracer)
            try:
                traced = runner.measure(args.seconds / 2)
            finally:
                restore()
                runner.tracer = None
            metrics = spans.layer_metrics(tracer, len(traced.latencies))
            base = untraced.rate(untraced.cycle_ops)
            metrics["trace.overhead_ratio"] = (
                1 - traced.rate(traced.cycle_ops) / base if base else 0.0, "ratio")
            metrics.update(spans.kernel_metrics(args.seed))
            seg = traced
            detail = {"traced_ops": len(traced.latencies), "traced_spans": len(tracer.start)}

    detail.update(workload=args.workload, seed=args.seed, blas_threads=nproc,
                  cycles=len(seg.cycle_s), problems=runner.problems[:20])
    print(json.dumps({"detail": detail}))
    print(json.dumps({
        "correct": runner.failed == 0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
