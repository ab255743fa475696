"""Benchmark of the expanal recovery library and its command line.

Usage (from the repository root):

    python3 bench/run.py --workload full-grid --seed 1 --seconds 55 --trace 0

Prints a report (machine record, the exp-after-matmul probe, every metric
with its unit and sample count) and, as the last line, one JSON object with
the keys correct, attempted, failed and metrics.  ``--trace 0`` gives the
end-to-end metrics; ``--trace 1`` gives the per-layer metrics of a traced run.
See bench/README.md for the workloads and what each metric means.
"""

import argparse
import json
import os
import platform
import sys
import time
from pathlib import Path

WORKLOADS = ("sparse-lines", "full-grid", "cli-pipeline")
# BLAS pool size, fixed.  One thread: on two shared cores a second one
# doubled the run-to-run spread and did not speed up these matrix sizes.
BLAS_THREADS = 1
_BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
              "EXPANAL_THREADS")

ROOT = Path(__file__).resolve().parent.parent


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def pin_threads():
    """Fix the BLAS pool before numpy loads (children inherit it)."""
    for var in _BLAS_VARS:
        os.environ[var] = str(BLAS_THREADS)


def machine_record():
    import numpy as np
    import scipy

    def cpu_model():
        try:
            with open("/proc/cpuinfo") as handle:
                for line in handle:
                    if line.startswith("model name"):
                        return line.split(":", 1)[1].strip()
        except OSError:
            pass
        return platform.processor() or "unknown"

    def blas(config):
        deps = config.get("Build Dependencies", {}).get("blas", {})
        return f"{deps.get('name', '?')} {deps.get('version', '?')}"

    return {
        "nproc": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)),
        "cpu": cpu_model(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "numpy_blas": blas(np.show_config(mode="dicts")),
        "scipy_blas": blas(scipy.show_config(mode="dicts")),
        "blas_threads": BLAS_THREADS,
        "EXPANAL_THREADS": os.environ.get("EXPANAL_THREADS"),
    }


def exp_probe(rows=131072, cols=8):
    """Time np.exp on a 1M-entry complex array straight out of a complex
    matmul, and again after an elementwise ufunc has run over it.

    On some machines the first reads several times slower than the second,
    for no known reason; model.evaluate runs matmul then exp on every chunk.
    """
    import numpy as np

    rng = np.random.default_rng(0)
    points = rng.uniform(-10.0, 10.0, size=(rows, 4))
    freqs = 1j * rng.normal(size=(cols, 4))
    fresh = points @ freqs.T
    start = time.perf_counter()
    np.exp(fresh)
    after_matmul = time.perf_counter() - start
    touched = points @ freqs.T
    np.multiply(touched, 1.0, out=touched)
    start = time.perf_counter()
    np.exp(touched)
    after_ufunc = time.perf_counter() - start
    return {
        "entries": rows * cols,
        "exp_after_matmul_ms": round(1e3 * after_matmul, 3),
        "exp_after_ufunc_ms": round(1e3 * after_ufunc, 3),
        "ratio": round(after_matmul / after_ufunc, 2),
    }


def main(argv=None):
    args = parse_args(argv)
    if not (ROOT / "src" / "expanal").is_dir():
        print(f"error: no src/expanal under {ROOT}", file=sys.stderr)
        return 2
    pin_threads()
    sys.path[:0] = [str(ROOT / "src"), str(Path(__file__).resolve().parent)]

    import workloads
    from tracing import metric_names

    if args.workload == "cli-pipeline":
        tally, metrics, counts, notes = workloads.run_cli(
            args.seed, args.seconds, args.trace
        )
    else:
        tally, metrics, counts, notes = workloads.run_library(
            args.workload, args.seed, args.seconds, args.trace
        )

    print(f"expanal benchmark: workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds:g} trace={args.trace}")
    print("machine: " + json.dumps(machine_record()))
    print("probe exp-after-matmul: " + json.dumps(exp_probe()))
    print(f"ops: attempted={tally.attempted} failed={tally.failed} "
          f"failed_frac={tally.failed / max(tally.attempted, 1):.4g}")
    for line in tally.failures[:20]:
        print(f"  failed: {line}")
    if not args.trace and tally.best:
        _, beyond = workloads.percentile(list(tally.best.values()), 0.9)
        print(f"latency: best of each input over {len(tally.latencies)} timed ops; "
              f"{len(tally.best)} inputs, {beyond} beyond p90")
    for name, (value, unit, count) in notes.items():
        print(f"  {name:<44} {value!s:>14} {unit:<9} n={count}")
    directions = metric_names() if args.trace else workloads.END_TO_END
    for name, metric in metrics.items():
        print(f"  {name:<44} {metric['value']:>14.6g} {metric['unit']:<9} "
              f"n={counts[name]} {directions[name][1]}")
    print(json.dumps({
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
