"""The three benchmark workloads and the output check they share.

Every workload is a closed loop with one client: the next operation starts
only after the previous one has returned.  The seed fixes the inputs; the
program sees only the generated coefficients (or, for the CLI, the signal
files and the ``--seed`` argument), never the truth it is scored against.
"""

import contextlib
import io
import json
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np
import scipy.optimize

import expanal.cli
from expanal import FullGrid, SparseLines, model, recursive, sparse
from expanal.errors import ExpanalError

import refcases
from tracing import Tracer, metric_names

ROOT = Path(__file__).resolve().parent.parent
SETUP_REPEATS = 3
IMPORT_PROBE = "import expanal, expanal.cli"
MAX_DIGITS = 16.0

# sparse-lines pool: every (d, M) pair, REPLICAS times, with N drawn from one
# band of width 5 per replica so that each seed gets the same mix of sizes.
POOL_DIMS = range(2, 7)
# M stops at 6: at M >= 7 the crowded tau strip gives typed AmbiguousPairing
# or errors above the random-instance tolerance on some seeds, and the
# workload must run without failures.
POOL_ORDERS = range(2, 7)
POOL_REPLICAS = 4
POOL_TAUS = (3, 7)  # tau drawn from [3, 7)
POOL_P = 2.0

# Fewest rounds (sweeps over the inputs, or CLI passes) in an untraced run.
# Every input is timed once per round and scored by its best time, so more
# rounds give each input more chances to run while the shared host is quiet.
SPARSE_MIN_SWEEPS = 10
FULL_GRID_MIN_CYCLES = 15
CLI_MIN_PASSES = 4

# end-to-end metric -> (unit, better)
END_TO_END = {
    "setup_s": ("s", "lower"),
    "op_ms_p50": ("ms", "lower"),
    "op_ms_p90": ("ms", "lower"),
    "ops_per_s": ("1/s", "higher"),
    "peak_rss_mb": ("MB", "lower"),
    "accuracy_digits": ("digits", "higher"),
}

# (case, coverage, method, N) for one generate -> recover -> compare pass.
# No d = 4 case: `compare` evaluates a 2M-point lattice at d >= 4 (about 20 s
# per call), which leaves room for one pass per run and one sample per verb.
CLI_PLAN = (
    (refcases.BIVARIATE_5, "sparse:7", "sparse", 15),
    (refcases.TRIVARIATE_8, "full", "recursive", 15),
)
VERBS = ("generate", "recover", "compare")


# ---------------------------------------------------------------------------
# Output check


def match_errors(truth, recovered):
    """Relative (frequency, coefficient) errors after optimal row matching.

    Returns (inf, inf) when the orders differ.
    """
    if truth.order != recovered.order or truth.d != recovered.d:
        return math.inf, math.inf
    cost = np.linalg.norm(
        truth.frequencies[:, None, :] - recovered.frequencies[None, :, :], axis=2
    )
    rows, cols = scipy.optimize.linear_sum_assignment(cost)
    freq = max(
        np.abs(truth.frequencies[rows, a] - recovered.frequencies[cols, a]).max()
        / np.abs(truth.frequencies[:, a]).max()
        for a in range(truth.d)
    )
    coef = (
        np.abs(truth.coefficients[rows] - recovered.coefficients[cols]).max()
        / np.abs(truth.coefficients).max()
    )
    return float(freq), float(coef)


def digits(error):
    """-log10 of an error, clipped to [0, 16]."""
    if error <= 0.0:
        return MAX_DIGITS
    return float(min(MAX_DIGITS, max(0.0, -math.log10(error))))


class Tally:
    """Latencies, failures and accuracy of the ops of one run.

    `best` holds the shortest successful latency of each input (keyed by
    input), which the end-to-end latency metrics are taken from.
    """

    def __init__(self):
        self.latencies = []
        self.best = {}
        self.attempted = 0
        self.failed = 0
        self.min_digits = MAX_DIGITS
        self.failures = []

    def record(self, key, label, seconds, error, tol):
        """Count one op on input `key`; error is None for an op with no
        accuracy to score."""
        if error is not None and error > tol:
            self.fail(label, f"error {error:.3e} above tolerance {tol:.0e}", seconds)
            return
        self.attempted += 1
        self.latencies.append(seconds)
        self.best[key] = min(seconds, self.best.get(key, math.inf))
        if error is not None:
            self.min_digits = min(self.min_digits, digits(error))

    def fail(self, label, reason, seconds=None):
        """Count one failed op (seconds is None for an op never started);
        a failure zeroes the accuracy."""
        self.attempted += 1
        if seconds is not None:
            self.latencies.append(seconds)
        self.failed += 1
        self.min_digits = 0.0
        self.failures.append(f"{label}: {reason}")


def percentile(values, q):
    """Nearest-rank percentile and the number of samples beyond it."""
    ordered = sorted(values)
    rank = max(1, math.ceil(q * len(ordered)))
    return ordered[rank - 1], len(ordered) - rank


def timed_rounds(seconds, minimum=1):
    """Yield round numbers until `minimum` rounds have run and another round
    as long as the last one would end past `seconds` from the start."""
    deadline = time.perf_counter() + seconds
    count = 0
    while True:
        start = time.perf_counter()
        yield count
        count += 1
        now = time.perf_counter()
        if count >= minimum and now + (now - start) > deadline:
            return


def peak_rss_mb(who):
    return resource.getrusage(who).ru_maxrss / 1024.0


def import_seconds(repeats=SETUP_REPEATS):
    """Median wall time of fresh interpreters that only import the package."""
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        subprocess.run([sys.executable, "-c", IMPORT_PROBE], env=_child_env(),
                       check=True)
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def _child_env():
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else src
    return env


# ---------------------------------------------------------------------------
# Library workloads (in-process)


@dataclass(frozen=True)
class Item:
    """One recovery input: the truth is kept by the benchmark only."""

    label: str
    truth: object
    source: object
    method: str
    tol: float


def build_sparse_lines(seed):
    rng = np.random.default_rng(seed)
    items = []
    for replica in range(POOL_REPLICAS):
        for d in POOL_DIMS:
            for order in POOL_ORDERS:
                n_half = 20 + 5 * replica + int(rng.integers(0, 6))
                tau = int(rng.integers(*POOL_TAUS))
                truth, _ = refcases.random_axis_distinct(rng, order, d, tau, P=POOL_P)
                source = truth.synthesize(POOL_P, n_half, SparseLines(tau))
                method = ("eig", "pencil")[len(items) % 2]
                label = f"random d={d} M={order} N={n_half} tau={tau} {method}"
                items.append(Item(label, truth, source, method, refcases.RANDOM_TOL))
    for case in (refcases.BIVARIATE_5, refcases.TRIVARIATE_6):
        source = case.signal.synthesize(case.P, case.N, SparseLines(case.tau))
        for method in ("eig", "pencil"):
            tol = refcases.REFERENCE_TOL[(case.name, "sparse")]
            items.append(Item(f"{case.name} {method}", case.signal, source, method, tol))
    return items


def build_full_grid(seed):
    items = []
    for case in refcases.ALL_REFERENCE:
        source = case.signal.synthesize(case.P, case.N, FullGrid())
        tol = refcases.REFERENCE_TOL[(case.name, "recursive")]
        items.append(Item(case.name, case.signal, source, "eig", tol))
    return items


def _recover_sparse_op(item, seed):
    return sparse.recover_sparse(item.source, method=item.method)[0]


def _recover_recursive_op(item, seed):
    return recursive.recover_recursive(item.source, method=item.method, seed=seed)[0]


LIBRARY = {
    "sparse-lines": (build_sparse_lines, _recover_sparse_op, SPARSE_MIN_SWEEPS),
    "full-grid": (build_full_grid, _recover_recursive_op, FULL_GRID_MIN_CYCLES),
}


def _sweep(items, recover, seed, rng, tally, tracer=None):
    """One pass over the inputs in a seeded order; returns the (label,
    seconds, self-time delta) of the slowest op."""
    slowest = (None, -1.0, None)
    for index in rng.permutation(len(items)):
        item = items[index]
        before = tracer.snapshot() if tracer else None
        start = time.perf_counter()
        try:
            recovered = recover(item, seed)
        except ExpanalError as exc:
            tally.fail(item.label, f"{type(exc).__name__}: {exc}",
                       time.perf_counter() - start)
            continue
        elapsed = time.perf_counter() - start
        if elapsed > slowest[1]:
            slowest = (item.label, elapsed, _delta(tracer, before))
        tally.record(index, item.label, elapsed,
                     max(match_errors(item.truth, recovered)), item.tol)
    return slowest


def _delta(tracer, before):
    """Self time per span since the snapshot `before` (None when untraced)."""
    if tracer is None:
        return None
    return {k: v - before.get(k, 0.0) for k, v in tracer.snapshot().items()}


def run_library(name, seed, seconds, trace, limit=None):
    """Run one library workload.

    Returns (tally, metrics, sample count per metric, report notes).
    """
    build, recover, min_sweeps = LIBRARY[name]
    rng = np.random.default_rng(seed)
    tally = Tally()
    report = {}
    if limit is not None:
        min_sweeps = 1

    def timed_build():
        start = time.perf_counter()
        items = build(seed)
        return items[:limit] if limit else items, time.perf_counter() - start

    if not trace:
        repeats = 1 if limit else SETUP_REPEATS
        builds = [timed_build() for _ in range(repeats)]
        items = builds[-1][0]
        imports = import_seconds(repeats)
        setup = imports + statistics.median(b for _, b in builds)
        report["import_s"] = (imports, "s", repeats)
        sweeps = 0
        for _ in timed_rounds(seconds, min_sweeps):
            _sweep(items, recover, seed, rng, tally)
            sweeps += 1
        report["sweeps"] = (sweeps, "count", sweeps)
        report["inputs"] = (len(items), "count", len(items))
        _all_sample_notes(report, tally)
        metrics, counts = _end_to_end(tally, setup, repeats,
                                      peak_rss_mb(resource.RUSAGE_SELF))
        return tally, metrics, counts, report

    tracer = Tracer()
    untraced = traced = 0.0
    ops = 0
    slowest = (None, -1.0, None)
    for _ in timed_rounds(seconds):
        for traced_phase in (False, True):
            if traced_phase:
                tracer.install()
            try:
                start = time.perf_counter()
                items, _ = timed_build()
                worst = _sweep(items, recover, seed, rng, tally,
                               tracer if traced_phase else None)
                elapsed = time.perf_counter() - start
            finally:
                tracer.uninstall()
            if traced_phase:
                traced += elapsed
                ops += len(items)
                if worst[1] > slowest[1]:
                    slowest = worst
            else:
                untraced += elapsed
    tracer.extra["cli.import_s"] = import_seconds(1 if limit else SETUP_REPEATS)
    _set_overhead(tracer, traced, untraced)
    report["traced ops"] = (ops, "count", ops)
    report["slowest traced op"] = _slowest_line(slowest)
    return tally, tracer.metrics(ops), _layer_counts(ops), report


def _layer_counts(ops):
    counts = dict.fromkeys(metric_names(), ops)
    counts["cli.import_s"] = SETUP_REPEATS
    return counts


def _set_overhead(tracer, traced, untraced):
    tracer.extra["trace.overhead_ms"] = 1e3 * (traced - untraced)
    tracer.extra["trace.overhead_pct"] = 100.0 * (traced - untraced) / untraced


def _slowest_line(slowest):
    label, elapsed, delta = slowest
    if delta is None:
        return ("none", "", 0)
    top = sorted(delta.items(), key=lambda kv: -kv[1])[:4]
    parts = ", ".join(f"{k} {1e3 * v:.1f} ms" for k, v in top)
    return (f"{label} {1e3 * elapsed:.1f} ms; top self time: {parts}", "", 1)


def _all_sample_notes(report, tally):
    """Median and p90 over every timed op, beside the best-of-run metrics."""
    lat = tally.latencies
    report["all-sample op_ms_p50"] = (1e3 * statistics.median(lat), "ms", len(lat))
    report["all-sample op_ms_p90"] = (1e3 * percentile(lat, 0.9)[0], "ms", len(lat))


def _end_to_end(tally, setup, setup_n, rss):
    """Latency metrics are over inputs, each at its best latency of the run:
    the host's speed swings by up to 2x over tens of seconds, and the best
    of many spaced repeats is what stays put from run to run."""
    best = list(tally.best.values())
    p90, _ = percentile(best, 0.9)
    values = {
        "setup_s": (setup, setup_n),
        "op_ms_p50": (1e3 * statistics.median(best), len(best)),
        "op_ms_p90": (1e3 * p90, len(best)),
        "ops_per_s": (len(best) / sum(best), len(best)),
        "peak_rss_mb": (rss, 1),
        "accuracy_digits": (tally.min_digits, tally.attempted),
    }
    metrics = {k: {"value": v, "unit": END_TO_END[k][0]} for k, (v, _) in values.items()}
    return metrics, {k: n for k, (_, n) in values.items()}


# ---------------------------------------------------------------------------
# CLI workload (one subprocess per verb)


def _verb_args(workdir, case, coverage, method, n_half, seed):
    base = os.path.join(workdir, case.name)
    signal, grid, result, cmp_ = (f"{base}.json", f"{base}-grid.json",
                                  f"{base}-result.json", f"{base}-report.json")
    return {
        "generate": ["generate", signal, "--N", str(n_half), "--coverage", coverage,
                     "--out", grid],
        "recover": ["recover", grid, "--method", method, "--seed", str(seed),
                    "--out", result],
        "compare": ["compare", signal, result, "--seed", str(seed), "--json", cmp_],
    }, {"generate": ([signal], [grid]), "recover": ([grid], [result]),
        "compare": ([signal, result], [cmp_])}


def _write_signals(workdir):
    for case, *_ in CLI_PLAN:
        path = os.path.join(workdir, f"{case.name}.json")
        with open(path, "w") as handle:
            json.dump(model.signal_to_json(case.signal, case.P), handle)


def _check_verb(tally, verb, case, method, files, seconds, code):
    """Score one verb call from the files it wrote."""
    tol = refcases.REFERENCE_TOL[(case.name, method)]
    label = f"{case.name} {verb}"
    key = (case.name, verb)
    if code != 0:
        tally.fail(label, f"exit code {code}", seconds)
        return False
    if verb == "generate":
        tally.record(key, label, seconds, None, tol)
        return True
    with open(files[verb][1][0]) as handle:
        payload = json.load(handle)
    if verb == "recover":
        recovered, _ = model.signal_from_json(payload["recovered"])
        tally.record(key, label, seconds, max(match_errors(case.signal, recovered)),
                     tol)
        return True
    if payload["truth_order"] != payload["recovered_order"]:
        tally.fail(label, "compare reports an order mismatch", seconds)
        return False
    # the program's own report: checked against the tolerance, but accuracy
    # is taken only from the benchmark's scoring of the recover output
    reported = max(payload["e_frequency"], payload["e_coefficient"])
    if reported > tol:
        tally.fail(label, f"compare reports error {reported:.3e} above {tol:.0e}",
                   seconds)
        return False
    tally.record(key, label, seconds, None, tol)
    return True


def _cli_pass(workdir, seed, tally, run_verb, cases, tracer=None):
    """One generate -> recover -> compare pass.

    Returns the per-verb seconds and the slowest verb as _sweep does.
    """
    stage = dict.fromkeys(VERBS, 0.0)
    slowest = (None, -1.0, None)
    for case, coverage, method, n_half in cases:
        argv, files = _verb_args(workdir, case, coverage, method, n_half, seed)
        for position, verb in enumerate(VERBS):
            before = tracer.snapshot() if tracer else None
            start = time.perf_counter()
            code = run_verb(argv[verb])
            elapsed = time.perf_counter() - start
            stage[verb] += elapsed
            if elapsed > slowest[1]:
                slowest = (f"{case.name} {verb}", elapsed, _delta(tracer, before))
            if not _check_verb(tally, verb, case, method, files, elapsed, code):
                for skipped in VERBS[position + 1:]:
                    tally.fail(f"{case.name} {skipped}", "skipped after a failed verb")
                break
    return stage, slowest


def _subprocess_verb(argv):
    result = subprocess.run([sys.executable, "-m", "expanal.cli"] + argv,
                            env=_child_env(), stdout=subprocess.DEVNULL)
    return result.returncode


def _in_process_verb(argv):
    with contextlib.redirect_stdout(io.StringIO()):
        return expanal.cli.main(argv)


def _json_bytes(workdir, seed, cases):
    total = 0
    for case, coverage, method, n_half in cases:
        _, files = _verb_args(workdir, case, coverage, method, n_half, seed)
        for read, written in files.values():
            total += sum(os.path.getsize(p) for p in read + written)
    return total


def run_cli(seed, seconds, trace, limit=None):
    """Run the CLI workload; returns the same four parts as run_library."""
    cases = CLI_PLAN[:limit] if limit else CLI_PLAN
    out_root = ROOT / ".bench_out"
    out_root.mkdir(exist_ok=True)
    workdir = tempfile.mkdtemp(prefix="cli-", dir=out_root)
    tally = Tally()
    report = {}
    try:
        if not trace:
            repeats = 1 if limit else SETUP_REPEATS
            writes = []
            for _ in range(repeats):
                start = time.perf_counter()
                _write_signals(workdir)
                writes.append(time.perf_counter() - start)
            imports = import_seconds(repeats)
            setup = imports + statistics.median(writes)
            report["import_s"] = (imports, "s", repeats)
            passes = 0
            for _ in timed_rounds(seconds, 1 if limit else CLI_MIN_PASSES):
                _cli_pass(workdir, seed, tally, _subprocess_verb, cases)
                passes += 1
            report["passes"] = (passes, "count", passes)
            # per verb: summed over the cases, each case at its best pass
            for verb in VERBS:
                value = sum(t for (_, v), t in tally.best.items() if v == verb)
                report[f"{verb}_s"] = (value, "s", passes)
            report["pipeline_s"] = (sum(tally.best.values()), "s", passes)
            _all_sample_notes(report, tally)
            metrics, counts = _end_to_end(tally, setup, repeats,
                                          peak_rss_mb(resource.RUSAGE_CHILDREN))
            return tally, metrics, counts, report

        _write_signals(workdir)
        tracer = Tracer()
        stage, _ = _cli_pass(workdir, seed, tally, _in_process_verb, cases)
        untraced = sum(stage.values())
        tracer.install()
        try:
            stage, slowest = _cli_pass(workdir, seed, tally, _in_process_verb, cases,
                                       tracer)
        finally:
            tracer.uninstall()
        traced = sum(stage.values())
        ops = len(cases) * len(VERBS)
        tracer.extra["cli.json_bytes"] = _json_bytes(workdir, seed, cases)
        tracer.extra["cli.import_s"] = import_seconds(1 if limit else SETUP_REPEATS)
        _set_overhead(tracer, traced, untraced)
        report["traced ops"] = (ops, "count", ops)
        for verb in VERBS:
            report[f"traced {verb}_s"] = (stage[verb], "s", 1)
        report["slowest traced op"] = _slowest_line(slowest)
        return tally, tracer.metrics(ops), _layer_counts(ops), report
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):
            out_root.rmdir()
