"""Command-line front end.

Verbs: generate (tabulate Fourier coefficients of a signal file), recover
(run either recovery method on a coefficient grid), compare (error table
against a ground-truth signal), plot-grid (CSV of the line-sampling index
pattern).  Exit codes: 0 success, 1 input error, 2 degenerate signal,
3 recovery failure, 4 method/coverage mismatch.

Each verb imports only the modules it uses, and importing the package loads
none of them, so the EXPANAL_THREADS cap reaches the BLAS thread pools before
numpy loads.  No verb loads scipy: the library is numpy only, so generate,
recover and compare each pay for the numpy import and their own modules.
No verb loads numpy.random either: its import, through secrets and OpenSSL,
costs more than the spot check's index walk or the error lattice, and neither
draws random numbers.
"""

import argparse
import json
import os
import sys
import tempfile
import time

EXIT_OK = 0
EXIT_INPUT = 1
EXIT_DEGENERATE = 2
EXIT_RECOVERY = 3
EXIT_MISMATCH = 4


def _apply_thread_cap():
    cap = os.environ.get("EXPANAL_THREADS")
    if not cap:
        return
    for var in (
        "OMP_NUM_THREADS",
        "OPENBLAS_NUM_THREADS",
        "MKL_NUM_THREADS",
        "NUMEXPR_NUM_THREADS",
        "VECLIB_MAXIMUM_THREADS",
    ):
        os.environ.setdefault(var, cap)


class _CannotWrite(Exception):
    """An output file that could not be written; main reports it as an
    input error."""


def _write_atomic(path, text):
    """Write text to path through a temporary file in the same directory.

    mkstemp creates the temporary file with mode 0600, so it is given the
    mode open() would give a new file, 0666 less the umask, before it
    replaces path.  An OSError (a missing directory, a directory at path, a
    full disk) removes the temporary file and raises _CannotWrite.
    """
    directory = os.path.dirname(os.path.abspath(path))
    try:
        fd, tmp = tempfile.mkstemp(dir=directory, prefix=".expanal-", suffix=".tmp")
        try:
            umask = os.umask(0)
            os.umask(umask)
            os.chmod(tmp, 0o666 & ~umask)
            with os.fdopen(fd, "w") as handle:
                handle.write(text)
            os.replace(tmp, path)
        except BaseException:
            if os.path.exists(tmp):
                os.unlink(tmp)
            raise
    except OSError as exc:
        raise _CannotWrite(f"cannot write {path}: {exc.strerror or exc}") from exc


def _dump(obj):
    return json.dumps(obj, sort_keys=True, separators=(",", ":")) + "\n"


def _load_json(path):
    """The JSON document in a UTF-8 file.  Every undecodable file raises a
    ValueError: bad JSON, bad UTF-8, or an integer literal too long for
    Python to convert."""
    with open(path, "r", encoding="utf-8") as handle:
        return json.load(handle)


def _fail(message, code):
    print(f"error: {message}", file=sys.stderr)
    return code


def cmd_generate(args):
    from . import model
    from .errors import DegenerateFrequency, ExpanalError

    try:
        signal, file_period = model.signal_from_json(_load_json(args.signal))
    except (OSError, ValueError, ExpanalError) as exc:
        return _fail(f"cannot read signal file: {exc}", EXIT_INPUT)
    period = args.P if args.P is not None else file_period
    try:
        coverage = model.parse_coverage(args.coverage)
        source = signal.synthesize(period, args.N, coverage)
    except DegenerateFrequency as exc:
        return _fail(str(exc), EXIT_DEGENERATE)
    except ExpanalError as exc:
        return _fail(str(exc), EXIT_INPUT)
    _write_atomic(args.out, _dump(model.source_to_json(source)))
    print(f"wrote {source.counted_samples} samples ({coverage.descriptor()}) to {args.out}")
    return EXIT_OK


def _trace_json(trace):
    return {
        "iterations": trace.iterations,
        "max_residual_history": list(trace.max_residual_history),
        "chosen_support_order": list(trace.chosen_support_order),
        "converged": trace.converged,
    }


def _report_json(report):
    return {
        "e_frequency": report.frequency_error,
        "e_coefficient": report.coefficient_error,
        "e_signal": report.signal_error,
        "matched_permutation": [
            None if p is None else int(p) for p in report.matched_permutation
        ],
        "truth_order": report.truth_order,
        "recovered_order": report.recovered_order,
    }


def cmd_recover(args):
    if args.seed < 0:
        return _fail(f"--seed must be non-negative, got {args.seed}", EXIT_INPUT)
    if not 0 < args.tol < float("inf"):
        return _fail(f"--tol must be finite and positive, got {args.tol}", EXIT_INPUT)
    from . import model
    from .errors import BadParameters, ExpanalError

    try:
        source = model.source_from_json(_load_json(args.grid))
    except (OSError, ValueError, BadParameters) as exc:
        return _fail(f"cannot read coefficient grid: {exc}", EXIT_INPUT)

    is_sparse = isinstance(source.coverage, model.SparseLines)
    if args.method == "sparse" and not is_sparse:
        return _fail("--method sparse needs sparse-lines coverage", EXIT_MISMATCH)
    if args.method == "recursive" and not isinstance(source.coverage, model.FullGrid):
        return _fail("--method recursive needs full-grid coverage", EXIT_MISMATCH)
    if args.tau is not None and not is_sparse:
        return _fail("--tau needs sparse-lines coverage: a full grid has no diagonal shift",
                     EXIT_MISMATCH)
    if args.tau is not None and args.tau != source.coverage.tau:
        return _fail(
            f"--tau {args.tau} contradicts the grid's tau={source.coverage.tau}",
            EXIT_MISMATCH,
        )

    if args.method == "sparse":
        from .sparse import recover_sparse
    else:
        from .recursive import recover_recursive

    start = time.perf_counter()
    try:
        if args.method == "sparse":
            signal, certificate = recover_sparse(source, tol=args.tol)
            diagnostics = {
                "aaa_traces": [_trace_json(t) for t in certificate.axis_traces],
                "pairing": {
                    "permutations": [list(p) for p in certificate.permutations],
                    "stage_coefficients": [
                        [[z.real, z.imag] for z in stage]
                        for stage in certificate.stage_coefficients
                    ],
                    "match_scores": [list(s) for s in certificate.match_scores],
                },
            }
        else:
            traces = []
            signal, tree = recover_recursive(
                source, tol=args.tol, seed=args.seed, trace_sink=traces
            )
            diagnostics = {
                "aaa_traces": [_trace_json(t) for t in traces],
                "pole_tree": tree.to_json(),
            }
    except ExpanalError as exc:
        payload = {
            "method": args.method,
            "error": type(exc).__name__,
            "message": str(exc),
        }
        _write_atomic(args.out, _dump(payload))
        return _fail(f"recovery failed: {type(exc).__name__}: {exc}", EXIT_RECOVERY)
    wall = time.perf_counter() - start

    errors_obj = None
    if args.truth is not None:
        try:
            truth, _ = model.signal_from_json(_load_json(args.truth))
            errors_obj = _report_json(model.relative_errors(truth, signal))
        except (OSError, ValueError, ExpanalError) as exc:
            return _fail(f"cannot score against truth file: {exc}", EXIT_INPUT)

    payload = {
        "method": args.method,
        "wall_time": wall,
        "recovered": model.signal_to_json(signal, source.P),
        "errors": errors_obj,
        "diagnostics": diagnostics,
    }
    _write_atomic(args.out, _dump(payload))
    print(f"recovered order {signal.order} in {wall:.3f}s; wrote {args.out}")
    return EXIT_OK


def cmd_compare(args):
    from . import model
    from .errors import ExpanalError

    try:
        truth, _ = model.signal_from_json(_load_json(args.truth))
        payload = _load_json(args.result)
        if isinstance(payload, dict) and "error" in payload:
            # the file recover writes when a recovery fails
            return _fail(f"the result file records a failed recovery: "
                         f"{payload['error']}: {payload.get('message')}", EXIT_INPUT)
        if isinstance(payload, dict) and "recovered" in payload:
            payload = payload["recovered"]
        recovered, _ = model.signal_from_json(payload)
    except (OSError, ValueError, ExpanalError) as exc:
        return _fail(f"cannot read inputs: {exc}", EXIT_INPUT)
    try:
        report = model.relative_errors(truth, recovered)
    except ExpanalError as exc:
        return _fail(str(exc), EXIT_INPUT)

    print(f"{'e(frequency)':>14} {'e(coefficient)':>15} {'e(signal)':>12}")
    print(
        f"{report.frequency_error:>14.4e} "
        f"{report.coefficient_error:>15.4e} "
        f"{report.signal_error:>12.4e}"
    )
    if report.order_mismatch:
        print(
            f"order mismatch: truth {report.truth_order}, "
            f"recovered {report.recovered_order} (matched subset compared)"
        )
    if args.json is not None:
        _write_atomic(args.json, _dump(_report_json(report)))
    return EXIT_OK


def cmd_plot_grid(args):
    from .errors import BadParameters
    from .model import SparseLines

    try:
        lines = SparseLines(args.tau).line_indices(args.d, args.N)
    except BadParameters as exc:
        return _fail(str(exc), EXIT_INPUT)
    header = ",".join(f"k{i + 1}" for i in range(args.d)) + ",category"
    rows = [header]
    for category, line in lines:
        for idx in line:
            rows.append(",".join(str(int(k)) for k in idx) + f",{category}")
    _write_atomic(args.out, "\n".join(rows) + "\n")
    print(f"wrote {len(rows) - 1} grid points to {args.out}")
    return EXIT_OK


def build_parser():
    parser = argparse.ArgumentParser(
        prog="expanal",
        description="Recover multivariate exponential sums from Fourier coefficients.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("generate", help="tabulate Fourier coefficients of a signal")
    gen.add_argument("signal", help="signal JSON file")
    gen.add_argument("--P", type=float, default=None, help="period (default: from the file)")
    gen.add_argument("--N", type=int, required=True, help="index half-width")
    gen.add_argument("--coverage", required=True, help='"full" or "sparse:TAU"')
    gen.add_argument("--out", required=True)
    gen.set_defaults(func=cmd_generate)

    rec = sub.add_parser("recover", help="run a recovery method on a coefficient grid")
    rec.add_argument("grid", help="coefficient grid JSON file")
    rec.add_argument("--method", choices=("sparse", "recursive"), required=True)
    rec.add_argument("--tol", type=float, default=1e-12)
    rec.add_argument("--tau", type=int, default=None,
                     help="cross-check against the grid's diagonal shift (sparse-lines only)")
    rec.add_argument("--truth", default=None, help="signal JSON to score against")
    rec.add_argument("--seed", type=int, default=0,
                     help="offsets the recursive spot check's index walk")
    rec.add_argument("--out", required=True)
    rec.set_defaults(func=cmd_recover)

    cmp_ = sub.add_parser("compare", help="error table for a recovery result")
    cmp_.add_argument("truth", help="signal JSON file")
    cmp_.add_argument("result", help="recovery result JSON (or a signal JSON)")
    cmp_.add_argument("--json", default=None, help="also write the report as JSON")
    # ignored; the benchmark's CLI workload passes it until ROADMAP item 9
    cmp_.add_argument("--seed", type=int, default=0, help=argparse.SUPPRESS)
    cmp_.set_defaults(func=cmd_compare)

    pg = sub.add_parser("plot-grid", help="CSV of the line-sampling index pattern")
    pg.add_argument("--d", type=int, required=True)
    pg.add_argument("--N", type=int, required=True)
    pg.add_argument("--tau", type=int, required=True)
    pg.add_argument("--out", required=True)
    pg.set_defaults(func=cmd_plot_grid)

    return parser


def main(argv=None):
    _apply_thread_cap()
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except _CannotWrite as exc:
        return _fail(str(exc), EXIT_INPUT)


def entry():
    sys.exit(main())


if __name__ == "__main__":
    entry()
