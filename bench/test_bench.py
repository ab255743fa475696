"""Self-test of the benchmark (not part of the tier-1 suite).

Run from the repository root:

    PYTHONPATH=src python3 -m pytest -q bench/test_bench.py
"""

import importlib.util
import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

import refcases  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402


def _test_cases_module():
    spec = importlib.util.spec_from_file_location("suite_cases", ROOT / "tests" / "cases.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_reference_copy_matches_test_suite():
    suite = _test_cases_module()
    assert len(refcases.ALL_REFERENCE) == len(suite.ALL_REFERENCE)
    for ours, theirs in zip(refcases.ALL_REFERENCE, suite.ALL_REFERENCE):
        assert (ours.name, ours.P, ours.N, ours.tau) == (
            theirs.name, theirs.P, theirs.N, theirs.tau)
        assert np.array_equal(ours.signal.frequencies, theirs.signal.frequencies)
        assert np.array_equal(ours.signal.coefficients, theirs.signal.coefficients)


def test_instance_generator_matches_test_suite():
    suite = _test_cases_module()
    ours, _ = refcases.random_axis_distinct(np.random.default_rng(5), 4, 3, 4)
    theirs, _ = suite.random_axis_distinct(np.random.default_rng(5), 4, 3, 4)
    assert np.array_equal(ours.frequencies, theirs.frequencies)
    assert np.array_equal(ours.coefficients, theirs.coefficients)


def _fingerprint(items):
    return [(i.label, i.truth.frequencies.tobytes(), i.truth.coefficients.tobytes())
            for i in items]


def test_seed_fixes_the_sparse_pool():
    first = workloads.build_sparse_lines(11)
    assert len({i.label for i in first}) >= 100
    assert _fingerprint(first) == _fingerprint(workloads.build_sparse_lines(11))
    assert _fingerprint(first) != _fingerprint(workloads.build_sparse_lines(12))


def test_match_errors_is_permutation_invariant():
    signal = refcases.BIVARIATE_5.signal
    shuffled = type(signal)(signal.frequencies[::-1], signal.coefficients[::-1])
    assert workloads.match_errors(signal, shuffled) == (0.0, 0.0)
    assert workloads.match_errors(signal, refcases.TRIVARIATE_6.signal)[0] == np.inf


def test_benchmark_json_names_match_the_code():
    doc = json.loads((ROOT / "BENCHMARK.json").read_text())
    end_to_end = {m["name"]: (m["unit"], m["better"]) for m in doc["end_to_end"]}
    per_layer = {m["name"]: (m["unit"], m["better"]) for m in doc["per_layer"]}
    assert end_to_end == workloads.END_TO_END
    assert per_layer == tracing.metric_names()
    names = {w["name"] for w in doc["workloads"]}
    assert names <= set(workloads.LIBRARY) | {"cli-pipeline"}


def test_tracer_wraps_every_binding_and_restores():
    from expanal import rational, recursive, sparse

    original = rational.pole_residue_from_samples
    tracer = tracing.Tracer()
    tracer.install()
    try:
        wrapped = rational.pole_residue_from_samples
        assert wrapped is not original
        assert sparse.pole_residue_from_samples is wrapped
        assert recursive.pole_residue_from_samples is wrapped
    finally:
        tracer.uninstall()
    assert sparse.pole_residue_from_samples is original
    assert recursive.pole_residue_from_samples is original


@pytest.mark.parametrize("trace", (0, 1))
@pytest.mark.parametrize("name", ("sparse-lines", "full-grid", "cli-pipeline"))
def test_smoke_one_op(name, trace):
    if name == "cli-pipeline":
        tally, metrics, counts, _ = workloads.run_cli(3, 0.0, trace, limit=1)
    else:
        tally, metrics, counts, _ = workloads.run_library(name, 3, 0.0, trace, limit=1)
    assert tally.attempted >= 1 and tally.failed == 0
    expected = tracing.metric_names() if trace else workloads.END_TO_END
    assert set(metrics) == set(expected) == set(counts)
    assert all(np.isfinite(m["value"]) for m in metrics.values())


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    result = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "full-grid", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180,
    )
    assert result.returncode != 0
    assert '"correct"' not in result.stdout
