"""The public names of the package, the modules each entry point loads, and
the names the benchmark tracer wraps.

bench/tracing.py wraps functions by their module attribute name; the suite
here keeps those names resolvable, so a rename in src/ fails tier-1 and not
only the benchmark's own self-test.
"""

import importlib
import importlib.util
import inspect
import json
import os
import pathlib
import subprocess
import sys

import pytest

import expanal

ROOT = pathlib.Path(__file__).resolve().parents[1]
TRACING = ROOT / "bench" / "tracing.py"

REMOVED = {
    "expanal": ("plan", "SparseGridPlan", "SliceValues", "distinct_poles",
                "evaluate_barycentric"),
    "expanal.sparse": ("plan", "SparseGridPlan", "HUNGARIAN_LIMIT", "_greedy_assignment"),
    "expanal.recursive": ("_line_poles", "SliceValues", "distinct_poles",
                          "TreeNode.leaf_multiplicity", "PoleTree._leaves", "_peel",
                          "RESYNTHESIS_WARN_TOL", "PoleTree._root_peel", "_distinct",
                          "_peel_level", "_level_pinvs", "_merge_close", "_merge_rows",
                          "POLE_MERGE_RTOL"),
    "expanal.rational": ("_cauchy_lstsq", "_misfit_error", "evaluate_barycentric",
                         "_central_residues"),
    "expanal.validation": ("check_positive_int", "check_rcond"),
    "expanal.model": ("CoefficientSource.items", "CoefficientSource.indices",
                      "_SeparableSum.gram", "_SeparableSum.adjoint", "_SeparableSum.apply",
                      "axis_line_indices", "diagonal_line_indices", "CoefficientSource._line"),
    "expanal.errors": ("RankDeficient", "OrderMismatch", "ResynthesisWarning"),
    "expanal.linalg": ("DEFAULT_RCOND", "full_rank_svd", "eigh", "sort_complex",
                       "_cauchy_solve"),
}

# Thresholds are module constants, each with one owner (linalg.RCOND,
# rational.SPURIOUS_RESIDUE_RTOL, sparse.PAIRING_SCORE_TOL,
# model.SIGNAL_BOX, ...), not keyword arguments handed down through every
# call.
THRESHOLD_KNOBS = {"rcond", "rank_tol", "rtol", "score_tol", "margin",
                   "pairing_tol", "pairing_margin", "resynthesis_tol",
                   "box", "points_per_axis", "max_signal_points"}


def _tracing():
    spec = importlib.util.spec_from_file_location("expanal_bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _resolves(owner, path):
    """Whether a dotted attribute path resolves on owner."""
    for attr in path.split("."):
        if not hasattr(owner, attr):
            return False
        owner = getattr(owner, attr)
    return True


def test_public_names_resolve_and_removed_names_are_gone():
    missing = [name for name in expanal.__all__ if not hasattr(expanal, name)]
    assert missing == []
    present = [
        f"{module}.{path}"
        for module, paths in REMOVED.items()
        for path in paths
        if _resolves(importlib.import_module(module), path)
    ]
    assert present == []


@pytest.mark.parametrize("module", ["rational", "sparse", "recursive", "linalg",
                                    "estimators", "model"])
def test_no_threshold_knobs(module):
    mod = importlib.import_module(f"expanal.{module}")
    knobs = {
        f"{name}({param})"
        for name, obj in vars(mod).items()
        if not name.startswith("_") and callable(obj)
        and getattr(obj, "__module__", None) == mod.__name__
        for param in inspect.signature(obj).parameters
        if param in THRESHOLD_KNOBS
    }
    assert knobs == set()


def test_traced_names_resolve():
    tracing = _tracing()
    unresolved = []
    for table in (tracing.SPANS, tracing.COUNTED):
        for layer, paths in table.items():
            for path in paths:
                owner = importlib.import_module(f"expanal.{layer}")
                for attr in path.split("."):
                    owner = getattr(owner, attr, None)
                if not callable(owner):
                    unresolved.append(f"{layer}.{path}")
    assert unresolved == []


def _bindings():
    """Every module-level and class-level binding of the loaded expanal modules."""
    out = {}
    for name, module in list(sys.modules.items()):
        if name.split(".")[0] != "expanal":
            continue
        for attr, value in vars(module).items():
            out[name, attr] = value
            if isinstance(value, type):
                for key, member in vars(value).items():
                    out[name, f"{attr}.{key}"] = member
    return out


def test_tracer_hooks_read_live_names():
    # the result hooks read PoleTree.level_sizes, PoleTree.order and
    # CoefficientSource.grid; uninstall must restore every patched binding.
    # recover_recursive runs the tree build's kernel and solves no amplitude
    # system, so the hooked build_pole_tree and leaves_to_sum are called here
    # by name
    from cases import BIVARIATE_5, TRIVARIATE_4

    tracing = _tracing()
    for layer in tracing.SPANS:
        importlib.import_module(f"expanal.{layer}")
    from expanal import recursive, sparse
    from expanal.model import FullGrid, SparseLines

    before = _bindings()
    tracer = tracing.Tracer()
    tracer.install()
    try:
        case = TRIVARIATE_4
        source = case.signal.synthesize(case.P, case.N, FullGrid())
        recursive.recover_recursive(source)
        recursive.leaves_to_sum(recursive.build_pole_tree(source), source)
        case = BIVARIATE_5
        sparse.recover_sparse(case.signal.synthesize(case.P, case.N, SparseLines(case.tau)))
    finally:
        tracer.uninstall()
    after = _bindings()
    assert sorted(after) == sorted(before)
    assert [key for key, value in before.items() if after[key] is not value] == []
    metrics = tracer.metrics(1)
    assert metrics["recursive.recover_recursive.calls"]["value"] == 1
    assert metrics["sparse.recover_sparse.calls"]["value"] == 1
    for name in ("recursive.build_pole_tree.nodes", "recursive.leaves_to_sum.design_mb",
                 "model.ExponentialSum.synthesize.out_mb"):
        assert metrics[name]["value"] > 0, name


def test_all_is_the_export_table():
    assert expanal.__all__ == sorted(expanal._EXPORTS)
    assert set(expanal.__all__) <= set(dir(expanal))


def test_star_import_binds_every_name():
    namespace = {}
    exec("from expanal import *", namespace)
    assert [name for name in expanal.__all__ if name not in namespace] == []


def test_unknown_attribute_raises():
    with pytest.raises(AttributeError, match="no_such_name"):
        expanal.no_such_name


# Runs in a fresh interpreter: prints the numpy/scipy modules loaded after
# the package import and after each CLI verb, generate -> recover (both
# methods) -> compare.  argv: signal file, scratch directory.
_IMPORT_PROBE = """
import json, os, sys
import expanal, expanal.cli

def loaded():
    return sorted(m for m in sys.modules if m.split(".")[0] in ("numpy", "scipy"))

signal, signal4, tmp = sys.argv[1], sys.argv[2], sys.argv[3]
full, lines = os.path.join(tmp, "full.json"), os.path.join(tmp, "lines.json")
verbs = {
    "generate": ["generate", signal, "--N", "6", "--coverage", "full", "--out", full],
    "generate-sparse": ["generate", signal, "--N", "15", "--coverage", "sparse:7",
                        "--out", lines],
    "recover-recursive": ["recover", full, "--method", "recursive",
                          "--out", os.path.join(tmp, "r1.json")],
    "recover-sparse": ["recover", lines, "--method", "sparse", "--truth", signal,
                       "--out", os.path.join(tmp, "r2.json")],
    "compare": ["compare", signal, os.path.join(tmp, "r2.json")],
    "compare-d4": ["compare", signal4, signal4],
}
stages = {"import": loaded()}
for name, argv in verbs.items():
    code = expanal.cli.main(argv)
    if code != 0:
        sys.exit(f"{name} exited {code}")
    stages[name] = loaded()
print(json.dumps(stages))
"""

# Makes every scipy import fail before the probe runs.
_NO_SCIPY = """
import importlib.abc, sys

class NoScipy(importlib.abc.MetaPathFinder):
    def find_spec(self, name, path=None, target=None):
        if name.split(".")[0] == "scipy":
            raise ImportError(f"scipy is blocked: {name}")
        return None

sys.meta_path.insert(0, NoScipy())
exec(compile(sys.argv.pop(1), "<probe>", "exec"))
"""


def _run_probe(tmp_path, prelude=None):
    signal = tmp_path / "signal.json"
    signal.write_text(json.dumps({
        "d": 2, "P": 1.0, "gamma": [[1.0, 0.0], [0.5, 0.5]],
        "lambda": [[[-0.1, 1.3], [0.2, -2.1]], [[0.3, 0.7], [-0.2, 2.9]]],
    }))
    signal4 = tmp_path / "signal4.json"
    signal4.write_text(json.dumps({
        "d": 4, "P": 1.0, "gamma": [[1.0, 0.0], [0.5, 0.5]],
        "lambda": [[[-0.1, 1.3], [0.2, -2.1], [0.1, 0.4], [-0.2, 0.9]],
                   [[0.3, 0.7], [-0.2, 2.9], [0.0, -1.1], [0.1, 0.2]]],
    }))
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    argv = [_IMPORT_PROBE, str(signal), str(signal4), str(tmp_path)]
    if prelude is not None:
        argv = [prelude] + argv
    proc = subprocess.run([sys.executable, "-c", *argv],
                          capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


def test_cli_verbs_load_only_what_they_use(tmp_path):
    # numpy must not be loaded before main() applies the EXPANAL_THREADS cap,
    # no verb loads scipy, which the library does not use, and a full-grid
    # recovery does not load numpy's masked arrays (np.unique would).  No
    # verb loads numpy.random: the spot check walks a float sequence, and the
    # error lattice is a fixed product lattice at every d, 4 included
    stages = _run_probe(tmp_path)
    assert stages["import"] == []
    assert "numpy" in stages["generate"]
    assert "numpy.ma" not in stages["recover-recursive"]
    assert {verb: [m for m in mods if m.startswith("numpy.random")]
            for verb, mods in stages.items()} == {verb: [] for verb in stages}
    assert {verb: [m for m in mods if m.startswith("scipy")]
            for verb, mods in stages.items()} == {verb: [] for verb in stages}


def test_cli_verbs_run_without_scipy(tmp_path):
    stages = _run_probe(tmp_path, prelude=_NO_SCIPY)
    assert list(stages) == ["import", "generate", "generate-sparse",
                            "recover-recursive", "recover-sparse", "compare", "compare-d4"]
