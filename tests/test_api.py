"""The public names of the package, and the names the benchmark tracer wraps.

bench/tracing.py wraps functions by their module attribute name; the suite
here keeps those names resolvable, so a rename in src/ fails tier-1 and not
only the benchmark's own self-test.
"""

import importlib
import importlib.util
import pathlib

import expanal

TRACING = pathlib.Path(__file__).resolve().parents[1] / "bench" / "tracing.py"

REMOVED = {
    "expanal": ("plan", "SparseGridPlan"),
    "expanal.sparse": ("plan", "SparseGridPlan", "HUNGARIAN_LIMIT", "_greedy_assignment"),
    "expanal.recursive": ("_line_poles",),
    "expanal.validation": ("check_positive_int",),
}


def _tracing():
    spec = importlib.util.spec_from_file_location("expanal_bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_public_names_resolve_and_removed_names_are_gone():
    missing = [name for name in expanal.__all__ if not hasattr(expanal, name)]
    assert missing == []
    present = [
        f"{module}.{name}"
        for module, names in REMOVED.items()
        for name in names
        if hasattr(importlib.import_module(module), name)
    ]
    assert present == []


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
