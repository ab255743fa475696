"""The public names of the package, the modules each entry point loads, and
the names the benchmark tracer wraps.

bench/tracing.py wraps functions by their module attribute name; the suite
here keeps those names resolvable, so a rename in src/ fails tier-1 and not
only the benchmark's own self-test.
"""

import importlib
import importlib.util
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
# the package import and after each of two CLI verbs.
_IMPORT_PROBE = """
import json, sys
import expanal, expanal.cli

def loaded():
    return sorted(m for m in sys.modules if m.split(".")[0] in ("numpy", "scipy"))

stages = {"import": loaded()}
generate = ["generate", sys.argv[1], "--N", "6", "--coverage", "full",
            "--out", sys.argv[2]]
assert expanal.cli.main(generate) == 0
stages["generate"] = loaded()
recover = ["recover", sys.argv[2], "--method", "recursive", "--out", sys.argv[3]]
assert expanal.cli.main(recover) == 0
stages["recover"] = loaded()
print(json.dumps(stages))
"""


def test_cli_verbs_load_only_what_they_use(tmp_path):
    # numpy must not be loaded before main() applies the EXPANAL_THREADS cap
    signal = tmp_path / "signal.json"
    signal.write_text(json.dumps({
        "d": 2, "P": 1.0, "gamma": [[1.0, 0.0], [0.5, 0.5]],
        "lambda": [[[-0.1, 1.3], [0.2, -2.1]], [[0.3, 0.7], [-0.2, 2.9]]],
    }))
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run(
        [sys.executable, "-c", _IMPORT_PROBE, str(signal),
         str(tmp_path / "grid.json"), str(tmp_path / "result.json")],
        capture_output=True, text=True, env=env, check=True,
    )
    stages = json.loads(proc.stdout.splitlines()[-1])
    assert stages["import"] == []
    assert "numpy" in stages["generate"]
    assert not any(m.startswith("scipy") for m in stages["generate"])
    assert "scipy.linalg" in stages["recover"]
    assert "scipy.optimize" not in stages["recover"]
