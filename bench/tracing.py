"""Per-layer tracing from outside the program.

Wraps the public functions of each ``expanal`` module and records, per wrapped
function, its call count and its self time: the span's duration minus the time
its child spans cover.  Spans are aggregated in memory as they close; nothing
inside ``src/`` is changed.

A wrapper replaces the function at every module binding (a function imported
by name into several modules is wrapped everywhere), and ``uninstall``
restores the originals, so untraced phases run the unmodified program.
"""

import functools
import sys
import time
from collections import defaultdict

# (module, attribute path) of every wrapped function, grouped by layer.
SPANS = {
    "rational": ("aaa_fit", "poles_of", "loewner_pencil_poles", "residues_ls",
                 "filter_spurious", "check_fit_residual",
                 "pole_residue_from_samples"),
    "linalg": ("svd", "gen_eig", "lstsq", "lstsq_with_rank"),
    "validation": ("as_complex_matrix", "as_complex_vector", "check_distinct"),
    "sparse": ("recover_sparse", "recover_axis", "pairing_system", "match_pairs"),
    "recursive": ("recover_recursive", "build_pole_tree", "peel_dimension",
                  "leaves_to_sum"),
    "model": ("ExponentialSum.synthesize", "ExponentialSum.fourier_coefficient",
              "ExponentialSum.evaluate", "relative_errors", "source_to_json",
              "source_from_json"),
    "cli": ("cmd_generate", "cmd_recover", "cmd_compare"),
}
# Called too often for a span to be cheap; counted only.
COUNTED = {"model": ("CoefficientSource.value",)}

# Extra per-op quantities: name -> (unit, better).
EXTRAS = {
    "rational.aaa_fit.iterations": ("iters/op", "lower"),
    "rational.filter_spurious.kept_ratio": ("ratio", "higher"),
    "recursive.build_pole_tree.nodes": ("nodes/op", "lower"),
    "recursive.leaves_to_sum.design_mb": ("MB/op", "lower"),
    "model.ExponentialSum.synthesize.out_mb": ("MB/op", "lower"),
    "cli.json_bytes": ("B/op", "lower"),
    "cli.import_s": ("s", "lower"),
    "trace.overhead_ms": ("ms/op", "lower"),
    "trace.overhead_pct": ("%", "lower"),
}

_MB = 1e-6
_COMPLEX_BYTES = 16


def _aaa_iterations(acc, result, args, kwargs):
    acc["rational.aaa_fit.iterations"] += result[1].iterations


def _kept_poles(acc, result, args, kwargs):
    poles = kwargs["poles"] if "poles" in kwargs else args[0]
    acc["filter_spurious.fitted"] += len(poles)
    acc["filter_spurious.kept"] += len(result.poles)


def _tree_nodes(acc, result, args, kwargs):
    acc["recursive.build_pole_tree.nodes"] += sum(result.level_sizes())


def _design_mb(acc, result, args, kwargs):
    # the dense amplitude design the arguments imply: grid entries x order
    tree, source = args[0], args[1]
    acc["recursive.leaves_to_sum.design_mb"] += (
        source.grid().size * tree.order * _COMPLEX_BYTES * _MB
    )


def _synth_mb(acc, result, args, kwargs):
    if result.coverage.descriptor() == "full":
        count = (2 * result.N + 1) ** result.d
    else:
        count = len(result.coverage.unique_indices(result.d, result.N))
    acc["model.ExponentialSum.synthesize.out_mb"] += count * _COMPLEX_BYTES * _MB


_EXTRA_HOOKS = {
    "rational.aaa_fit": _aaa_iterations,
    "rational.filter_spurious": _kept_poles,
    "recursive.build_pole_tree": _tree_nodes,
    "recursive.leaves_to_sum": _design_mb,
    "model.ExponentialSum.synthesize": _synth_mb,
}


def metric_names():
    """Every per-layer metric name with its (unit, better), in report order."""
    out = {}
    for layer, names in SPANS.items():
        for name in names:
            out[f"{layer}.{name}.calls"] = ("calls/op", "lower")
            out[f"{layer}.{name}.self_ms"] = ("ms/op", "lower")
    for layer, names in COUNTED.items():
        for name in names:
            out[f"{layer}.{name}.calls"] = ("calls/op", "lower")
    out.update(EXTRAS)
    return out


class Tracer:
    """Installs span wrappers and accumulates calls, self time and extras."""

    def __init__(self):
        self.calls = defaultdict(int)
        self.self_s = defaultdict(float)
        self.extra = defaultdict(float)
        self._stack = []
        self._saved = []

    def snapshot(self):
        return dict(self.self_s)

    def install(self):
        for layer, names in SPANS.items():
            for name in names:
                self._patch(layer, name, self._span)
        for layer, names in COUNTED.items():
            for name in names:
                self._patch(layer, name, self._counter)

    def uninstall(self):
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved.clear()

    def _patch(self, layer, path, make):
        module = sys.modules[f"expanal.{layer}"]
        key = f"{layer}.{path}"
        if "." in path:
            cls_name, attr = path.split(".")
            owner = getattr(module, cls_name)
            original = owner.__dict__[attr]
            self._saved.append((owner, attr, original))
            setattr(owner, attr, make(key, original))
            return
        original = getattr(module, path)
        wrapper = make(key, original)
        for name, mod in list(sys.modules.items()):
            if name != "expanal" and not name.startswith("expanal."):
                continue
            for attr, value in list(vars(mod).items()):
                if value is original:
                    self._saved.append((mod, attr, original))
                    setattr(mod, attr, wrapper)

    def _counter(self, key, fn):
        calls = self.calls

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            calls[key] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _span(self, key, fn):
        calls, self_s, stack, extra = self.calls, self.self_s, self._stack, self.extra
        hook = _EXTRA_HOOKS.get(key)
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack.append(0.0)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                calls[key] += 1
                self_s[key] += elapsed - stack.pop()
                if stack:
                    stack[-1] += elapsed
            if hook is not None:
                # keep the hook's own cost out of the caller's self time
                start = clock()
                hook(extra, result, args, kwargs)
                if stack:
                    stack[-1] += clock() - start
            return result

        return wrapper

    def metrics(self, ops):
        """Per-op values of every per-layer metric (zero where not exercised)."""
        out = {}
        for name, (unit, _) in metric_names().items():
            if name.endswith(".calls"):
                value = self.calls[name[: -len(".calls")]] / ops
            elif name.endswith(".self_ms"):
                value = 1e3 * self.self_s[name[: -len(".self_ms")]] / ops
            elif name == "rational.filter_spurious.kept_ratio":
                fitted = self.extra["filter_spurious.fitted"]
                value = self.extra["filter_spurious.kept"] / fitted if fitted else 0.0
            elif unit.endswith("/op"):
                value = self.extra[name] / ops
            else:
                value = self.extra[name]
            out[name] = {"value": value, "unit": unit}
        return out
