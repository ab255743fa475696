"""End-to-end tests of the command-line interface (in-process)."""

import base64
import json
import os
import pathlib
import stat
import subprocess
import sys

import numpy as np
import pytest

from expanal import (
    ExponentialSum,
    SparseLines,
    relative_errors,
    signal_from_json,
    signal_to_json,
)
from expanal.cli import build_parser, main
from expanal.rational import DEFAULT_TOL

from cases import BIVARIATE_5, QUADVARIATE_9, signal_from_amplitudes, signal_from_poles


@pytest.fixture()
def spec_file(tmp_path):
    path = tmp_path / "signal.json"
    path.write_text(json.dumps(signal_to_json(BIVARIATE_5.signal, BIVARIATE_5.P)))
    return str(path)


def run(*argv):
    return main(list(argv))


def read_json(path):
    return json.loads(pathlib.Path(path).read_text())


def wire_values(obj):
    """The coefficient values of a grid file's object, decoded."""
    return np.frombuffer(base64.b64decode(obj["values"]), dtype="<c16")


SRC = str(pathlib.Path(__file__).resolve().parents[1] / "src")

# A 5,000-digit integer passes the JSON grammar but not Python's limit on
# int conversion (4,300 digits), which raises a plain ValueError; a byte that
# is not UTF-8 raises UnicodeDecodeError.  Neither is a JSONDecodeError.
UNDECODABLE = {
    "long-integer": b'{"d": ' + b"9" * 5000 + b"}",
    "bad-utf8": b'{"d": "\xff"}',
}


@pytest.mark.parametrize("content", list(UNDECODABLE.values()), ids=list(UNDECODABLE))
@pytest.mark.parametrize("verb", ["generate", "recover", "compare"])
def test_undecodable_json_is_an_input_error(verb, content, tmp_path):
    bad, out = tmp_path / "bad.json", str(tmp_path / "out.json")
    bad.write_bytes(content)
    argv = {
        "generate": ["generate", str(bad), "--N", "5", "--coverage", "full", "--out", out],
        "recover": ["recover", str(bad), "--method", "recursive", "--out", out],
        "compare": ["compare", str(bad), str(bad)],
    }[verb]
    proc = subprocess.run([sys.executable, "-m", "expanal.cli", *argv],
                          capture_output=True, text=True,
                          env=dict(os.environ, PYTHONPATH=SRC))
    assert proc.returncode == 1
    assert "error: cannot read " in proc.stderr
    assert "Traceback" not in proc.stderr


# one gamma entry fewer than lambda has rows: ExponentialSum raises
# ShapeMismatch, which each verb reports as an unreadable input
SHORT_GAMMA = {"d": 1, "P": 1.0, "gamma": [[1, 0]], "lambda": [[[0.1, 1]], [[-0.2, 3]]]}


@pytest.mark.parametrize("verb", ["generate", "compare"])
def test_gamma_count_mismatch_is_an_input_error(verb, tmp_path):
    bad, out = tmp_path / "bad.json", tmp_path / "out.json"
    bad.write_text(json.dumps(SHORT_GAMMA))
    argv = {
        "generate": ["generate", str(bad), "--N", "5", "--coverage", "full", "--out", str(out)],
        "compare": ["compare", str(bad), str(bad), "--json", str(out)],
    }[verb]
    proc = subprocess.run([sys.executable, "-m", "expanal.cli", *argv],
                          capture_output=True, text=True,
                          env=dict(os.environ, PYTHONPATH=SRC))
    assert proc.returncode == 1
    assert proc.stdout == ""
    assert proc.stderr.splitlines() == [
        f"error: cannot read {'signal file' if verb == 'generate' else 'inputs'}: need one "
        f"coefficient per frequency row, got (2, 1) and (1,)"
    ]
    assert not out.exists()


# every verb writes its output through a temporary file, which must end with
# the mode open() gives a new file: 0666 less the umask
@pytest.mark.parametrize("umask, mode", [(0o022, 0o644), (0o027, 0o640)], ids=["022", "027"])
def test_output_files_get_the_umask_mode(umask, mode, spec_file, tmp_path):
    grid, result = str(tmp_path / "grid.json"), str(tmp_path / "result.json")
    report, csv = str(tmp_path / "report.json"), str(tmp_path / "grid.csv")
    for argv in (
        ["generate", spec_file, "--N", "15", "--coverage", "sparse:7", "--out", grid],
        ["recover", grid, "--method", "sparse", "--out", result],
        ["compare", spec_file, result, "--json", report],
        ["plot-grid", "--d", "2", "--N", "5", "--tau", "2", "--out", csv],
    ):
        proc = subprocess.run([sys.executable, "-m", "expanal.cli", *argv],
                              capture_output=True, text=True, umask=umask,
                              env=dict(os.environ, PYTHONPATH=SRC))
        assert proc.returncode == 0, proc.stderr
    for path in (grid, result, report, csv):
        assert stat.S_IMODE(os.stat(path).st_mode) == mode


def cli(*argv):
    """expanal run in a subprocess on this tree's sources."""
    return subprocess.run([sys.executable, "-m", "expanal.cli", *argv],
                          capture_output=True, text=True,
                          env=dict(os.environ, PYTHONPATH=SRC))


# each verb that writes a file, pointed at an output it cannot write: a
# missing directory, or (generate-onto-directory) a directory where the file
# should go, which fails only when the temporary file replaces it
@pytest.mark.parametrize("verb", ["generate", "generate-onto-directory", "plot-grid",
                                  "recover", "recover-failure", "compare"])
def test_unwritable_output_is_an_input_error(verb, spec_file, tmp_path):
    lines, grid, result = (str(tmp_path / name) for name in ("lines.json", "grid.json", "r.json"))
    assert run("generate", spec_file, "--N", "15", "--coverage", "sparse:7", "--out", lines) == 0
    assert run("generate", spec_file, "--N", "1", "--coverage", "full", "--out", grid) == 0
    assert run("recover", lines, "--method", "sparse", "--out", result) == 0
    out = tmp_path / "missing" / "out"
    if verb == "generate-onto-directory":
        out = tmp_path / "directory"
        out.mkdir()
    argv = {
        "generate": ["generate", spec_file, "--N", "5", "--coverage", "full", "--out"],
        "generate-onto-directory": ["generate", spec_file, "--N", "5", "--coverage", "full",
                                    "--out"],
        "plot-grid": ["plot-grid", "--d", "2", "--N", "5", "--tau", "2", "--out"],
        "recover": ["recover", lines, "--method", "sparse", "--out"],
        # N = 1 fails the recovery, whose payload then cannot be written
        "recover-failure": ["recover", grid, "--method", "recursive", "--out"],
        "compare": ["compare", spec_file, result, "--json"],
    }[verb]
    before = sorted(os.listdir(tmp_path))
    proc = cli(*argv, str(out))
    assert proc.returncode == 1
    reason = "Is a directory" if verb == "generate-onto-directory" else "No such file or directory"
    assert proc.stderr.splitlines() == [f"error: cannot write {out}: {reason}"]
    # no output, and no .expanal-*.tmp file left behind
    assert sorted(os.listdir(tmp_path)) == before


class TestGenerate:
    def test_sparse_lines(self, spec_file, tmp_path):
        out = str(tmp_path / "grid.json")
        code = run("generate", spec_file, "--N", "15", "--coverage", "sparse:7",
                   "--out", out)
        assert code == 0
        obj = read_json(out)
        assert obj["coverage"] == "sparse:7"
        # 79 samples counted per line; the origin and the two points where
        # the diagonal crosses the axes are stored once each
        assert sorted(obj) == ["N", "P", "coverage", "d", "dtype", "values"]
        assert len(wire_values(obj)) == 76

    def test_degenerate_signal(self, tmp_path):
        sig = signal_from_poles(np.array([[1.0 + 0.0j, 0.4 + 0.5j]]),
                                np.array([1.0 + 0j]), 1.0)
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(signal_to_json(sig, 1.0)))
        code = run("generate", str(path), "--N", "5", "--coverage", "full",
                   "--out", str(tmp_path / "x.json"))
        assert code == 2

    def test_parse_error(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        code = run("generate", str(path), "--N", "5", "--coverage", "full",
                   "--out", str(tmp_path / "x.json"))
        assert code == 1

    def test_period_override(self, spec_file, tmp_path):
        out = str(tmp_path / "grid.json")
        assert run("generate", spec_file, "--P", "3.0", "--N", "6",
                   "--coverage", "full", "--out", out) == 0
        assert read_json(out)["P"] == 3.0

    @pytest.mark.parametrize("period", ["nan", "inf"])
    def test_nonfinite_period(self, spec_file, tmp_path, period):
        out = tmp_path / "grid.json"
        assert run("generate", spec_file, "--P", period, "--N", "6",
                   "--coverage", "full", "--out", str(out)) == 1
        assert not out.exists()

    def test_unallocatable_grid_is_an_input_error(self, tmp_path):
        # d = 10 at N = 10: 21^10 values (243 TiB), which no allocation holds
        spec, out = tmp_path / "sig.json", tmp_path / "grid.json"
        spec.write_text(json.dumps({"d": 10, "P": 2.0, "gamma": [[1.0, 0.0]],
                                    "lambda": [[[-0.3, 0.7]] * 10]}))
        proc = cli("generate", str(spec), "--N", "10", "--coverage", "full", "--out", str(out))
        assert proc.returncode == 1
        assert "Traceback" not in proc.stderr
        assert proc.stderr.splitlines() == [
            f"error: a full grid of shape {(21,) * 10} needs {16 * 21 ** 10} bytes, "
            f"which cannot be allocated"
        ]
        assert not out.exists()

    def test_full_grid_count(self, tmp_path):
        path = tmp_path / "sig4.json"
        path.write_text(
            json.dumps(signal_to_json(QUADVARIATE_9.signal, QUADVARIATE_9.P))
        )
        out = str(tmp_path / "grid4.json")
        assert run("generate", str(path), "--N", "10", "--coverage", "full",
                   "--out", out) == 0
        obj = read_json(out)
        assert len(wire_values(obj)) == 21 ** 4


class TestRecover:
    def test_default_tol_is_the_library_default(self):
        # the parser holds a literal, since numpy may not load before the
        # thread cap; it must be the library's own default
        args = build_parser().parse_args(
            ["recover", "grid.json", "--method", "sparse", "--out", "result.json"])
        assert args.tol == DEFAULT_TOL

    def test_sparse_roundtrip(self, spec_file, tmp_path):
        grid = str(tmp_path / "grid.json")
        result = str(tmp_path / "result.json")
        run("generate", spec_file, "--N", "15", "--coverage", "sparse:7",
            "--out", grid)
        code = run("recover", grid, "--method", "sparse", "--truth", spec_file,
                   "--out", result)
        assert code == 0
        payload = read_json(result)
        assert payload["method"] == "sparse"
        assert payload["errors"]["e_frequency"] <= 1e-8
        assert payload["diagnostics"]["pairing"]["permutations"][0] is not None
        assert payload["wall_time"] > 0

    def test_result_reparses_to_signal(self, spec_file, tmp_path):
        grid = str(tmp_path / "grid.json")
        result = str(tmp_path / "result.json")
        run("generate", spec_file, "--N", "15", "--coverage", "sparse:7",
            "--out", grid)
        run("recover", grid, "--method", "sparse", "--truth", spec_file,
            "--out", result)
        payload = read_json(result)
        recovered, _ = signal_from_json(payload["recovered"])
        report = relative_errors(BIVARIATE_5.signal, recovered)
        assert report.signal_error == payload["errors"]["e_signal"]

    def test_recursive_roundtrip(self, spec_file, tmp_path):
        grid = str(tmp_path / "grid.json")
        result = str(tmp_path / "result.json")
        run("generate", spec_file, "--N", "8", "--coverage", "full", "--out", grid)
        code = run("recover", grid, "--method", "recursive", "--truth", spec_file,
                   "--out", result)
        assert code == 0
        payload = read_json(result)
        assert payload["errors"]["e_frequency"] <= 1e-8
        assert len(payload["diagnostics"]["pole_tree"]["roots"]) == 5

    def test_coverage_mismatch(self, spec_file, tmp_path):
        grid = str(tmp_path / "grid.json")
        run("generate", spec_file, "--N", "6", "--coverage", "full", "--out", grid)
        code = run("recover", grid, "--method", "sparse",
                   "--out", str(tmp_path / "r.json"))
        assert code == 4

    def test_tau_contradiction(self, spec_file, tmp_path):
        grid = str(tmp_path / "grid.json")
        run("generate", spec_file, "--N", "15", "--coverage", "sparse:7",
            "--out", grid)
        code = run("recover", grid, "--method", "sparse", "--tau", "5",
                   "--out", str(tmp_path / "r.json"))
        assert code == 4

    def test_tau_on_full_grid_refused(self, spec_file, tmp_path, capsys):
        # --tau cross-checks a diagonal shift, and a full grid has none
        grid = str(tmp_path / "grid.json")
        run("generate", spec_file, "--N", "6", "--coverage", "full", "--out", grid)
        capsys.readouterr()
        result = tmp_path / "r.json"
        code = run("recover", grid, "--method", "recursive", "--tau", "7",
                   "--out", str(result))
        assert code == 4
        assert capsys.readouterr().err.splitlines() == [
            "error: --tau needs sparse-lines coverage: a full grid has no diagonal shift"
        ]
        assert not result.exists()

    def test_recovery_failure_payload(self, tmp_path):
        # a valid signal sampled with a shift too small for it: recovery
        # must fail with the error name in the payload
        sig = signal_from_poles(np.array([[2.5 + 0.5j, 0.3 + 0.8j]]),
                                np.array([1.0 + 0.5j]), 2.0)
        spec = tmp_path / "sig.json"
        spec.write_text(json.dumps(signal_to_json(sig, 2.0)))
        grid = str(tmp_path / "grid.json")
        run("generate", str(spec), "--N", "8", "--coverage", "sparse:2",
            "--out", grid)
        result = str(tmp_path / "r.json")
        code = run("recover", grid, "--method", "sparse", "--out", result)
        assert code == 3
        payload = read_json(result)
        assert payload["error"] == "TauViolation"

    def test_one_sample_per_side_is_a_recovery_failure(self, spec_file, tmp_path):
        # N = 1 caps the root line's fit at one support point
        grid, result = str(tmp_path / "grid.json"), str(tmp_path / "r.json")
        assert run("generate", spec_file, "--N", "1", "--coverage", "full", "--out", grid) == 0
        assert run("recover", grid, "--method", "recursive", "--out", result) == 3
        payload = read_json(result)
        assert payload["error"] == "NoConvergence"
        assert payload["message"].endswith("within 1 steps")

    def test_unconverged_axis_0_is_a_recovery_failure(self, spec_file, tmp_path, capsys):
        # no axis-0 fit of the sparse lines reaches --tol 1e-300
        lines, result = str(tmp_path / "lines.json"), str(tmp_path / "r.json")
        assert run("generate", spec_file, "--N", "15", "--coverage", "sparse:7",
                   "--out", lines) == 0
        capsys.readouterr()
        assert run("recover", lines, "--method", "sparse", "--tol", "1e-300",
                   "--out", result) == 3
        assert read_json(result) == {
            "method": "sparse", "error": "NoConvergence",
            "message": "axis 0: greedy fit did not reach tolerance within 15 steps"}
        assert "Traceback" not in capsys.readouterr().err

    def test_hidden_pole_is_a_recovery_failure(self, tmp_path, capsys):
        # the second term's amplitude cancels the first one's slice on its
        # central line, so the tree misses a pole; the resynthesis spot check
        # must end the verb on exit 3, not exit 0 with the wrong signal
        poles = np.array([[0.3 + 0.2j, 1.4 - 0.1j], [0.3 + 0.2j, -2.2 + 0.3j],
                          [-1.7 - 0.25j, 0.9 + 0.15j]])
        amplitudes = [1.0, -poles[1, 1] / poles[0, 1], 0.7]
        spec = tmp_path / "sig.json"
        spec.write_text(json.dumps(signal_to_json(
            signal_from_amplitudes(poles, amplitudes, 2 * np.pi), 2 * np.pi)))
        grid = str(tmp_path / "grid.json")
        assert run("generate", str(spec), "--N", "12", "--coverage", "full",
                   "--out", grid) == 0
        result = str(tmp_path / "r.json")
        assert run("recover", grid, "--method", "recursive", "--out", result) == 3
        payload = read_json(result)
        assert payload["error"] == "ResynthesisMismatch"
        assert "RESYNTHESIS_TOL" in payload["message"]
        assert "ResynthesisMismatch" in capsys.readouterr().err

    def test_per_entry_full_grid_rejected(self, spec_file, tmp_path):
        grid = tmp_path / "grid.json"
        grid.write_text(json.dumps({
            "d": 1, "P": 1.0, "N": 1, "coverage": "full",
            "entries": [{"k": [k], "c": [1.0, 0.0]} for k in (-1, 0, 1)],
        }))
        code = run("recover", str(grid), "--method", "recursive",
                   "--out", str(tmp_path / "r.json"))
        assert code == 1

    def test_boolean_in_dense_grid_rejected(self, spec_file, tmp_path):
        grid = tmp_path / "grid.json"
        run("generate", spec_file, "--N", "3", "--coverage", "full", "--out", str(grid))
        obj = json.loads(grid.read_text())
        obj["values"] = True
        grid.write_text(json.dumps(obj))
        result = tmp_path / "r.json"
        code = run("recover", str(grid), "--method", "recursive", "--out", str(result))
        assert code == 1
        assert not result.exists()

    @pytest.mark.parametrize("coverage", ["full", "sparse:7"])
    def test_re_im_file_rejected(self, spec_file, tmp_path, capsys, coverage):
        # the layout of earlier versions: "re" and "im" lists of JSON numbers
        grid = tmp_path / "grid.json"
        run("generate", spec_file, "--N", "15", "--coverage", coverage, "--out", str(grid))
        obj = json.loads(grid.read_text())
        values = wire_values(obj)
        del obj["dtype"], obj["values"]
        obj["re"], obj["im"] = values.real.tolist(), values.imag.tolist()
        grid.write_text(json.dumps(obj))
        capsys.readouterr()
        result = tmp_path / "r.json"
        method = "recursive" if coverage == "full" else "sparse"
        code = run("recover", str(grid), "--method", method, "--out", str(result))
        assert code == 1
        assert capsys.readouterr().err.splitlines() == [
            "error: cannot read coefficient grid: coefficient grid object has no 'dtype' field"
        ]
        assert not result.exists()

    def test_nonfinite_period_in_grid_rejected(self, spec_file, tmp_path):
        grid = tmp_path / "grid.json"
        run("generate", spec_file, "--N", "3", "--coverage", "full", "--out", str(grid))
        obj = json.loads(grid.read_text())
        obj["P"] = float("nan")
        grid.write_text(json.dumps(obj))
        result = tmp_path / "r.json"
        code = run("recover", str(grid), "--method", "recursive", "--out", str(result))
        assert code == 1
        assert not result.exists()

    # each token reads as the original value under int() or float()
    @pytest.mark.parametrize("field, token", [("N", 15.9), ("P", "4.0")])
    def test_edited_sparse_file_rejected(self, spec_file, tmp_path, field, token):
        grid = tmp_path / "grid.json"
        run("generate", spec_file, "--N", "15", "--coverage", "sparse:7", "--out", str(grid))
        obj = json.loads(grid.read_text())
        obj[field] = token
        grid.write_text(json.dumps(obj))
        result = tmp_path / "r.json"
        code = run("recover", str(grid), "--method", "sparse", "--out", str(result))
        assert code == 1
        assert not result.exists()

    def test_per_entry_sparse_file_rejected(self, spec_file, tmp_path):
        # the per-entry layout of earlier versions: {"k": index, "c": [re, im]}
        grid = tmp_path / "grid.json"
        run("generate", spec_file, "--N", "15", "--coverage", "sparse:7", "--out", str(grid))
        obj = json.loads(grid.read_text())
        rows = SparseLines(7).unique_indices(2, 15).tolist()
        values = wire_values(obj).tolist()
        del obj["dtype"], obj["values"]
        obj["entries"] = [{"k": k, "c": [z.real, z.imag]} for k, z in zip(rows, values)]
        grid.write_text(json.dumps(obj))
        result = tmp_path / "r.json"
        code = run("recover", str(grid), "--method", "sparse", "--out", str(result))
        assert code == 1
        assert not result.exists()

    @pytest.mark.parametrize("coverage", [5, ["sparse:7"]])
    def test_non_string_coverage_rejected(self, tmp_path, capsys, coverage):
        grid = tmp_path / "grid.json"
        grid.write_text(json.dumps({"d": 1, "P": 1.0, "N": 1, "coverage": coverage}))
        result = tmp_path / "r.json"
        code = run("recover", str(grid), "--method", "sparse", "--out", str(result))
        assert code == 1
        assert "coverage descriptor must be a string" in capsys.readouterr().err
        assert not result.exists()

    @pytest.mark.parametrize("tol", ["0", "-1", "nan", "inf"])
    def test_bad_tol(self, tmp_path, capsys, tol):
        # refused before the grid is read: the grid file does not exist
        result = tmp_path / "r.json"
        code = run("recover", str(tmp_path / "missing.json"), "--method", "sparse",
                   "--tol", tol, "--out", str(result))
        assert code == 1
        assert capsys.readouterr().err.splitlines() == [
            f"error: --tol must be finite and positive, got {float(tol)}"
        ]
        assert not result.exists()

    def test_negative_seed(self, spec_file, tmp_path, capsys):
        grid = str(tmp_path / "grid.json")
        run("generate", spec_file, "--N", "6", "--coverage", "full", "--out", grid)
        capsys.readouterr()
        result = tmp_path / "r.json"
        code = run("recover", grid, "--method", "recursive", "--seed", "-1",
                   "--out", str(result))
        assert code == 1
        assert capsys.readouterr().err.splitlines() == [
            "error: --seed must be non-negative, got -1"
        ]
        assert not result.exists()


class TestCompare:
    def test_identical(self, spec_file, capsys):
        assert run("compare", spec_file, spec_file) == 0
        out = capsys.readouterr().out
        assert "0.0000e+00" in out

    def test_permuted_rows(self, spec_file, tmp_path, capsys):
        sig = BIVARIATE_5.signal
        perm = [4, 2, 0, 1, 3]
        shuffled = ExponentialSum(sig.frequencies[perm], sig.coefficients[perm])
        other = tmp_path / "perm.json"
        other.write_text(json.dumps(signal_to_json(shuffled, BIVARIATE_5.P)))
        assert run("compare", spec_file, str(other)) == 0
        line = capsys.readouterr().out.splitlines()[1]
        assert line.split()[:2] == ["0.0000e+00", "0.0000e+00"]

    def test_parse_error(self, spec_file, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("[")
        assert run("compare", spec_file, str(bad)) == 1

    def test_seed_is_ignored(self, tmp_path, capsys):
        # d=4, where the error lattice was once a seeded subsample: --seed
        # still parses, and changes nothing
        sig = QUADVARIATE_9.signal
        truth, other = tmp_path / "sig4.json", tmp_path / "other4.json"
        truth.write_text(json.dumps(signal_to_json(sig, QUADVARIATE_9.P)))
        other.write_text(json.dumps(signal_to_json(
            ExponentialSum(sig.frequencies * (1 + 1e-9), sig.coefficients), QUADVARIATE_9.P)))
        tables = []
        for seed in ([], ["--seed", "5"]):
            assert run("compare", str(truth), str(other), *seed) == 0
            out = capsys.readouterr()
            assert out.err == ""
            tables.append(out.out)
        assert tables[0] == tables[1]
        assert float(tables[0].splitlines()[1].split()[2]) > 0.0

    def test_failed_recovery_result(self, spec_file, tmp_path, capsys):
        # the file recover writes on exit 3 holds no signal: compare names
        # the recorded failure instead of a missing field
        grid, result = str(tmp_path / "grid.json"), str(tmp_path / "r.json")
        run("generate", spec_file, "--N", "1", "--coverage", "full", "--out", grid)
        assert run("recover", grid, "--method", "recursive", "--out", result) == 3
        capsys.readouterr()
        report = tmp_path / "report.json"
        assert run("compare", spec_file, result, "--json", str(report)) == 1
        out = capsys.readouterr()
        assert out.out == ""
        assert out.err.splitlines() == [
            "error: the result file records a failed recovery: NoConvergence: at pole "
            "path (): greedy fit did not reach tolerance within 1 steps"
        ]
        assert not report.exists()

    def test_json_report(self, spec_file, tmp_path):
        out = str(tmp_path / "report.json")
        assert run("compare", spec_file, spec_file, "--json", out) == 0
        report = read_json(out)
        assert report["e_frequency"] == 0.0

    def test_overflowing_signal_is_an_input_error(self, tmp_path):
        # generate accepts this signal, but exp(100 * 10) overflows the
        # error lattice
        path = tmp_path / "big.json"
        path.write_text(json.dumps({"d": 1, "P": 1.0, "gamma": [[1, 0], [2, 0]],
                                    "lambda": [[[100, 1]], [[-2, 3]]]}))
        proc = subprocess.run([sys.executable, "-m", "expanal.cli", "compare",
                               str(path), str(path)],
                              capture_output=True, text=True,
                              env=dict(os.environ, PYTHONPATH=SRC))
        assert proc.returncode == 1
        assert proc.stdout == ""
        assert proc.stderr.splitlines() == [
            "error: the truth signal overflows a float on the error lattice over "
            "SIGNAL_BOX = (-10.0, 10.0) per axis"
        ]

    def test_lattice_past_d_14_is_an_input_error(self, tmp_path):
        # 3 points per axis at d = 15 already exceed MAX_SIGNAL_POINTS
        path = tmp_path / "d15.json"
        path.write_text(json.dumps({"d": 15, "P": 1.0, "gamma": [[1, 0]],
                                    "lambda": [[[0, 0.1]] * 15]}))
        proc = subprocess.run([sys.executable, "-m", "expanal.cli", "compare",
                               str(path), str(path)],
                              capture_output=True, text=True,
                              env=dict(os.environ, PYTHONPATH=SRC))
        assert proc.returncode == 1
        assert proc.stdout == ""
        assert proc.stderr.splitlines() == [
            "error: the error lattice at d = 15 exceeds MAX_SIGNAL_POINTS = 8,000,000 with "
            "3 points per axis; relative_errors supports d <= 14"
        ]

    def test_overflowing_difference_is_an_input_error(self, tmp_path):
        # each signal peaks at 1e308 on the lattice, their difference at 2e308
        rate = np.log(1e307) / 10
        paths = []
        for sign in (1, -1):
            paths.append(tmp_path / f"big{sign}.json")
            paths[-1].write_text(json.dumps({"d": 1, "P": 1.0, "gamma": [[10 * sign, 0]],
                                             "lambda": [[[rate, 0]]]}))
        proc = subprocess.run([sys.executable, "-m", "expanal.cli", "compare", *map(str, paths)],
                              capture_output=True, text=True,
                              env=dict(os.environ, PYTHONPATH=SRC))
        assert proc.returncode == 1
        assert proc.stdout == ""
        assert proc.stderr.splitlines() == [
            "error: the truth and recovered signals differ by more than a float holds on the "
            "error lattice over SIGNAL_BOX = (-10.0, 10.0) per axis"
        ]


class TestPlotGrid:
    def test_bivariate_count(self, tmp_path):
        out = str(tmp_path / "grid.csv")
        assert run("plot-grid", "--d", "2", "--N", "15", "--tau", "7",
                   "--out", out) == 0
        lines = pathlib.Path(out).read_text().strip().splitlines()
        assert lines[0] == "k1,k2,category"
        assert len(lines) - 1 == 79

    def test_trivariate_groups(self, tmp_path):
        out = str(tmp_path / "grid.csv")
        assert run("plot-grid", "--d", "3", "--N", "15", "--tau", "4",
                   "--out", out) == 0
        lines = pathlib.Path(out).read_text().strip().splitlines()[1:]
        axis_rows = [l for l in lines if l.endswith(",axis")]
        diag_rows = [l for l in lines if l.endswith(",diagonal")]
        assert len(axis_rows) == 3 * 31
        assert len(diag_rows) == 2 * (31 - 8)

    def test_bad_parameters(self, tmp_path):
        assert run("plot-grid", "--d", "2", "--N", "5", "--tau", "5",
                   "--out", str(tmp_path / "x.csv")) == 1


class TestDeterminism:
    def test_generate_bytes(self, spec_file, tmp_path):
        a, b = str(tmp_path / "a.json"), str(tmp_path / "b.json")
        run("generate", spec_file, "--N", "10", "--coverage", "sparse:4", "--out", a)
        run("generate", spec_file, "--N", "10", "--coverage", "sparse:4", "--out", b)
        assert pathlib.Path(a).read_bytes() == pathlib.Path(b).read_bytes()

    def test_recover_bytes_modulo_wall_time(self, spec_file, tmp_path):
        grid = str(tmp_path / "grid.json")
        run("generate", spec_file, "--N", "15", "--coverage", "sparse:7",
            "--out", grid)
        outs = []
        for name in ("r1.json", "r2.json"):
            path = str(tmp_path / name)
            run("recover", grid, "--method", "sparse", "--truth", spec_file,
                "--out", path)
            payload = read_json(path)
            payload["wall_time"] = None
            outs.append(json.dumps(payload, sort_keys=True))
        assert outs[0] == outs[1]

    def test_compare_bytes(self, spec_file, tmp_path):
        a, b = str(tmp_path / "a.json"), str(tmp_path / "b.json")
        run("compare", spec_file, spec_file, "--json", a)
        run("compare", spec_file, spec_file, "--json", b)
        assert pathlib.Path(a).read_bytes() == pathlib.Path(b).read_bytes()


def test_thread_cap_applied(monkeypatch, tmp_path):
    monkeypatch.setenv("EXPANAL_THREADS", "2")
    monkeypatch.delenv("OMP_NUM_THREADS", raising=False)
    run("plot-grid", "--d", "2", "--N", "6", "--tau", "2",
        "--out", str(tmp_path / "g.csv"))
    assert os.environ["OMP_NUM_THREADS"] == "2"
