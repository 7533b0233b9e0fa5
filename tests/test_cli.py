import functools
import json
import math
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import oel
from oel import cli, entropy
from oel.chains import DEFAULT_TOL
from oel.cli import main
from oel.entropy import OperatorChainVerdict
from oel.errors import TRIAL_ERRORS
from oel.funcs import REGISTRY, FunctionSpec
from oel.harness import CHAINS, GeneratorConfig, _emit_json, trial_rng
from test_harness import _fingerprint
from test_linalg import count_eig_calls, dump_matrix


@pytest.fixture()
def matrices(tmp_path):
    a = tmp_path / "A.json"
    b = tmp_path / "B.json"
    dump_matrix(np.eye(2), a)
    dump_matrix(np.diag([2.0, 3.0]), b)
    return str(a), str(b)


def test_compute_relative_entropy(matrices, capsys):
    a, b = matrices
    assert main(["compute", "S", "--A", a, "--B", b]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["n"] == 2
    assert out["data"][0][0] == pytest.approx(math.log(2.0), rel=1e-12)
    assert out["data"][1][1] == pytest.approx(math.log(3.0), rel=1e-12)


def test_compute_tsallis_identity(matrices, capsys):
    a, b = matrices
    assert main(["compute", "T", "--A", a, "--B", b, "--t", "1"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["data"][0][0] == pytest.approx(1.0)
    assert out["data"][1][1] == pytest.approx(2.0)


def test_compute_requires_t(matrices, capsys):
    a, b = matrices
    assert main(["compute", "T", "--A", a, "--B", b]) == 2
    assert "error" in capsys.readouterr().err


@pytest.mark.parametrize("kind", ["T", "St"])
@pytest.mark.parametrize("t", ["nan", "inf", "-inf"])
def test_compute_refuses_non_finite_t(matrices, capsys, kind, t):
    # a usage error naming t, not a complaint about the output matrix, and
    # no numpy warning before it
    a, b = matrices
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["compute", kind, "--A", a, "--B", b, "--t", t]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err == f"error: t must be finite, got {t}\n"


def test_compute_malformed_matrix(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{ nope")
    ok = tmp_path / "ok.json"
    dump_matrix(np.eye(2), ok)
    assert main(["compute", "S", "--A", str(bad), "--B", str(ok)]) == 2


@pytest.mark.parametrize("A, B, option", [("big", "ok", "A"), ("ok", "big", "B"), ("ok", "weird", "B"), ("ok", "strings", "B")])
def test_compute_names_the_refused_operand(tmp_path, A, B, option):
    # the whole stderr of an `oel` process, with numpy's RuntimeWarnings
    # raised as errors: a refused matrix file is named by its option, as
    # `oel verify` names it. An entry that float() does not take once made
    # both print a TypeError traceback and exit 1
    (tmp_path / "big").write_text('{"n": 2, "data": [[9e307, 0.0], [0.0, 1.0]]}')
    (tmp_path / "weird").write_text('{"n": 2, "data": [[1.0, {}], [{}, 1.0]]}')
    (tmp_path / "strings").write_text('{"n": 2, "data": [["2", "0.5"], ["0.5", "1e0"]]}')  # numpy casts these
    dump_matrix(np.diag([2.0, 1.0]), tmp_path / "ok")
    messages = {
        "big": "matrix entries must be below 8e+307 in magnitude, got 9e+307",
        "weird": "matrix entries must be real numbers",
        "strings": "matrix entries must be real numbers",
    }
    src = str(Path(oel.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    for verb in (["compute", "S"], ["verify", "zou", "--t", "0.5"]):
        proc = subprocess.run(
            [sys.executable, "-W", "error::RuntimeWarning", "-m", "oel.cli", *verb, "--A", A, "--B", B],
            capture_output=True, text=True, env=env, cwd=tmp_path, check=False,
        )
        error = f"error: --{option}: {messages[A if option == 'A' else B]}\n"
        assert (proc.returncode, proc.stdout, proc.stderr) == (2, "", error), verb


def test_verify_pass_fail_error_na(matrices, capsys):
    # pass
    assert main(["verify", "cor-3.8", "--a", "4", "--b", "1", "--t", "0.25"]) == 0
    verdict = json.loads(capsys.readouterr().out)
    assert verdict["pass"] is True and verdict["witness"]["refinement_regime"] is True
    # fail: negative tolerance demands strictly positive slack everywhere
    assert main(["verify", "cor-3.8", "--a", "4", "--b", "4", "--t", "0.25", "--tol", "-1"]) == 1
    capsys.readouterr()
    # usage error: unknown chain
    assert main(["verify", "nope-1.1"]) == 2
    # pass of an operator chain at m = M = 1 (B = A); the not-applicable
    # exit is test_verify_not_applicable_exit_code's
    a, _ = matrices
    assert main(["verify", "thm-3.5", "--A", a, "--B", a, "--s", "0.5", "--t", "1.0"]) == 0
    capsys.readouterr()


def test_verify_not_applicable_exit_code(tmp_path, capsys):
    a = tmp_path / "A.json"
    b = tmp_path / "B.json"
    dump_matrix(np.eye(2), a)
    dump_matrix(np.diag([0.5, 2.0]), b)
    assert main(["verify", "thm-3.5", "--A", str(a), "--B", str(b), "--s", "0.5", "--t", "1"]) == 3
    verdict = json.loads(capsys.readouterr().out)
    assert verdict["status"] == "not-applicable"


def test_verify_operator_fixture(tmp_path, capsys):
    a = tmp_path / "A.json"
    b = tmp_path / "B.json"
    dump_matrix(np.eye(2), a)
    dump_matrix(math.exp(-2.0) * np.eye(2), b)
    assert main(["verify", "thm-3.6", "--A", str(a), "--B", str(b)]) == 0
    verdict = json.loads(capsys.readouterr().out)
    assert verdict["regime"]["case"] == "below-1-over-e"
    assert verdict["links"][1]["data"][0][0] == pytest.approx(-2.0, abs=1e-10)
    # below m = 5.26e-5 the lower coefficient leaves float range: its link
    # holds, and the pair passes with no numpy warning and no finite coefficient
    dump_matrix(np.diag([1e-5, 0.3]), b)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["verify", "thm-3.6", "--A", str(a), "--B", str(b)]) == 0
    verdict = json.loads(capsys.readouterr().out)
    assert verdict["status"] == "pass" and verdict["regime"]["lower_coef"] is None
    assert len(verdict["verdicts"]) == 2


def test_verify_missing_required_flag(capsys):
    assert main(["verify", "prop-2.1", "--a", "1", "--b", "4"]) == 2
    assert "missing required" in capsys.readouterr().err


def test_verify_scalar_examples(capsys):
    assert main(["verify", "prop-2.1", "--a", "1", "--b", "4", "--v", "0.5", "--n", "1"]) == 0
    capsys.readouterr()
    assert main(["verify", "thm-2.6-convex", "--fn", "inv-pow-1", "--s", "1", "--t", "2"]) == 0
    capsys.readouterr()
    assert main(["verify", "cor-2.4", "--w", "0.5,0.5", "--x", "1,4", "--t", "1"]) == 0
    capsys.readouterr()
    assert main(["verify", "lem-3.4", "--x", "2", "--s", "0.5", "--t", "1"]) == 0
    capsys.readouterr()
    assert main(["verify", "thm-2.12", "--A", "", "--B", ""]) == 2
    capsys.readouterr()


def test_verify_two_function_defaults(tmp_path, capsys):
    a = tmp_path / "A.json"
    dump_matrix(np.diag([1.6, 3.5]), a)
    assert main(["verify", "thm-2.12", "--A", str(a), "--B", str(a), "--mode", "expectation"]) == 0
    capsys.readouterr()


def test_verify_expectation_mode_needs_no_b(tmp_path, capsys):
    # expectation mode never reads B, so it does not open a --B file either
    # and a bad one changes neither the exit code nor the output; the modes
    # that do read B still demand it and refuse a bad one
    a = tmp_path / "A.json"
    dump_matrix(np.diag([1.6, 3.5]), a)
    argv = ["verify", "thm-2.12", "--A", str(a)]
    assert main(argv) == 0
    expected = capsys.readouterr().out
    bad = {
        "malformed.json": "{ nope",
        "asymmetric.json": '{"n": 2, "data": [[2.0, 1.0], [0.0, 2.0]]}',
        "not-square.json": '{"n": 2, "data": [[1.0, 2.0, 3.0], [4.0, 5.0, 6.0]]}',
    }
    for name, text in bad.items():
        (tmp_path / name).write_text(text)
    for extra in [[], *(["--B", str(tmp_path / name)] for name in [*bad, "missing.json"])]:
        assert main(argv + ["--mode", "expectation"] + extra) == 0, extra
        assert capsys.readouterr().out == expected, extra
    for mode in ("congruence", "majorize"):
        assert main(argv + ["--mode", mode]) == 2
        assert "--B" in capsys.readouterr().err
        assert main(argv + ["--mode", mode, "--B", str(tmp_path / "malformed.json")]) == 2
        assert "malformed matrix file" in capsys.readouterr().err
    assert main(["verify", "zou", "--A", str(a), "--t", "0.5"]) == 2
    assert "--B" in capsys.readouterr().err
    # an unknown mode reads no B either, and is refused as one (it once
    # asked for --B)
    assert main(argv + ["--mode", "bogus"]) == 2
    assert capsys.readouterr().err == "error: unknown mode 'bogus'\n"


def test_fuzz_exit_codes_and_determinism(tmp_path, capsys):
    out1 = tmp_path / "r1.json"
    out2 = tmp_path / "r2.json"
    args = ["fuzz", "prop-2.1", "--trials", "50", "--seed", "42"]
    assert main(args + ["--out", str(out1)]) == 0
    assert main(args + ["--out", str(out2)]) == 0
    capsys.readouterr()
    assert out1.read_bytes() == out2.read_bytes()
    doc = json.loads(out1.read_text())
    assert doc["seed"] == 42 and doc["chains"][0]["trials"] == 50
    assert (tmp_path / "r1.csv").exists()


def test_fuzz_stdout_and_failure_exit(capsys):
    assert main(["fuzz", "cor-3.8", "--trials", "5", "--seed", "1", "--tol", "-1"]) == 1
    captured = capsys.readouterr()
    doc = json.loads(captured.out)
    assert doc["chains"][0]["failures"]
    assert main(["fuzz", "unknown-chain", "--trials", "1"]) == 2


def test_fuzz_rejected_draws_keep_exit_code(monkeypatch, capsys):
    # no flag widens scalar_range, so widen it in the config the CLI builds
    monkeypatch.setattr(cli, "GeneratorConfig", functools.partial(GeneratorConfig, scalar_range=(1e-7, 1e7)))
    assert main(["fuzz", "zou", "--trials", "50", "--seed", "0"]) == 0
    chain = json.loads(capsys.readouterr().out)["chains"][0]
    assert chain["rejected"] > 0 and chain["failures"] == []


def test_main_calls_share_no_state(capsys):
    # one parser serves every call: a flag given to one call is not the next
    # call's default
    assert cli.build_parser() is cli.build_parser()
    assert main(["fuzz", "prop-2.1", "--trials", "3", "--pretty"]) == 0
    pretty = capsys.readouterr()
    assert "prop-2.1: trials=3" in pretty.err
    assert main(["fuzz", "prop-2.1", "--trials", "3"]) == 0
    plain = capsys.readouterr()
    assert plain.err == ""
    assert json.loads(plain.out)["chains"][0]["trials"] == 3
    assert plain.out == pretty.out


def test_main_calls_the_module_command(monkeypatch):
    # the command is looked up at each call, not bound when the parser is built
    cli.build_parser()
    seen = []
    monkeypatch.setattr(cli, "cmd_fuzz", lambda args: seen.append(args.chain) or 7)
    assert main(["fuzz", "zou", "--trials", "1"]) == 7
    assert seen == ["zou"]


def test_list_chains_and_functions(capsys):
    assert main(["list"]) == 0
    out = capsys.readouterr().out
    for cid in ("prop-2.1", "thm-2.6-convex", "cor-3.8", "zou", "thm-3.6", "thm-2.12"):
        assert cid in out
    # each chain's options, from its declaration, with their defaults
    assert "\nzou [operator] --A --B --t: five-link" in out
    assert "\nthm-2.2 [scalar] --fn=exp --s --t: " in out
    assert main(["list", "--functions"]) == 0
    out = capsys.readouterr().out
    assert "inv-sin" in out and "log_convex" in out


def test_pretty_output(matrices, capsys):
    a, b = matrices
    assert main(["compute", "S", "--A", a, "--B", b, "--pretty"]) == 0
    out = capsys.readouterr().out
    assert "0.693147" in out
    assert main(["verify", "cor-3.8", "--a", "4", "--b", "1", "--t", "0.25", "--pretty"]) == 0
    out = capsys.readouterr().out
    assert "PASS" in out and "min relative slack" in out
    assert main(["verify", "zou", "--A", a, "--B", b, "--t", "0.5", "--pretty"]) == 0
    out = capsys.readouterr().out
    assert "PASS" in out
    assert main(["fuzz", "prop-2.1", "--trials", "5", "--pretty"]) == 0
    err = capsys.readouterr().err
    assert "failures=0" in err


@pytest.mark.parametrize("argv", [
    ["compute", "S", "--B", "b.json"],
    ["compute", "T", "--t", "0.5", "--B", "b.json"],
    ["compute", "St", "--t", "0.5", "--B", "b.json"],
    ["verify", "zou", "--t", "0.5", "--B", "b.json"],
    ["verify", "thm-2.12", "--mode", "congruence", "--B", "c.json"],  # relative spectrum [2, 2.571]
])
def test_one_factorization_per_pair(argv, tmp_path, monkeypatch):
    # one eigh of A and one eigvalsh of X refuse or accept the pair, and one
    # eigh of X serves the entropy or every link matrix that is printed
    monkeypatch.chdir(tmp_path)
    dump_matrix(np.array([[2.0, 0.5], [0.5, 1.0]]), "a.json")
    dump_matrix(np.array([[1.0, -0.3], [-0.3, 3.0]]), "b.json")
    dump_matrix(np.array([[4.0, 1.0], [1.0, 2.5]]), "c.json")
    calls = count_eig_calls(monkeypatch)
    assert main([*argv, "--A", "a.json"]) == 0
    assert calls == {"eigh": 2, "eigvalsh": 1}


def test_majorize_mode_factors_A_and_B_in_one_eigh(tmp_path, monkeypatch):
    # A and B share one eigh call; eigvalsh decides B <= A, then the link
    monkeypatch.chdir(tmp_path)
    dump_matrix(np.array([[2.5, 0.5], [0.5, 3.0]]), "a.json")
    dump_matrix(np.array([[2.1, 0.5], [0.5, 2.6]]), "b.json")  # A - 0.4 I
    calls = count_eig_calls(monkeypatch)
    assert main(["verify", "thm-2.12", "--mode", "majorize", "--A", "a.json", "--B", "b.json"]) == 0
    assert calls == {"eigh": 1, "eigvalsh": 2}


NON_FINITE = ["nan", "inf", "-inf"]


@pytest.mark.parametrize("tol", NON_FINITE)
def test_verify_refuses_non_finite_tol(tol, capsys):
    for argv in (["--tol", tol], [f"--tol={tol}"]):
        assert main(["verify", "cor-3.8", "--a", "4", "--b", "1", "--t", "0.25", *argv]) == 2
        out = capsys.readouterr()
        assert out.out == "" and "must be finite" in out.err


@pytest.mark.parametrize("tol", NON_FINITE)
def test_fuzz_refuses_non_finite_tol(tol, capsys):
    assert main(["fuzz", "zou", "--trials", "2", "--tol", tol]) == 2
    out = capsys.readouterr()
    assert out.out == "" and "must be finite" in out.err


def test_fuzz_refuses_a_report_path_that_names_its_csv_sidecar(tmp_path, monkeypatch, capsys):
    # the CSV sidecar of r.csv is r.csv itself, which would overwrite the
    # JSON report: refused before any trial runs, and no file is written
    def no_fuzzing(*args):
        raise AssertionError("fuzzed")

    monkeypatch.chdir(tmp_path)
    monkeypatch.setattr(cli.harness, "fuzz_all", no_fuzzing)
    assert main(["fuzz", "zou", "--trials", "2", "--out", "r.csv"]) == 2
    out = capsys.readouterr()
    assert out.out == ""
    assert out.err == "error: --out r.csv: the report path must not end in .csv, the name of its CSV sidecar\n"
    assert list(tmp_path.iterdir()) == []
    with pytest.raises(ValueError, match="must not end in .csv"):
        cli.harness.write_report([], tmp_path / "r.csv")
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("out", [["--out", ""], ["--out="]])
def test_fuzz_refuses_an_empty_report_path(tmp_path, monkeypatch, capsys, out):
    # once taken for no --out, which printed the report to stdout and exited
    # 0: refused before any trial runs, and no file is written
    def no_fuzzing(*args):
        raise AssertionError("fuzzed")

    monkeypatch.chdir(tmp_path)
    monkeypatch.setattr(cli.harness, "fuzz_all", no_fuzzing)
    assert main(["fuzz", "zou", "--trials", "2", *out]) == 2
    assert capsys.readouterr() == ("", "error: --out : the report path is empty\n")
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("folder", ["no/such", "f.txt"])
def test_fuzz_refuses_a_report_path_outside_a_directory(tmp_path, monkeypatch, capsys, folder):
    # a report that could not be written once every trial has run: refused
    # before any trial runs, naming --out, and no file is written
    def no_fuzzing(*args):
        raise AssertionError("fuzzed")

    monkeypatch.chdir(tmp_path)
    monkeypatch.setattr(cli.harness, "fuzz_all", no_fuzzing)
    (tmp_path / "f.txt").write_text("")
    out = f"{folder}/r.json"
    assert main(["fuzz", "all", "--trials", "2000", "--out", out]) == 2
    printed = capsys.readouterr()
    assert printed.out == ""
    assert printed.err == f"error: --out {out}: {folder!r} is not a directory\n"
    assert sorted(path.name for path in tmp_path.iterdir()) == ["f.txt"]


@pytest.mark.parametrize("fuzz, out, reason", [
    (["all", "--trials", "2000"], "somedir", "'somedir' is a directory"),
    (["zou", "--trials", "50"], "out.json", "its CSV sidecar 'out.csv' is a directory"),
])
def test_fuzz_refuses_a_report_path_or_sidecar_that_is_a_directory(tmp_path, monkeypatch, capsys, fuzz, out, reason):
    # a report that could not be written once every trial had run, or a
    # sidecar once its report was: refused before any trial runs, naming
    # --out, and no file is written
    def no_fuzzing(*args):
        raise AssertionError("fuzzed")

    monkeypatch.chdir(tmp_path)
    monkeypatch.setattr(cli.harness, "fuzz_all", no_fuzzing)
    for folder in ("somedir", "out.csv"):
        (tmp_path / folder).mkdir()
    assert main(["fuzz", *fuzz, "--out", out]) == 2
    printed = capsys.readouterr()
    assert printed.out == ""
    assert printed.err == f"error: --out {out}: {reason}\n"
    assert sorted(path.name for path in tmp_path.rglob("*")) == ["out.csv", "somedir"]


@pytest.mark.parametrize("values", [
    ["--x", "-0.3,0.5", "--t", "0.5"],
    ["--x", "-0.3,0.5", "--t", "0.5", "--tol", "-1e-3"],  # an exponent form is not a plain negative number
    ["--x", "-0.3,-0.1", "--t", "0.5", "--tol", "-1"],
])
def test_spaced_negative_values_parse_like_attached_ones(values, capsys):
    base = ["verify", "cor-2.4", "--fn", "quad-exp-1-0", "--w", "0.5,0.5"]
    attached = [f"{opt}={val}" for opt, val in zip(values[::2], values[1::2])]
    code = main(base + attached)
    out = capsys.readouterr().out
    assert code in (0, 1) and out
    assert main(base + values) == code
    assert capsys.readouterr().out == out


def test_overflowing_pair_is_a_usage_error(tmp_path, capsys):
    # X = A^-1/2 B A^-1/2 overflows although A and B are finite and
    # positive-definite: refused with exit 2, not decided on NaN
    a, b = tmp_path / "A.json", tmp_path / "B.json"
    dump_matrix(1e-300 * np.eye(2), a)
    dump_matrix(1e300 * np.eye(2), b)
    for argv in (["compute", "S"], ["verify", "thm-3.6"], ["verify", "zou", "--t", "0.5"]):
        assert main([*argv, "--A", str(a), "--B", str(b)]) == 2
        assert capsys.readouterr().err == "error: B relative to A must be positive-definite: min eigenvalue nan, max nan\n"


def test_overflowing_pair_prints_only_the_error_line(tmp_path):
    # the whole stderr of an `oel` process: no numpy RuntimeWarning from
    # forming the overflowing X comes before the error line
    a, b = tmp_path / "A.json", tmp_path / "B.json"
    dump_matrix(1e-300 * np.eye(2), a)
    dump_matrix(1e300 * np.eye(2), b)
    src = str(Path(oel.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    for argv in (["compute", "S"], ["verify", "thm-3.6"]):
        proc = subprocess.run(
            [sys.executable, "-W", "default", "-m", "oel.cli", *argv, "--A", str(a), "--B", str(b)],
            capture_output=True, text=True, env=env, check=False,
        )
        assert proc.returncode == 2
        assert proc.stderr == "error: B relative to A must be positive-definite: min eigenvalue nan, max nan\n"


def test_overflowing_entropy_index_prints_only_the_error_line(tmp_path):
    # a large finite --t is refused with an error that names the entropy
    # and t, alone on stderr: no numpy RuntimeWarning, no complaint about
    # the output matrix
    a, b = tmp_path / "A.json", tmp_path / "B.json"
    a.write_text('{"n": 2, "data": [[2.0, 0.5], [0.5, 1.0]]}')
    b.write_text('{"n": 2, "data": [[1.0, -0.3], [-0.3, 3.0]]}')
    src = str(Path(oel.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    for kind, name in (("T", "Tsallis"), ("St", "generalized")):
        for t in ("800", "1e300", "-1e300"):
            proc = subprocess.run(
                [sys.executable, "-W", "default", "-m", "oel.cli", "compute", kind, "--t", t, "--A", str(a), "--B", str(b)],
                capture_output=True, text=True, env=env, check=False,
            )
            assert proc.returncode == 2, (kind, t)
            assert proc.stderr == f"error: the {name} entropy at t = {float(t)} overflows float range\n", (kind, t)


def test_underflowing_young_ratio_prints_only_the_error_line():
    # b/a underflows to 0: refused by name before any log, not as a bare
    # "math domain error"
    src = str(Path(oel.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run(
        [sys.executable, "-W", "default", "-m", "oel.cli", "verify", "cor-3.8", "--a", "1e300", "--b", "1e-300", "--t", "0.5"],
        capture_output=True, text=True, env=env, check=False,
    )
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert proc.stderr == "error: cor-3.8's b/a must be positive and finite, got 0.0\n"


def test_refusal_messages_print_plain_floats(tmp_path, capsys):
    # numpy scalars print as np.float64(...) under numpy 2 and bare under 1.x
    a, b, c = tmp_path / "A.json", tmp_path / "B.json", tmp_path / "C.json"
    dump_matrix(np.diag([1.0, -1.0]), a)
    dump_matrix(np.eye(2), b)
    c.write_text('{"n": 2, "data": [[1.0, 2.0], [0.0, 1.0]]}')
    assert main(["verify", "zou", "--A", str(a), "--B", str(b), "--t", "0.5"]) == 2
    assert capsys.readouterr().err == "error: A must be positive-definite: min eigenvalue -1.0, max 1.0\n"
    assert main(["verify", "zou", "--A", str(c), "--B", str(b), "--t", "0.5"]) == 2
    assert capsys.readouterr().err == "error: --A: matrix is not symmetric at (1, 0): 0.0 vs 2.0\n"


def _round_trip_draws():
    """A few drawn trials of every chain, of every mode of thm-2.12, and at a
    scalar range wide enough for refused pairs."""
    configs = [{"regime": {"mode": mode}} for mode in entropy.TWO_FUNCTION_MODES] + [{"scalar_range": (1e-7, 1e7)}]
    for seed, config in enumerate(configs):
        cfg = GeneratorConfig(seed=seed, trials=1, dim_range=(1, 3), **config)
        for entry in CHAINS.values():
            for k in range(2):
                yield entry, entry.generate(trial_rng(seed, k), cfg)


def _verify_argv(entry, params: dict, tol: float, tmp_path) -> list:
    """``oel verify`` arguments that state ``params`` through the chain's
    declaration."""
    argv = ["verify", entry.id, f"--tol={tol!r}"]
    for prm in entry.params:
        if prm.option is None or prm.name not in params:
            continue
        val = params[prm.name]
        if isinstance(val, np.ndarray):
            text = str(tmp_path / f"{prm.name}.json")
            dump_matrix(val, text)
        elif isinstance(val, FunctionSpec):
            text = val.id
        elif isinstance(val, list):
            text = ",".join(repr(v) for v in val)
        else:
            text = repr(val) if isinstance(val, float) else str(val)
        argv.append(f"--{prm.option}={text}")  # "=" keeps a leading minus sign a value
    return argv


def test_verify_round_trips_drawn_params_of_every_chain(tmp_path, capsys):
    seen = set()
    for i, (entry, drawn) in enumerate(_round_trip_draws()):
        params = dict(drawn)
        for prm in entry.params:  # a drawn parametric function has no registered id
            val = params.get(prm.name)
            if isinstance(val, FunctionSpec) and _fingerprint({0: val}) != _fingerprint({0: REGISTRY.get(val.id)}):
                params[prm.name] = REGISTRY[prm.default]
        tol = DEFAULT_TOL if i % 2 == 0 else -1.0  # a negative tolerance fails every applicable link
        argv = _verify_argv(entry, params, tol, tmp_path)
        assert _fingerprint(cli._build_params(entry.id, cli.build_parser().parse_args(argv))) == _fingerprint(params), argv
        try:
            verdict = entry.run(params, tol)
        except TRIAL_ERRORS:
            code, out = cli.EXIT_ERROR, ""
        else:
            out = _emit_json(verdict.to_dict()) + "\n"
            if isinstance(verdict, OperatorChainVerdict) and not verdict.applicable:
                code = cli.EXIT_NOT_APPLICABLE
            else:
                code = cli.EXIT_PASS if verdict.ok else cli.EXIT_FAIL
        assert main(argv) == code, argv
        assert capsys.readouterr().out == out, argv
        seen.add(code)
    assert seen == {0, 1, 2, 3}, seen


@pytest.mark.parametrize("argv, error", [
    (["thm-3.11", "--B", "c", "--t", "-inf"], "t must be finite, got -inf"),
    (["thm-3.5", "--B", "c", "--s", "nan", "--t", "0.5"], "s must be finite, got nan"),
    (["thm-3.3", "--B", "b", "--t", "inf"], "t must be finite, got inf"),
    (["thm-3.5", "--B", "c", "--s", "1e300", "--t", "0.5"], "thm-3.5: chain link has non-finite entries"),
    (["prop-3.10", "--B", "b", "--p", "1e300"], "prop-3.10: chain link has non-finite entries"),
    (["thm-2.12", "--B", "c", "--mode", "congruence", "--a", "4", "--b", "3"], "need b > a, got a=4.0, b=3.0"),
])
def test_pair_chain_parameter_errors_print_only_the_error_line(tmp_path, argv, error):
    # the whole stderr of an `oel` process: a non-finite parameter is
    # refused by name before any arithmetic, and a finite one at which a
    # link leaves float range fails with no numpy RuntimeWarning before it
    for name, data in {"a": [[2.0, 0.5], [0.5, 1.0]], "b": [[1.0, -0.3], [-0.3, 3.0]], "c": [[4.0, 1.0], [1.0, 2.5]]}.items():
        dump_matrix(np.array(data), tmp_path / name)
    src = str(Path(oel.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run(
        [sys.executable, "-W", "default", "-m", "oel.cli", "verify", *argv, "--A", "a"],
        capture_output=True, text=True, env=env, cwd=tmp_path, check=False,
    )
    assert (proc.returncode, proc.stdout, proc.stderr) == (2, "", f"error: {error}\n")


def test_importing_the_cli_leaves_numpy_random_to_the_first_draw():
    # a trial's stream subclasses np.random.Generator only when it is first
    # built, so that `oel` starts without importing numpy.random (about 15
    # ms); some numpy versions, 1.24 among them, import it with numpy itself
    src = str(Path(oel.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    loaded = {
        module: subprocess.run(
            [sys.executable, "-c", f"import sys, {module}; print('numpy.random' in sys.modules)"],
            capture_output=True, text=True, env=env, check=True,
        ).stdout
        for module in ("numpy", "oel.cli")
    }
    assert loaded["oel.cli"] == loaded["numpy"], loaded


# flagged against its values: a chain divides by f, or takes its log, only
# where the flags claim f positive, and every registered function is positive
# there, so only such a function reaches the positivity refusals
_IDENTITY = FunctionSpec(
    "identity", (-1.0, 2.0), float, lambda x: 1.0, frozenset({"log_convex", "monotone_increasing"})
)
_NEAR_5 = "4.999999999999999"  # the float below exp's right end


@pytest.mark.parametrize("argv, error", [
    # each flag message (cor-2.4's and thm-2.6's are among the two-fault rows)
    ("rem-2.3 --fn sin --s 1 --t 2 --p 2 --q 0", "'sin' is not flagged monotone_increasing"),
    ("thm-2.7 --fn sin --s 1 --t 2", "'sin' is not flagged geometrically_convex"),
    ("cor-2.8 --fn sin --a 1 --b 2 --t 0.5", "'sin' needs geometrically_convex, or log_convex + monotone_increasing"),
    ("cor-2.9-logconvex --fn pow-2 --w 1 --x 2", "'pow-2' is not flagged log_convex"),
    ("cor-2.9-geomconvex --fn sin --w 1 --x 1", "'sin' is not flagged geometrically_convex"),
    ("lem-3.7 --fn pow-2 --u 0.2 --w 0.5", "'pow-2' is not flagged log_convex"),
    # each name of a point outside the domain
    ("thm-2.2 --fn exp --s 0 --t 1", "s 0.0 outside domain (0.01, 5.0) of 'exp'"),
    ("thm-2.2 --fn exp --s 1 --t 6", "t 6.0 outside domain (0.01, 5.0) of 'exp'"),
    ("cor-2.4 --fn neg-log-wide --w 1 --x 2000 --t 0.5", "sample point 2000.0 outside domain (1e-06, 1000.0) of 'neg-log-wide'"),
    # the weights sum to 1 + 9e-13, so the mean rounds out of the domain
    (f"cor-2.4 --fn exp --w 0.5,0.5000000000009 --x {_NEAR_5},{_NEAR_5} --t 0.5",
     "mixed point 5.000000000002249 outside domain (0.01, 5.0) of 'exp'"),
    (f"cor-2.4 --fn exp --w 0.5,0.5000000000009 --x {_NEAR_5},{_NEAR_5} --t 1",
     "mean 5.000000000004499 outside domain (0.01, 5.0) of 'exp'"),
    ("cor-2.8 --fn exp --a 0 --b 1 --t 0.5", "a 0.0 outside domain (0.01, 5.0) of 'exp'"),
    ("cor-2.8 --fn exp --a 1 --b 6 --t 0.5", "b 6.0 outside domain (0.01, 5.0) of 'exp'"),
    (f"cor-2.8 --fn exp --a {_NEAR_5} --b {_NEAR_5} --t 0.2", "interpolant 5.0 outside domain (0.01, 5.0) of 'exp'"),
    # both positivity wordings
    ("thm-2.6-convex --fn identity --s -0.5 --t 0.5", "'identity' must be positive for ratio bounds"),
    ("cor-2.9-logconvex --fn identity --w 0.5,0.5 --x -0.5,0.25", "'identity' must be positive"),
    ("lem-3.7 --fn identity --u 0.2 --w 0.5", "'identity' must be positive"),
    # the weights messages (the sum's is among the two-fault rows)
    ("cor-2.4 --fn neg-log-wide --w -0.5,1.5 --x 1,2 --t 0.5", "weights must be positive"),
    ("cor-2.9-logconvex --fn inv-pow-1 --w 0.5,0.5 --x 1", "weights and points must have equal length"),
    # once an unmatched weight was dropped and the call reported a failure
    ("cor-2.4-am-gm --w 0.5,0.5 --x 2 --t 1", "weights and points must have equal length"),
    # once a ZeroDivisionError traceback with exit 1, then "float division by
    # zero": (t - s)**(p - 1) underflows
    ("rem-2.3 --fn exp --s 0.5 --t 1 --p 2000 --q 0",
     "rem-2.3's values must be within float range, got s=0.5, t=1.0, p=2000.0, q=0.0"),
    # once a TypeError traceback with exit 1: a negative b made the interpolant complex
    ("cor-2.8 --fn geo-interp-1-4 --a 1 --b -0.3 --t 0.2", "b must be positive and finite, got -0.3"),
    # once "mixed point nan outside domain" and "chain produced non-finite values"
    ("cor-2.4 --w nan,0.5 --x 1,2 --t 0.9", "weights must be positive"),
    ("cor-2.4-am-gm --w nan,0.5 --x 1,2 --t 0.9", "weights must be positive"),
    # once two numpy RuntimeWarnings, then "chain produced non-finite values"
    ("lem-3.4 --x 2.5 --s inf --t 1.5", "s must be finite, got inf"),
    # two faults: the first refusal of each chain wins
    ("prop-2.1 --a -1 --b 4 --v 0.5 --n 0", "n must be a positive integer, got 0"),
    ("thm-2.2 --fn exp --s 6 --t 1", "need t > s, got s=6.0, t=1.0"),
    ("rem-2.3 --fn sin --s 2 --t 1 --p 2 --q 0", "need t > s, got s=2.0, t=1.0"),
    ("rem-2.3 --fn sin --s 1 --t 2 --p 0.5 --q 0", "need p >= 1 and q <= 1, got p=0.5, q=0.0"),
    ("cor-2.4 --fn log --w 1 --x 2 --t 2", "'log' is not flagged convex"),
    ("cor-2.4 --fn exp --w 0.5,0.5 --x 4,100 --t 0.5", "mixed point 28.0 outside domain (0.01, 5.0) of 'exp'"),
    ("cor-2.4-am-gm --w 0.5,0.5 --x 2 --t 2", "need 0 < t <= 1, got 2.0"),
    ("cor-2.4-am-gm --w 0.5,0.6 --x -1,2 --t 1", "weights must sum to 1 within 1e-12, got 1.1"),
    ("thm-2.6-convex --fn pow-2 --s 0 --t 1", "'pow-2' is not flagged log_convex"),
    ("thm-2.6-concave --fn exp-pow-2 --s 0 --t 1", "'exp-pow-2' is not flagged log_concave"),
    ("thm-2.7 --fn exp --s -1 --t 10", "geometric convexity bounds need positive s, t"),
    ("cor-2.8 --fn exp --a 0 --b 1 --t 2", "need 0 <= t <= 1, got 2.0"),
    ("cor-2.9-logconvex --fn inv-pow-1 --w 0.5,0.6 --x 1", "weights must sum to 1 within 1e-12, got 1.1"),
    ("cor-2.9-geomconvex --fn exp --w 0.5,0.5 --x 0,10", "sample point 0.0 outside domain (0.01, 5.0) of 'exp'"),
    ("lem-3.4 --x 0.5 --s -1 --t 1", "need x >= 1, got 0.5"),
    ("lem-3.7 --fn exp-pow-2 --u 2 --w 0.5", "domain of 'exp-pow-2' must contain [0, 1]"),
    ("cor-3.8 --a -1 --b 1 --t 2", "a must be positive and finite, got -1.0"),
])
def test_scalar_refusals(argv, error, monkeypatch, capsys):
    monkeypatch.setitem(REGISTRY, _IDENTITY.id, _IDENTITY)
    assert main(["verify", *argv.split()]) == 2
    assert capsys.readouterr() == ("", f"error: {error}\n")


@pytest.mark.parametrize("argv, error", [
    ("cor-2.8 --fn geo-interp-1-4 --a 1 --b -0.3 --t 0.2", "b must be positive and finite, got -0.3"),
    ("cor-2.4 --w nan,0.5 --x 1,2 --t 0.9", "weights must be positive"),
    ("lem-3.4 --x 2.5 --s inf --t 1.5", "s must be finite, got inf"),
    ("lem-3.4 --x nan --s 1 --t 1.5", "x must be finite, got nan"),
    ("lem-3.4 --x 2 --s 1 --t -inf", "t must be finite, got -inf"),
    ("lem-3.4 --x 1e300 --s 3 --t 0.05", "lem-3.4's values must be within float range, got x=1e+300, s=3.0, t=0.05"),
    ("lem-3.4 --x 1e300 --s 0.05 --t 3", "lem-3.4's values must be within float range, got x=1e+300, s=0.05, t=3.0"),
    # once "(34, 'Numerical result out of range')": diff**q overflows
    ("rem-2.3 --fn exp --s 0.5 --t 0.6 --p 1 --q -400",
     "rem-2.3's values must be within float range, got s=0.5, t=0.6, p=1.0, q=-400.0"),
])
def test_scalar_refusals_print_only_the_error_line(argv, error):
    # the whole stderr of an `oel` process, with numpy's RuntimeWarnings
    # raised as errors: each call is refused by name before any arithmetic
    src = str(Path(oel.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run(
        [sys.executable, "-W", "error::RuntimeWarning", "-m", "oel.cli", "verify", *argv.split()],
        capture_output=True, text=True, env=env, check=False,
    )
    assert (proc.returncode, proc.stdout, proc.stderr) == (2, "", f"error: {error}\n")
