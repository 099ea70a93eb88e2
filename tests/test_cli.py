"""Command line driver: exit codes, JSON determinism, file handling."""

import gc
import json
import math
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import conetorsion
from conetorsion import berezin, cli, torsion, verify, zeta
from conetorsion.cli import main, parse_base
from conetorsion.operators import ModelOperator, eigenvalues_oracle
from conetorsion.spectrum import UnsupportedManifoldError


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# a new interpreter imports this checkout's package
FRESH_ENV = {**os.environ, "PYTHONPATH": str(Path(conetorsion.__file__).resolve().parents[1])}


def run_fresh(code, *argv):
    """Run code in a new interpreter; return its last stdout line as JSON."""
    res = subprocess.run([sys.executable, "-c", code, *argv], capture_output=True,
                         text=True, timeout=300, env=FRESH_ENV)
    assert res.returncode == 0, res.stderr
    return json.loads(res.stdout.splitlines()[-1])


def run_module(cwd, *argv):
    """Run `python -m conetorsion.cli` in a new process; return its exit code and output bytes."""
    res = subprocess.run([sys.executable, "-m", "conetorsion.cli", *argv], capture_output=True,
                         timeout=300, cwd=cwd, env=FRESH_ENV)
    return res.returncode, res.stdout, res.stderr


# every command here must leave numpy and scipy unloaded; mpmath loads at the
# first precision context, so the exact commands, which come first, leave it out
NO_ORACLE_COMMANDS = """
import contextlib, io, json, sys
from conetorsion import cli
spec = sys.argv[1]
commands = [
    ["verify", "--suite", "dm"],
    ["verify", "--suite", "scaling"],
    ["verify", "--suite", "duality"],
    ["spectrum", "--base", "sphere:3", "--cutoff", "20", "--out", spec],
    ["torsion", "--base", "sphere:3", "--precision", "10"],
    ["torsion", "--base", "sphere:3"],
    ["verify", "--suite", "wronskian"],
    ["verify", "--suite", "largenu"],
    ["verify", "--suite", "propp"],
    ["verify", "--suite", "propab"],
    ["torsion", "--spectrum-file", spec],
]
codes, mpmath_loaded = [], []
with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
    for argv in commands:
        codes.append(cli.main(argv))
        mpmath_loaded.append("mpmath" in sys.modules)
print(json.dumps({"codes": codes, "mpmath": mpmath_loaded,
                  "loaded": sorted({"numpy", "scipy"} & set(sys.modules))}))
"""


def test_commands_without_an_oracle_never_load_numpy_or_scipy(tmp_path):
    # a subprocess, because other tests load numpy and mpmath into the pytest process
    out = run_fresh(NO_ORACLE_COMMANDS, str(tmp_path / "s3.spec"))
    assert out["codes"] == [0, 0, 0, 0, 1] + [0] * 6
    assert out["loaded"] == []
    # dm, scaling, duality, the spectrum write and a refused precision: no mpmath
    assert out["mpmath"] == [False] * 5 + [True] * 6


ORACLE_CALL = """
import json, sys
from fractions import Fraction
from conetorsion.operators import ModelOperator, eigenvalues_oracle
lam = eigenvalues_oracle(ModelOperator("psi2", Fraction(1, 2), Fraction(1, 2), Fraction(1, 2)), 6)
print(json.dumps({"lam": lam, "loaded": sorted({"numpy", "scipy"} & set(sys.modules))}))
"""


def test_an_oracle_loads_only_numpy_on_first_use():
    out = run_fresh(ORACLE_CALL)
    assert out["loaded"] == ["numpy"]
    # order 1/2: sin(mu (x - 1/2)) with f'(1) = 0, so mu = (2i - 1) pi
    assert all(abs(lam / ((2 * i - 1) * math.pi) ** 2 - 1) < 1e-14
               for i, lam in enumerate(out["lam"], 1))
    op = ModelOperator("psi2", Fraction(1, 2), Fraction(1, 2), Fraction(1, 2))
    assert out["lam"] == eigenvalues_oracle(op, 6)


def test_the_package_import_loads_neither_dataclasses_nor_inspect():
    out = run_fresh("import json, sys\nimport conetorsion.cli\n"
                    "print(json.dumps(sorted({'dataclasses', 'inspect', 'mpmath'}"
                    " & set(sys.modules))))")
    assert out == []


def test_the_cli_import_loads_every_package_module():
    # perfbench/tracer.py wraps its LAYERS functions in the modules that this import loads
    out = run_fresh("import json, pkgutil, sys\nimport conetorsion.cli\n"
                    "print(json.dumps([m.name for m in pkgutil.iter_modules(conetorsion.__path__)"
                    " if 'conetorsion.' + m.name not in sys.modules]))")
    assert out == []


@pytest.mark.parametrize("argv, expected", [
    (["torsion", "--base", "sphere:3"], 0),
    (["torsion", "--base", "sphere:3", "--precision", "10"], 1),
])
def test_the_process_entry_prints_what_main_prints(capsys, tmp_path, argv, expected):
    frozen = gc.get_freeze_count()
    code, out, err = run(capsys, *argv)
    # only the process entry freezes the heap before its exit
    assert code == expected and gc.get_freeze_count() == frozen
    assert run_module(tmp_path, *argv) == (code, out.encode(), err.encode())


def test_the_process_entry_writes_the_file_main_writes(capsys, tmp_path):
    argv = ["spectrum", "--base", "torus:3", "--cutoff", "20", "--out"]
    assert run(capsys, *argv, str(tmp_path / "main.spec")) == (0, "", "")
    assert run_module(tmp_path, *argv, "module.spec") == (0, b"", b"")
    assert (tmp_path / "module.spec").read_bytes() == (tmp_path / "main.spec").read_bytes()


def test_parse_base():
    M = parse_base("sphere:3")
    assert M.kind == "sphere" and M.n == 3 and M.rank == 1
    M = parse_base("torus:5:2:1/4")
    assert M.kind == "torus" and M.rank == 2 and str(M.scale) == "1/4"
    with pytest.raises(UnsupportedManifoldError):
        parse_base("klein:3")
    with pytest.raises(UnsupportedManifoldError):
        parse_base("sphere:x")


@pytest.mark.parametrize("spec,name", [
    ("sphere:1", "sphere:1"), ("sphere:3:1", "sphere:3"), ("sphere:5:2", "sphere:5:2"),
    ("torus:3", "torus:3"), ("torus:3:1:1", "torus:3"), ("torus:5:3", "torus:5:3"),
    ("torus:3:1:4", "torus:3:1:4"), ("torus:3:2:1/4", "torus:3:2:1/4"),
    ("torus:7:1:0.25", "torus:7:1:1/4"), ("torus:3:2:2/1", "torus:3:2:2"),
    # scales whose exact text is longer than 20 characters
    ("torus:3:1:1e-300", "torus:3:1:1e-300"), ("torus:3:1:1e400", "torus:3:1:1e+400"),
    # and longer than the 4300 digits Python writes out
    ("torus:3:1:1e-5000", "torus:3:1:1e-5000"), ("torus:3:1:1e100000", "torus:3:1:1e+100000"),
])
def test_base_name_is_the_shortest_spec_that_reads_back(spec, name):
    M = parse_base(spec)
    assert M.name == name
    assert parse_base(name) == M
    fields = name.split(":")
    assert all(parse_base(":".join(fields[:i])) != M for i in range(2, len(fields)))


# past 1e999999, Decimal's default exponent limit, where naming the scale raised Overflow
@pytest.mark.parametrize("scale, name", [("1e-5000", "1e-5000"), ("1e100000", "1e+100000"),
                                         ("1e1000000", "1e+1000000")])
def test_torsion_reports_on_a_torus_scale_of_thousands_of_digits(capsys, scale, name):
    code, out, err = run(capsys, "torsion", "--base", f"torus:3:1:{scale}", "--precision", "20")
    assert (code, err) == (0, "")
    assert json.loads(out)["base"] == f"torus:3:1:{name}"


def test_torsion_sphere1(capsys):
    code, out, _ = run(capsys, "torsion", "--base", "sphere:1", "--precision", "30")
    assert code == 0
    data = json.loads(out)
    assert float(data["breakdown"]["res_spectral"]) == 0
    assert float(data["breakdown"]["res_anomaly"]) == 0


def test_torsion_sphere3_passes_audits(capsys):
    code, out, _ = run(capsys, "torsion", "--base", "sphere:3", "--precision", "30")
    assert code == 0
    data = json.loads(out)
    assert float(data["audits"]["headline_gap"]) < 1e-6


def test_torsion_table_format(capsys):
    code, out, _ = run(capsys, "torsion", "--base", "sphere:1", "--precision", "30",
                       "--format", "table")
    assert code == 0
    assert "total" in out and "audit:headline_gap" in out


def test_torsion_determinism(capsys):
    _, out1, _ = run(capsys, "torsion", "--base", "sphere:3", "--precision", "30")
    _, out2, _ = run(capsys, "torsion", "--base", "sphere:3", "--precision", "30")
    assert out1 == out2


def test_torsion_spectrum_file_flagged(capsys, tmp_path):
    path = tmp_path / "s3.spec"
    code, _, _ = run(capsys, "spectrum", "--base", "sphere:3", "--cutoff", "80",
                     "--out", str(path))
    assert code == 0
    code, out, _ = run(capsys, "torsion", "--spectrum-file", str(path), "--precision", "25")
    assert code == 0
    assert json.loads(out)["approximate"] is True


def test_spectrum_round_trip(capsys, tmp_path):
    path = tmp_path / "s1.spec"
    code, _, _ = run(capsys, "spectrum", "--base", "sphere:1", "--cutoff", "10",
                     "--out", str(path))
    assert code == 0
    lines = [l for l in path.read_text().splitlines()
             if "," in l and not l.startswith("betti=")]
    assert len(lines) == 10 and all(l.endswith(",2") for l in lines)
    code, out, _ = run(capsys, "spectrum", "--base", "sphere:1", "--cutoff", "10")
    assert code == 0 and out == path.read_text()


def test_headline_gate_is_relative_to_the_residual_term(capsys):
    # both sides are about -2.1e45, so a gap of 2.6e5 is 1.3e-40 of them: within 10^(5-P)
    code, out, _ = run(capsys, "torsion", "--base", "torus:3:1:1e-30", "--precision", "30")
    assert code == 0
    assert float(json.loads(out)["audits"]["headline_gap"]) > 1


@pytest.mark.parametrize("scale", ["1e10", "1e100"])
def test_headline_gate_fails_a_doubled_anomaly_side(monkeypatch, capsys, scale):
    # both sides are tiny here, so only a gate relative to them sees the doubling
    anomaly = torsion.anomaly_integral
    monkeypatch.setattr(torsion, "anomaly_integral", lambda M, P: 2 * anomaly(M, P))
    code, out, _ = run(capsys, "torsion", "--base", f"torus:3:1:{scale}")
    assert code == 2
    assert float(json.loads(out)["audits"]["headline_gap"]) < 1e-12


def test_logeps_audit_gates_the_exit_code(monkeypatch, capsys):
    # zeta(0) off by 1e-4 leaves a log(eps) coefficient of 5e-5 on S^3, which two
    # close radii hide from eps_cancel
    ccl = zeta.zeta_ccl_at_zero

    def shifted(*args):
        z0, z0p = ccl(*args)
        return z0 + 1e-4, z0p

    monkeypatch.setattr(zeta, "zeta_ccl_at_zero", shifted)
    code, out, _ = run(capsys, "torsion", "--base", "sphere:3", "--eps", "1/2,0.5000001")
    assert code == 2
    audits = json.loads(out)["audits"]
    assert float(audits["eps_cancel"]) < 1e-10 and float(audits["logeps_audit"]) > 1e-5


def test_bad_inputs(capsys):
    code, _, err = run(capsys, "torsion", "--base", "worm:3")
    assert code == 1 and "error" in err
    code, _, err = run(capsys, "torsion", "--base", "sphere:3", "--precision", "10")
    assert code == 1
    code, _, err = run(capsys, "spectrum", "--base", "sphere:1", "--cutoff", "10",
                       "--out", "/nonexistent-dir/x.spec")
    assert code == 1
    code, _, err = run(capsys, "torsion", "--spectrum-file", "/no/such/file")
    assert code == 1


def test_verify_suite_lines(capsys):
    code, out, _ = run(capsys, "verify", "--suite", "dm", "--rmax", "9")
    assert code == 0
    rec = json.loads(out.splitlines()[0])
    assert rec["suite"] == "dm" and rec["passed"] is True
    code, out, _ = run(capsys, "verify", "--suite", "scaling")
    assert code == 0


# the oracle suites' lines, byte for byte: the pack memo, the real field and
# the contour's basis change no printed digit; the K pair's own sources move
# propp from its 31st significant digit on (by 7.8e-62; its error at P = 50 is 3.9e-60)
@pytest.mark.parametrize("argv, line", [
    (["verify", "--suite", "htrunc"],
     '{"details": {"worst_at": [3, 0, "1/4"]}, "measure": "8.51961834413828e-10", '
     '"passed": true, "suite": "htrunc", "tolerance": "1e-08"}'),
    (["verify", "--suite", "detratio", "--grid", "tiny"],
     '{"details": {"grid": "tiny", "worst_at": ["psi0", "3/2", "1/2", "1/3", "1"]}, '
     '"measure": "1.566730998644678e-13", "passed": true, "suite": "detratio", '
     '"tolerance": "1e-06"}'),
    (["verify", "--suite", "largenu"],
     '{"details": {}, "measure": "{1: (2.021, 2.01), 2: (3.042, 3.021), 3: (4.012, 4.005), '
     '4: (5.144, 5.074)}", "passed": true, "suite": "largenu", '
     '"tolerance": "order R+1 +- 0.2"}'),
    (["verify", "--suite", "propp"],
     '{"details": {"combinations": 9}, "measure": '
     '"8.29249530956848030018761726082266509869174401331305178848434e-31", '
     '"passed": true, "suite": "propp", "tolerance": "1.0e-20"}'),
    (["verify", "--suite", "propab"],
     '{"details": {"eps": "1/3", "nu": "5/2"}, "measure": "-0.5384289690435461", '
     '"passed": true, "suite": "propab", "tolerance": "-0.5 +- 0.1"}'),
], ids=["htrunc", "detratio-tiny", "largenu", "propp", "propab"])
def test_oracle_suite_lines_are_pinned(capsys, argv, line):
    assert run(capsys, *argv) == (0, line + "\n", "")


def test_env_precision_default(monkeypatch, capsys):
    monkeypatch.setenv(cli.DEFAULT_PRECISION_ENV, "33")
    code, out, _ = run(capsys, "torsion", "--base", "sphere:1")
    assert code == 0 and json.loads(out)["precision"] == 33
    code, out, _ = run(capsys, "torsion", "--base", "sphere:1", "--precision", "25")
    assert code == 0 and json.loads(out)["precision"] == 25


def test_bad_env_precision_is_an_error_of_torsion_only(monkeypatch, capsys):
    monkeypatch.setenv(cli.DEFAULT_PRECISION_ENV, "abc")
    code, out, err = run(capsys, "verify", "--suite", "dm")
    assert code == 0 and json.loads(out)["passed"] is True and err == ""
    code, _, err = run(capsys, "spectrum", "--base", "sphere:1", "--cutoff", "3")
    assert code == 0 and err == ""
    code, out, err = run(capsys, "torsion", "--base", "sphere:1")
    assert code == 1 and out == ""
    assert err == f"error: bad {cli.DEFAULT_PRECISION_ENV}='abc'\n"


def test_scaling_suite_reports_an_odd_scale_power(monkeypatch, capsys):
    fold_scale = berezin.fold_scale

    def odd_always(x, scale):
        raise ArithmeticError("unbalanced scale half-power 3 survived")

    def odd_when_scaled(x, scale):
        return fold_scale(x, scale) if scale == 1 else odd_always(x, scale)

    for fake in (odd_always, odd_when_scaled):
        monkeypatch.setattr(berezin, "fold_scale", fake)
        res = verify.check_scaling_invariance()
        assert res["passed"] is False and res["measure"] == "3"
        assert all(f[-1] == "unbalanced scale half-power 3 survived"
                   for f in res["details"]["failures"])
        code, out, _ = run(capsys, "verify", "--suite", "scaling")
        assert code == 2 and json.loads(out)["passed"] is False


@pytest.mark.parametrize("argv", [
    ("torsion", "--base", "sphere:1", "--eps", "1/2,abc"),
    ("torsion", "--base", "sphere:1", "--eps", "1/2,1/0"),
    ("spectrum", "--base", "sphere:1", "--cutoff", "abc"),
    ("spectrum", "--base", "sphere:1", "--cutoff", "0"),
    # the eps audit compares at least two distinct radii
    ("torsion", "--base", "sphere:1", "--eps", "1/2"),
    ("torsion", "--base", "sphere:1", "--eps", "1/2,1/2"),
    # a zero denominator, and a field the base family does not have
    ("torsion", "--base", "torus:3:1:1/0"),
    ("torsion", "--base", "sphere:3:1:5"),
    ("torsion", "--base", "torus:3:1:1:9"),
    # lattice norms past what the torus lattice count can list
    ("spectrum", "--base", "torus:3", "--cutoff", "1e400"),
    ("spectrum", "--base", "torus:3:1:1e-300", "--cutoff", "20"),
    # the lattice count's step budget refuses these at once
    ("spectrum", "--base", "torus:3", "--cutoff", "1000"),
    ("spectrum", "--base", "torus:7", "--cutoff", "1000"),
    # more sphere lines than the line budget allows
    ("spectrum", "--base", "sphere:3", "--cutoff", "1e400"),
    ("spectrum", "--base", "sphere:7", "--cutoff", "1e6"),
    # an empty radius list is malformed, not absent
    ("torsion", "--base", "sphere:3", "--eps", ""),
])
def test_malformed_numbers_are_errors(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 1
    assert err.startswith("error: ")
    assert "Traceback" not in err
    if argv[-2] == "--base":  # the malformed value is the base itself
        assert out == ""
        assert err.startswith(f"error: cannot parse base {argv[-1]!r}")


@pytest.mark.parametrize("argv", [
    ("verify", "--suite", "dm", "--precision", "30"),
    ("spectrum", "--base", "sphere:1", "--cutoff", "10", "--format", "table"),
])
def test_options_a_subcommand_does_not_read_are_errors(capsys, argv):
    # exit 1 like every usage error: exit 2 means a failed check
    code, out, err = run(capsys, *argv)
    assert code == 1
    assert out == ""
    assert err.startswith("error: ") and argv[-2] in err
    assert "Traceback" not in err


@pytest.mark.parametrize("rmax", ["0", "-3"])
def test_verify_dm_rejects_rmax_below_one(capsys, rmax):
    code, out, err = run(capsys, "verify", "--suite", "dm", "--rmax", rmax)
    assert code == 1
    assert out == ""
    assert err.startswith("error: --rmax")
    with pytest.raises(ValueError):
        verify.check_dm_identity(int(rmax))


@pytest.mark.parametrize("rmax", [str(verify.MAX_RMAX + 1), "99999999999999999999"])
def test_verify_refuses_rmax_past_the_budget_at_once(capsys, monkeypatch, rmax):
    # refused before any suite runs: the dm identity past MAX_RMAX would take minutes
    monkeypatch.setitem(verify.SUITES, "dm", lambda **kwargs: pytest.fail("the dm suite ran"))
    code, out, err = run(capsys, "verify", "--suite", "dm", "--rmax", rmax)
    assert code == 1
    assert out == ""
    assert err.startswith(f"error: --rmax {rmax} is beyond the {verify.MAX_RMAX}")
    with pytest.raises(ValueError):
        verify.check_dm_identity(int(rmax))


# the message each case must carry, where the test pins one
SPECTRUM_FILE_MESSAGES = {
    "dim=3 rank=1\nbetti=1,0,0,1\n0,1e400,4\n": "eta 1e400 is too large for a float",
    "dim=3 rank=1\nbetti=1,0,0,1\n0,3,4\n1,3/0,4\n": "zero denominator in '3/0'",
}


@pytest.mark.parametrize("body, lineno", [
    ("dim=3 rank=1\nbetti=1,0,x,1\n0,3,4\n", 2),
    ("dim=3 rank=1\nbetti=-1,0,0,1\n0,3,4\n", 2),
    ("dim=3 rank=1\nbetti=1,0,0,1\n0,-3,4\n", 3),
    ("dim=3 rank=1\nbetti=1,0,0,1\n0,3,0\n", 3),
    ("dim=3 rank=1\nbetti=1,0,0,1\n9,3,4\n", 3),
    ("dim=3 rank=1\nbetti=1,0,0,1\n0,1e400,4\n", 3),
    ("dim=3 rank=1\nbetti=1,0,0,1\n0,3,4\n1,3/0,4\n", 4),
])
def test_malformed_spectrum_files_are_errors(capsys, tmp_path, body, lineno):
    path = tmp_path / "bad.spec"
    path.write_text(body)
    code, _, err = run(capsys, "torsion", "--spectrum-file", str(path))
    assert code == 1
    assert err.startswith(f"error: {path}:{lineno}: ")
    assert "Traceback" not in err
    assert SPECTRUM_FILE_MESSAGES.get(body, "") in err



def test_tiny_frequencies_of_a_whole_degree_are_an_error(capsys, tmp_path):
    path = tmp_path / "tiny.spec"
    path.write_text("dim=3 rank=1\nbetti=1,0,0,1\n0,3,4\n1,1e-250,4\n")
    code, out, err = run(capsys, "torsion", "--spectrum-file", str(path))
    assert code == 1
    assert out == ""
    assert err.startswith("error: ") and "degree 1" in err
    assert "Traceback" not in err


def test_one_tiny_frequency_among_normal_lines_is_fitted(capsys, tmp_path):
    path = tmp_path / "mixed.spec"
    path.write_text("dim=3 rank=1\nbetti=1,0,0,1\n0,3,4\n0,8,9\n1,1e-250,2\n1,3,4\n1,15,7\n")
    code, out, _ = run(capsys, "torsion", "--spectrum-file", str(path))
    assert code == 0
    data = json.loads(out)
    assert data["approximate"] is True
    assert data["breakdown"]["res_spectral"] is not None
