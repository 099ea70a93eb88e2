"""Command line driver: exit codes, JSON determinism, file handling."""

import json
import math
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import conetorsion
from conetorsion import berezin, cli, verify
from conetorsion.cli import main, parse_base
from conetorsion.operators import ModelOperator, eigenvalues_oracle
from conetorsion.spectrum import UnsupportedManifoldError


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_fresh(code, *argv):
    """Run code in a new interpreter that imports this checkout's package;
    return its last stdout line as JSON."""
    src = str(Path(conetorsion.__file__).resolve().parents[1])
    res = subprocess.run([sys.executable, "-c", code, *argv], capture_output=True,
                         text=True, timeout=300, env={**os.environ, "PYTHONPATH": src})
    assert res.returncode == 0, res.stderr
    return json.loads(res.stdout.splitlines()[-1])


# every command here must leave numpy and scipy unloaded
NO_ORACLE_COMMANDS = """
import contextlib, io, json, sys
from conetorsion import cli
spec = sys.argv[1]
commands = [
    ["torsion", "--base", "sphere:3"],
    ["verify", "--suite", "dm"],
    ["verify", "--suite", "scaling"],
    ["verify", "--suite", "duality"],
    ["verify", "--suite", "wronskian"],
    ["spectrum", "--base", "sphere:3", "--cutoff", "20", "--out", spec],
    ["torsion", "--spectrum-file", spec],
]
with contextlib.redirect_stdout(io.StringIO()):
    codes = [cli.main(argv) for argv in commands]
print(json.dumps({"codes": codes,
                  "loaded": sorted({"numpy", "scipy"} & set(sys.modules))}))
"""


def test_commands_without_an_oracle_never_load_numpy_or_scipy(tmp_path):
    # a subprocess, because other tests load numpy into the pytest process
    out = run_fresh(NO_ORACLE_COMMANDS, str(tmp_path / "s3.spec"))
    assert out["codes"] == [0] * 7
    assert out["loaded"] == []


ORACLE_CALL = """
import json, sys
from fractions import Fraction
from conetorsion.operators import ModelOperator, eigenvalues_oracle
lam = eigenvalues_oracle(ModelOperator("psi2", 0.5, Fraction(1, 2), Fraction(1, 2)), 6)
print(json.dumps({"lam": lam, "loaded": sorted({"numpy", "scipy"} & set(sys.modules))}))
"""


def test_an_oracle_loads_numpy_and_scipy_on_first_use():
    out = run_fresh(ORACLE_CALL)
    assert out["loaded"] == ["numpy", "scipy"]
    # order 1/2: sin(mu (x - 1/2)) with f'(1) = 0, so mu = (2i - 1) pi
    assert all(abs(lam / ((2 * i - 1) * math.pi) ** 2 - 1) < 1e-14
               for i, lam in enumerate(out["lam"], 1))
    op = ModelOperator("psi2", 0.5, Fraction(1, 2), Fraction(1, 2))
    assert out["lam"] == eigenvalues_oracle(op, 6)


def test_parse_base():
    M = parse_base("sphere:3")
    assert M.kind == "sphere" and M.n == 3 and M.rank == 1
    M = parse_base("torus:5:2:1/4")
    assert M.kind == "torus" and M.rank == 2 and str(M.scale) == "1/4"
    with pytest.raises(UnsupportedManifoldError):
        parse_base("klein:3")
    with pytest.raises(UnsupportedManifoldError):
        parse_base("sphere:x")


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
