"""Self-tests of the benchmark harness.

Run from the root of a checkout::

    python3 perfbench/selftest.py

The file name keeps it out of the repository's pytest collection: the tracer
tests run the CLI for about half a minute, and their expected counts are
those of the code at the time the benchmark was defined.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import unittest
from decimal import Decimal, localcontext
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
from checks import check_output  # noqa: E402

SELFTEST_DIR = ".perfbench_selftest"

with open(run.REFS) as _fh:
    REFS = json.load(_fh)


def _rounded_report(ref_output: dict, precision: int) -> bytes:
    """The report the CLI would print at ``precision``, built from the 2P reference."""
    out = json.loads(json.dumps(ref_output))
    out["precision"] = precision
    with localcontext() as dc:
        dc.prec = precision
        for key, val in out["breakdown"].items():
            if val is not None:
                out["breakdown"][key] = str(+Decimal(val))
    return json.dumps(out).encode()


def _perturb(text: str, at: int) -> str:
    i = [k for k, ch in enumerate(text) if ch.isdigit()][at]
    return text[:i] + str((int(text[i]) + 1) % 10) + text[i + 1:]


class OutputChecks(unittest.TestCase):
    def test_report_matches_its_reference(self):
        ref = REFS["report.sphere3"]
        failures, digits = check_output(ref, 0, _rounded_report(ref["output"], 50), None, 50)
        self.assertEqual(failures, [])
        self.assertGreaterEqual(digits, 48)

    def test_perturbed_report_reference_fails(self):
        ref = REFS["report.sphere3"]
        stdout = _rounded_report(ref["output"], 50)
        bad = json.loads(json.dumps(ref))
        bad["output"]["breakdown"]["tors"] = _perturb(bad["output"]["breakdown"]["tors"], 30)
        failures, digits = check_output(bad, 0, stdout, None, 50)
        self.assertTrue(any("tors" in f for f in failures), failures)
        self.assertLess(digits, 48)

    def test_null_audit_fails(self):
        ref = REFS["report.sphere3"]
        out = json.loads(_rounded_report(ref["output"], 50))
        out["audits"]["eps_cancel"] = None
        failures, _ = check_output(ref, 0, json.dumps(out).encode(), None, 50)
        self.assertTrue(any("eps_cancel" in f for f in failures), failures)

    def test_perturbed_bytes_reference_fails(self):
        ref = REFS["exact.dm"]
        self.assertEqual(check_output(ref, 0, ref["text"].encode(), None, 50)[0], [])
        bad = dict(ref, text=_perturb(ref["text"], 0))
        self.assertNotEqual(check_output(bad, 0, ref["text"].encode(), None, 50)[0], [])

    def test_spectrum_file_compared_not_stdout(self):
        ref = REFS["exact.spectrum"]
        text = ref["text"].encode()
        self.assertEqual(check_output(ref, 0, b"", text, 50)[0], [])
        self.assertNotEqual(check_output(ref, 0, b"", text[:-2], 50)[0], [])
        self.assertNotEqual(check_output(ref, 0, b"", None, 50)[0], [])

    def test_suite_must_pass_and_print(self):
        ref = REFS["oracle.htrunc"]
        ok = ref["text"].encode()
        failures, digits = check_output(ref, 0, ok, None, 50)
        self.assertEqual(failures, [])
        self.assertAlmostEqual(digits, 9.07, places=2)
        self.assertNotEqual(check_output(ref, 0, ok.replace(b"true", b"false"), None, 50)[0], [])
        self.assertNotEqual(check_output(ref, 0, b"", None, 50)[0], [])
        self.assertNotEqual(check_output(ref, 2, ok, None, 50)[0], [])

    def test_zero_commands_is_not_correct(self):
        self.assertFalse(run.verdict([])["correct"])
        self.assertTrue(run.verdict([{"ok": True}])["correct"])
        self.assertFalse(run.verdict([{"ok": True}, {"ok": False}])["correct"])


class Aggregation(unittest.TestCase):
    def test_self_time_subtracts_children(self):
        spans = [["a", 0.0, 10.0, -1], ["b", 1.0, 4.0, 0], ["c", 2.0, 3.0, 1], ["b", 5.0, 6.0, 0]]
        stats = run.span_stats(spans)
        self.assertEqual(stats["a"], [1, 6.0, 10.0])
        self.assertEqual(stats["b"], [2, 3.0, 4.0])
        self.assertEqual(stats["c"], [1, 1.0, 1.0])

    def test_import_times_take_outermost_imports(self):
        text = "\n".join([
            "import time: self [us] | cumulative | imported package",
            "import time:       100 |        100 |       numpy.core",
            "import time:       200 |        300 |     numpy",
            "import time:        50 |         50 |       scipy",
            "import time:       400 |        450 |     scipy.special",
            "import time:        10 |         10 |   mpmath",
            "import time:        20 |        800 | conetorsion.cli",
        ])
        self.assertEqual(run.import_times(text), {
            "numpy": 300e-6, "scipy": 450e-6, "mpmath": 10e-6, "conetorsion": 800e-6})

    def test_benchmark_json_matches_harness(self):
        with open(ROOT / "BENCHMARK.json") as fh:
            bench = json.load(fh)
        self.assertEqual([w["name"] for w in bench["workloads"]], list(run.WORKLOADS))
        self.assertEqual([(m["name"], m["unit"]) for m in bench["end_to_end"]],
                         list(run.END_TO_END))
        self.assertEqual([(m["name"], m["unit"], m["better"]) for m in bench["per_layer"]],
                         list(run.PER_LAYER))
        ids = [c["id"] for units in run.WORKLOADS.values() for unit in units for c in unit]
        self.assertEqual(sorted(ids), sorted(REFS))


class Tracer(unittest.TestCase):
    """The traced counts the ROADMAP predicts from profiling, at the defining commit."""

    def traced(self, *argv):
        tmp = ROOT / SELFTEST_DIR
        tmp.mkdir(exist_ok=True)
        spans_path = tmp / "selftest-spans.json"
        env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
        env.pop("CONETORSION_PRECISION", None)
        try:
            res = subprocess.run([sys.executable, str(HERE / "tracer.py"), str(spans_path), "--",
                                  *argv], cwd=ROOT, env=env, capture_output=True, check=True)
            with open(spans_path) as fh:
                data = json.load(fh)
        finally:
            shutil.rmtree(tmp, ignore_errors=True)
        return res.stdout, data

    def test_sphere7_zeta_ccl_calls(self):
        stdout, data = self.traced("torsion", "--base", "sphere:7")
        self.assertEqual(check_output(REFS["report.sphere7"], 0, stdout, None, 50)[0], [])
        stats = run.span_stats(data["spans"])
        self.assertEqual(stats["zeta.zeta_ccl_at_zero"][0], 20)
        self.assertEqual(data["distinct"]["zeta.zeta_ccl_at_zero"], 4)
        self.assertEqual(stats["torsion.residual_inner_sum"][0], 12)
        self.assertEqual(data["distinct"]["torsion.residual_inner_sum"], 4)
        self.assertGreater(stats["precision.mp_zeta"][0], 0)

    def test_largenu_t_function_calls(self):
        stdout, data = self.traced("verify", "--suite", "largenu")
        self.assertEqual(check_output(REFS["oracle.largenu"], 0, stdout, None, 50)[0], [])
        stats = run.span_stats(data["spans"])
        self.assertEqual(stats["operators.t_function"][0], 12)
        self.assertEqual(data["distinct"]["operators.t_function"], 3)
        self.assertGreater(stats["precision.mp_bessel"][0], 0)

    def test_scipy_bessel_counted(self):
        _stdout, data = self.traced("verify", "--suite", "detratio", "--grid", "tiny")
        self.assertGreater(data["counts"]["operators.scipy_bessel.points"],
                           data["counts"]["operators.scipy_bessel.calls"])


class Contract(unittest.TestCase):
    def test_fails_without_program_source(self):
        bare = ROOT / SELFTEST_DIR
        shutil.rmtree(bare, ignore_errors=True)
        try:
            shutil.copytree(HERE, bare / "perfbench",
                            ignore=shutil.ignore_patterns("__pycache__"))
            shutil.copy(ROOT / "BENCHMARK.json", bare)
            res = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "report",
                                  "--seed", "1", "--seconds", "1", "--trace", "0"],
                                 cwd=bare, capture_output=True, timeout=60)
        finally:
            shutil.rmtree(bare, ignore_errors=True)
        self.assertNotEqual(res.returncode, 0)
        self.assertNotIn(b'"correct"', res.stdout)


if __name__ == "__main__":
    unittest.main()
