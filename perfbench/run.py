"""Benchmark of the ``conetorsion`` command line, end to end and per module.

Run from the root of a checkout::

    python3 perfbench/run.py --workload report --seed 1 --seconds 30 --trace 0

Every command is a fresh ``python -m conetorsion.cli`` process run against
``src/`` of the checkout, one at a time: a closed loop with one client, since
the calculator is a desk tool whose user waits for each answer.  Every
output is checked against ``perfbench/refs.json``.  The last stdout line is
one JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``;
the lines before it give the environment, the seed and each metric with its
unit and sample count.

Workloads (why each exists):

* ``report``: ``torsion --base`` on sphere:1/3/5/7 at P=50, sphere:3 at
  P=100 and torus:3.  The main user path; time goes to mpmath Hurwitz zeta
  inside ``zeta``, ``torsion`` assembly and ``precision`` contexts.  Exact
  and approximate mode, two precisions.  Barely touches ``operators``.
* ``oracle``: ``verify`` suites htrunc, detratio (tiny grid), largenu and
  wronskian.  The double-precision eigenvalue oracle and winding count
  through scipy, and mpmath Bessel closed forms at large order.  Never
  calls ``zeta``.
* ``exact``: ``verify`` suites dm (rmax 18), scaling and duality, and a
  spectrum file written by ``spectrum`` and read back by ``torsion``.  Exact
  Fraction algebra in ``olver``, ``berezin`` and ``spectrum``, spectrum-file
  I/O, and a large share of import time.

The seed picks the ``--eps`` pair of ``report`` and the command order of
every pass.  The work of a command does not depend on the eps pair.

``--trace 0`` reports the end-to-end metrics.  ``setup_s`` is the median of
``SETUP_REPEATS`` fresh imports of ``conetorsion.cli``.  One full pass over
the workload always runs; more commands follow in seeded pass order while
they fit in ``--seconds``.  Each command's time is the median of its runs:
``wall_s`` is their sum (one pass), ``cmd_p50_s`` their median and
``cmd_max_s`` their maximum.  ``peak_rss_mb`` is the largest peak RSS of
any command, and ``digits_min`` the fewest digits of agreement of a checked
number with its independent reference (see ``checks.py``).  The commands
failed out of those attempted go to ``failed`` and ``attempted``, not to a
metric, since a share that is 0 at a good commit cannot carry a relative
bound.

``--trace 1`` runs one pass without and one, in the same order, with the
tracer of ``tracer.py``, and reports the per-module metrics of the traced pass
(``PER_LAYER``), the ``-X importtime`` split of the CLI import and the
ratio of the traced to the untraced pass wall time.

``perfbench/make_refs.py`` regenerates the references and
``perfbench/selftest.py`` tests the harness itself.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import random
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from collections import Counter
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from checks import check_output  # noqa: E402
from tracer import KEYED, LAYERS, MP_METHODS  # noqa: E402

REFS = HERE / "refs.json"
TMP_DIR = ".perfbench_tmp"
SPEC_FILE = "{tmp}/torus3.spec"
SETUP_REPEATS = 5
RUN_DEADLINE_S = 170.0

# --eps pairs for ``report``: rationals in (0, 1) chosen by the seed.
EPS_PAIRS = ("1/2,1/4", "1/3,1/5", "2/3,1/7", "3/4,1/8", "2/5,1/6", "3/5,1/9")


def _cmd(cid, argv, precision=50, file=None):
    return {"id": cid, "argv": argv, "precision": precision, "file": file}


def _report(cid, base, precision=50):
    argv = ["torsion", "--base", base, "--eps", "{eps}"]
    if precision != 50:
        argv += ["--precision", str(precision)]
    return [_cmd(cid, argv, precision)]


# A workload is a list of units; a unit's commands run in order (the second
# command of the spectrum unit reads the file the first one writes).
WORKLOADS = {
    "report": [
        _report("report.sphere1", "sphere:1"),
        _report("report.sphere3", "sphere:3"),
        _report("report.sphere5", "sphere:5"),
        _report("report.sphere7", "sphere:7"),
        _report("report.sphere3.p100", "sphere:3", 100),
        _report("report.torus3", "torus:3"),
    ],
    "oracle": [
        [_cmd("oracle.htrunc", ["verify", "--suite", "htrunc"])],
        [_cmd("oracle.detratio", ["verify", "--suite", "detratio", "--grid", "tiny"])],
        [_cmd("oracle.largenu", ["verify", "--suite", "largenu"])],
        [_cmd("oracle.wronskian", ["verify", "--suite", "wronskian"])],
    ],
    "exact": [
        [_cmd("exact.dm", ["verify", "--suite", "dm", "--rmax", "18"])],
        [_cmd("exact.scaling", ["verify", "--suite", "scaling"])],
        [_cmd("exact.duality", ["verify", "--suite", "duality"])],
        [_cmd("exact.spectrum", ["spectrum", "--base", "torus:3", "--cutoff", "20",
                                 "--out", SPEC_FILE], file=SPEC_FILE),
         _cmd("exact.torsion_file", ["torsion", "--spectrum-file", SPEC_FILE])],
    ],
}

END_TO_END = (
    ("setup_s", "s"), ("wall_s", "s"), ("cmd_p50_s", "s"), ("cmd_max_s", "s"),
    ("peak_rss_mb", "MB"), ("digits_min", "digits"),
)

# Span names per module: the wrapped functions, plus the mpmath methods
# counted under precision.
TRACED = dict(LAYERS, precision=LAYERS["precision"] + tuple(
    dict.fromkeys(name.rpartition(".")[2] for name in MP_METHODS.values())))
SUITES_RUN = ("htrunc", "detratio", "largenu", "wronskian", "dm", "scaling", "duality")
IMPORT_ROOTS = ("numpy", "scipy", "mpmath", "conetorsion")

PER_LAYER = (
    [(f"{m}.{f}.{stat}", unit, "lower") for m, fns in TRACED.items() for f in fns
     for stat, unit in (("calls", "count"), ("self_s", "s"))]
    + [("operators.scipy_bessel.calls", "count", "lower"),
       ("operators.scipy_bessel.points", "count", "lower")]
    + [(f"verify.{s}.s", "s", "lower") for s in SUITES_RUN]
    + [(f"cli.import.{r}_s", "s", "lower") for r in IMPORT_ROOTS]
    + [("cli.out_bytes", "bytes", "lower")]
    + [(f"{name}.useful_ratio", "ratio", "higher") for name in KEYED]
    + [("trace_overhead_ratio", "ratio", "lower")]
)


class Runner:
    """Runs CLI processes from the checkout root and checks their outputs."""

    def __init__(self, root: Path, refs: dict, eps: str, deadline: float):
        self.root = root
        self.refs = refs
        self.eps = eps
        self.deadline = deadline
        self.env = dict(os.environ, PYTHONPATH=str(root / "src"))
        self.env.pop("CONETORSION_PRECISION", None)
        self.tmp = root / TMP_DIR / f"run-{os.getpid()}"

    def python(self, *args):
        """Run the interpreter on ``args``; return (returncode, wall_s, rusage, stdout, stderr).

        The child is killed at the run's deadline, or when this process is
        interrupted, and always reaped before returning.
        """
        out_path, err_path = self.tmp / "stdout", self.tmp / "stderr"
        with open(out_path, "wb") as out, open(err_path, "wb") as err:
            t0 = time.perf_counter()
            proc = subprocess.Popen([sys.executable, *args], stdout=out, stderr=err,
                                    env=self.env, cwd=self.root)
            timer = threading.Timer(max(1.0, self.deadline - time.monotonic()), proc.kill)
            timer.start()
            try:
                _pid, status, usage = os.wait4(proc.pid, 0)
            except BaseException:
                proc.kill()
                proc.wait()
                raise
            finally:
                timer.cancel()
            wall = time.perf_counter() - t0
            proc.returncode = os.waitstatus_to_exitcode(status)
        return proc.returncode, wall, usage, out_path.read_bytes(), err_path.read_bytes()

    def expand(self, arg):
        return arg.replace("{eps}", self.eps).replace("{tmp}", str(self.tmp.relative_to(self.root)))

    def run_command(self, cmd, spans_path=None):
        argv = [self.expand(a) for a in cmd["argv"]]
        out_file = self.root / self.expand(cmd["file"]) if cmd["file"] else None
        if spans_path is None:
            prefix = ["-m", "conetorsion.cli"]
        else:
            prefix = [str(HERE / "tracer.py"), str(spans_path), "--"]
        if out_file:
            out_file.unlink(missing_ok=True)
        rc, wall, usage, stdout, stderr = self.python(*prefix, *argv)
        file_bytes = out_file.read_bytes() if out_file and out_file.is_file() else None
        failures, digits = check_output(self.refs[cmd["id"]], rc, stdout, file_bytes,
                                        cmd["precision"])
        if failures:
            tail = stderr.decode(errors="replace").strip().splitlines()[-1:]
            print(f"FAIL {cmd['id']}: {'; '.join(failures)} {tail}", flush=True)
        return {"id": cmd["id"], "wall": wall, "rss_kb": usage.ru_maxrss, "ok": not failures,
                "digits": digits, "out_bytes": len(stdout) + len(file_bytes or b"")}

    def run_pass(self, units, trace_dir=None):
        results = []
        for unit in units:
            for cmd in unit:
                spans = None if trace_dir is None else trace_dir / f"{cmd['id']}.json"
                results.append(self.run_command(cmd, spans) | {"spans": spans})
        return results


def env_fingerprint():
    import importlib.metadata as md

    import mpmath.libmp

    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")),
                       platform.processor() or "unknown")
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "mpmath": md.version("mpmath"),
        "mpmath_backend": mpmath.libmp.BACKEND,
        "numpy": md.version("numpy"),
        "scipy": md.version("scipy"),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
    }


def import_times(stderr: str) -> dict:
    """Cumulative ``-X importtime`` seconds of each root package's outermost imports."""
    entries = []
    for line in stderr.splitlines():
        parts = line.split("|")
        if not line.startswith("import time:") or len(parts) != 3:
            continue
        try:
            cumulative = int(parts[1])
        except ValueError:
            continue  # the header line
        name = parts[2][1:]
        depth = (len(name) - len(name.lstrip(" "))) // 2
        entries.append((depth, name.strip(), cumulative))
    totals = {root: 0.0 for root in IMPORT_ROOTS}
    stack = []  # ancestors, walking the post-order listing backwards
    for depth, name, cumulative in reversed(entries):
        while stack and stack[-1][0] >= depth:
            stack.pop()
        root = name.split(".")[0]
        if root in totals and all(anc.split(".")[0] != root for _d, anc in stack):
            totals[root] += cumulative / 1e6
        stack.append((depth, name))
    return totals


def span_stats(spans):
    """Per span name: [calls, self seconds, inclusive seconds]."""
    child = [0.0] * len(spans)
    for _name, start, end, parent in spans:
        if parent >= 0:
            child[parent] += end - start
    stats = {}
    for i, (name, start, end, _parent) in enumerate(spans):
        s = stats.setdefault(name, [0, 0.0, 0.0])
        s[0] += 1
        s[1] += end - start - child[i]
        s[2] += end - start
    return stats


def layer_metrics(traced, untraced_wall, traced_wall, imports):
    """Per-layer metrics summed over the traced commands; 0 for what never ran."""
    calls, self_s, incl, distinct, counts = Counter(), Counter(), Counter(), Counter(), Counter()
    for res in traced:
        with open(res["spans"]) as fh:
            data = json.load(fh)
        for name, (n, s, inc) in span_stats(data["spans"]).items():
            calls[name] += n
            self_s[name] += s
            incl[name] += inc
        distinct.update(data["distinct"])
        counts.update(data["counts"])
    values = {}
    for m, fns in TRACED.items():
        for f in fns:
            values[f"{m}.{f}.calls"] = calls[f"{m}.{f}"]
            values[f"{m}.{f}.self_s"] = self_s[f"{m}.{f}"]
    for name in ("operators.scipy_bessel.calls", "operators.scipy_bessel.points"):
        values[name] = counts[name]
    for s in SUITES_RUN:
        values[f"verify.{s}.s"] = incl[f"verify.{s}"]
    for root in IMPORT_ROOTS:
        values[f"cli.import.{root}_s"] = imports[root]
    values["cli.out_bytes"] = sum(r["out_bytes"] for r in traced)
    for name in KEYED:
        values[f"{name}.useful_ratio"] = distinct[name] / calls[name] if calls[name] else 0.0
    values["trace_overhead_ratio"] = traced_wall / untraced_wall
    return values


def check_import(runner):
    """Import the CLI once from the checkout's ``src`` (this also writes its bytecode)."""
    rc, _wall, _usage, out, err = runner.python(
        "-c", "import conetorsion.cli as c; print(c.__file__)")
    src = str(runner.root / "src")
    if rc != 0 or not out.decode().strip().startswith(src):
        raise SystemExit(f"error: cannot import conetorsion from {src}: {err.decode()[-300:]}")


def measure_setup(runner):
    """Median wall time of fresh processes importing the CLI, after a warm-up import."""
    check_import(runner)
    return statistics.median(runner.python("-c", "import conetorsion.cli")[1]
                             for _ in range(SETUP_REPEATS))


def timed_run(runner, units, rng, seconds):
    """Timed passes over the workload, then as many more units as fit in ``seconds``.

    The first pass always completes.  After it, units keep coming in seeded
    pass order until the next one, at the median time of its earlier runs,
    would end after ``seconds``.  Each command's time is the median of its
    samples; a pass's time is the sum of those medians.
    """
    setup = measure_setup(runner)
    samples = {cmd["id"]: [] for unit in units for cmd in unit}
    results = []
    start = time.monotonic()
    first_pass = True
    while True:
        for unit in shuffled(units, rng):
            if not first_pass:
                predicted = sum(statistics.median(samples[cmd["id"]]) for cmd in unit)
                now = time.monotonic()
                if now - start + predicted > seconds or now + predicted > runner.deadline:
                    return _timed_metrics(setup, samples, results)
            for cmd in unit:
                res = runner.run_command(cmd)
                results.append(res)
                samples[cmd["id"]].append(res["wall"])
        first_pass = False


def _timed_metrics(setup, samples, results):
    per_cmd = {cid: statistics.median(walls) for cid, walls in samples.items()}
    digits = [r["digits"] for r in results if r["digits"] is not None]
    values = {
        "setup_s": setup,
        "wall_s": sum(per_cmd.values()),
        "cmd_p50_s": statistics.median(per_cmd.values()),
        "cmd_max_s": max(per_cmd.values()),
        "peak_rss_mb": max(r["rss_kb"] for r in results) / 1024,
        "digits_min": min(digits) if digits else 0.0,
    }
    runs = min(len(walls) for walls in samples.values())
    across = f"{len(per_cmd)} commands, each the median of >= {runs} runs"
    notes = {"setup_s": f"median of {SETUP_REPEATS} imports",
             "wall_s": f"sum over {across}", "cmd_p50_s": f"median over {across}",
             "cmd_max_s": f"max over {across}",
             "peak_rss_mb": f"max of {len(results)} commands",
             "digits_min": f"min over {len(digits)} checked outputs"}
    for cid, walls in samples.items():
        print(f"command {cid}: " + " ".join(f"{w:.3f}" for w in walls) + " s", flush=True)
    return results, values, notes, dict(END_TO_END)


def traced_run(runner, units, rng):
    check_import(runner)
    _rc, _wall, _usage, _out, err = runner.python("-X", "importtime", "-c", "import conetorsion.cli")
    imports = import_times(err.decode())
    order = shuffled(units, rng)
    plain = runner.run_pass(order)
    trace_dir = runner.tmp / "spans"
    trace_dir.mkdir(exist_ok=True)
    traced = runner.run_pass(order, trace_dir)
    values = layer_metrics([r for r in traced if r["spans"].is_file()],
                           sum(r["wall"] for r in plain), sum(r["wall"] for r in traced), imports)
    samples = {name: "one traced pass" for name, _u, _b in PER_LAYER}
    samples["trace_overhead_ratio"] = "one traced pass / one plain pass, same order"
    return plain + traced, values, samples, {name: unit for name, unit, _b in PER_LAYER}


def verdict(results):
    """Correct only if at least one command ran and none failed its check."""
    failed = sum(not r["ok"] for r in results)
    return {"correct": bool(results) and failed == 0, "attempted": len(results), "failed": failed}


def shuffled(units, rng):
    order = list(units)
    rng.shuffle(order)
    return order


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    # A SIGTERM unwinds like an exception, so running children are killed and reaped.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))

    root = Path.cwd()
    if not (root / "src" / "conetorsion" / "cli.py").is_file():
        sys.stderr.write(f"error: no conetorsion source under {root / 'src'}; "
                         "run from the root of a checkout\n")
        return 2
    with open(REFS) as fh:
        refs = json.load(fh)
    deadline = time.monotonic() + RUN_DEADLINE_S
    rng = random.Random(args.seed)
    eps = rng.choice(EPS_PAIRS)
    units = WORKLOADS[args.workload]
    runner = Runner(root, refs, eps, deadline)
    runner.tmp.mkdir(parents=True)
    try:
        print(json.dumps({"workload": args.workload, "seed": args.seed, "eps": eps,
                          "trace": args.trace, "env": env_fingerprint()}), flush=True)
        if args.trace:
            results, values, samples, units_of = traced_run(runner, units, rng)
        else:
            results, values, samples, units_of = timed_run(runner, units, rng, args.seconds)
    finally:
        shutil.rmtree(runner.tmp, ignore_errors=True)
        try:
            runner.tmp.parent.rmdir()
        except OSError:
            pass  # another run still uses it

    for name, value in values.items():
        print(f"metric {name} = {value:.6g} {units_of[name]} ({samples[name]})")
    result = verdict(results)
    print(f"failed {result['failed']} of {result['attempted']} commands")
    result["metrics"] = {name: {"value": value, "unit": units_of[name]}
                         for name, value in values.items()}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
