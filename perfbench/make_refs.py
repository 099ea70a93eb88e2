"""Regenerate ``perfbench/refs.json`` from the code in ``src/``.

Run from the root of a checkout::

    python3 perfbench/make_refs.py

Reports are recomputed at twice their working precision, so the benchmark
can count the digits each report gets right.  ``verify`` suites keep their
output line for the record; the check only needs ``"passed": true``, plus,
for suites whose measure is a closed-form-versus-oracle relative error, the
digits that measure gives.  dm, duality and the spectrum dump are exact and
must stay byte-identical.  Regenerate only when a change of output is
intended and justified.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

from run import HERE, REFS, TMP_DIR, WORKLOADS

BYTES = {"exact.dm", "exact.duality", "exact.spectrum"}
DIGIT_SUITES = {"oracle.htrunc", "oracle.detratio", "oracle.wronskian"}


def cli(root, env, argv):
    res = subprocess.run([sys.executable, "-m", "conetorsion.cli", *argv], cwd=root, env=env,
                         capture_output=True, check=True)
    return res.stdout.decode()


def reference(root, env, cmd):
    argv = [a.replace("{eps}", "1/2,1/4").replace("{tmp}", TMP_DIR) for a in cmd["argv"]]
    if cmd["id"] in BYTES:
        text = cli(root, env, argv)
        if cmd["file"]:
            out_file = root / cmd["file"].replace("{tmp}", TMP_DIR)
            return {"kind": "bytes", "file": True, "text": out_file.read_text()}
        return {"kind": "bytes", "text": text}
    if argv[0] == "torsion":
        if "--precision" in argv:
            i = argv.index("--precision")
            del argv[i:i + 2]
        out = cli(root, env, argv + ["--precision", str(2 * cmd["precision"])])
        return {"kind": "report", "output": json.loads(out)}
    text = cli(root, env, argv)
    return {"kind": "suite", "suite": argv[argv.index("--suite") + 1],
            "digits": cmd["id"] in DIGIT_SUITES, "text": text}


def main():
    root = Path.cwd()
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    env.pop("CONETORSION_PRECISION", None)
    (root / TMP_DIR).mkdir(exist_ok=True)
    refs = {}
    for units in WORKLOADS.values():
        for unit in units:
            for cmd in unit:
                refs[cmd["id"]] = reference(root, env, cmd)
                print(cmd["id"], refs[cmd["id"]]["kind"], flush=True)
    (root / TMP_DIR / "torus3.spec").unlink(missing_ok=True)
    (root / TMP_DIR).rmdir()
    with open(REFS, "w") as fh:
        json.dump(refs, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"wrote {REFS.relative_to(HERE.parent)}")


if __name__ == "__main__":
    main()
