"""Output checks for benchmark commands against the committed references.

Each reference in ``refs.json`` has a ``kind``:

* ``report``: a ``torsion`` JSON report recomputed at twice the working
  precision.  Every breakdown number must agree with it to at least P - 2
  significant digits; the fields and the nullness of every audit must match.
* ``suite``: ``verify`` output.  Every line must read ``"passed": true`` and
  name the expected suite.  For suites whose measure is a relative error
  between a closed form and an independent oracle, ``digits`` says so and the
  measure gives the digits of agreement.
* ``bytes``: the output must be byte-identical to ``text``.  With ``file``
  set, the output is the file the command wrote, and stdout must be empty.

A check returns ``(failures, digits)``: a list of reasons (empty when the
output is correct) and the fewest digits of agreement found, or None.
"""

from __future__ import annotations

import json
from decimal import Decimal, InvalidOperation, localcontext

REPORT_FIELDS = ("base", "n", "rank", "approximate")


def agreement_digits(value: str, ref: str, cap: int) -> float:
    """Significant digits to which ``value`` agrees with ``ref``, at most ``cap``.

    Relative error against a nonzero reference, absolute error against zero.
    """
    with localcontext() as dc:
        dc.prec = 4 * cap + 50
        v, r = Decimal(value), Decimal(ref)
        err = abs(v - r)
        if err == 0:
            return float(cap)
        if r != 0:
            err /= abs(r)
        return min(float(cap), -float(err.log10()))


def check_report(stdout: bytes, ref: dict, precision: int):
    try:
        out = json.loads(stdout)
    except ValueError as exc:
        return [f"report is not JSON: {exc}"], None
    failures = []
    if out.get("precision") != precision:
        failures.append(f"precision {out.get('precision')!r} != {precision}")
    for key in REPORT_FIELDS:
        if out.get(key) != ref[key]:
            failures.append(f"{key} {out.get(key)!r} != {ref[key]!r}")
    for key, ref_val in ref["audits"].items():
        if (out.get("audits", {}).get(key) is None) != (ref_val is None):
            failures.append(f"audit {key} is {out.get('audits', {}).get(key)!r}, reference {ref_val!r}")
    digits = []
    breakdown = out.get("breakdown", {})
    for key, ref_val in ref["breakdown"].items():
        val = breakdown.get(key)
        if (val is None) != (ref_val is None):
            failures.append(f"breakdown {key} is {val!r}, reference {ref_val!r}")
            continue
        if val is None:
            continue
        try:
            d = agreement_digits(val, ref_val, precision)
        except InvalidOperation:
            failures.append(f"breakdown {key} is not a number: {val!r}")
            continue
        digits.append(d)
        if d < precision - 2:
            failures.append(f"breakdown {key} agrees to {d:.1f} digits, need {precision - 2}")
    if not digits:
        failures.append("report has no breakdown numbers to check")
    return failures, (min(digits) if digits else None)


def check_suite(stdout: bytes, ref: dict):
    lines = stdout.decode(errors="replace").splitlines()
    if not lines:
        return ["verify printed no result"], None
    failures, digits = [], []
    for line in lines:
        try:
            res = json.loads(line)
        except ValueError as exc:
            failures.append(f"verify line is not JSON: {exc}")
            continue
        if res.get("suite") != ref["suite"]:
            failures.append(f"suite {res.get('suite')!r} != {ref['suite']!r}")
        if res.get("passed") is not True:
            failures.append(f"suite {res.get('suite')!r} did not pass: {res.get('measure')!r}")
        if ref.get("digits"):
            try:
                measure = Decimal(res["measure"])
            except (KeyError, InvalidOperation):
                failures.append(f"suite measure is not a number: {res.get('measure')!r}")
                continue
            if measure <= 0:
                failures.append(f"suite measure {measure} is not a positive relative error")
                continue
            digits.append(-float(measure.log10()))
    return failures, (min(digits) if digits else None)


def check_bytes(data: bytes, ref: dict):
    if data != ref["text"].encode():
        return [f"output differs from the reference ({len(data)} bytes, "
                f"reference {len(ref['text'].encode())} bytes)"], None
    return [], None


def check_output(ref: dict, returncode: int, stdout: bytes, file_bytes: bytes | None,
                 precision: int):
    """All failures of one command's output, and its digits of agreement."""
    if returncode != 0:
        return [f"exit code {returncode}"], None
    kind = ref["kind"]
    if kind == "report":
        return check_report(stdout, ref["output"], precision)
    if kind == "suite":
        return check_suite(stdout, ref)
    if kind == "bytes":
        if ref.get("file"):
            if stdout:
                return ["unexpected stdout"], None
            if file_bytes is None:
                return ["output file was not written"], None
            return check_bytes(file_bytes, ref)
        return check_bytes(stdout, ref)
    return [f"unknown reference kind {kind!r}"], None
