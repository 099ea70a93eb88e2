"""Command line driver: torsion reports, verification suites, spectrum dumps.

Exit codes: 0 success, 1 configuration, usage or I/O error, 2 an audit or
verification check failed beyond its tolerance.  JSON payloads carry all
numbers as full-precision decimal strings and are byte-reproducible for a
fixed configuration (sorted keys, fixed reduction orders, no timestamps).
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import sys
from decimal import MAX_EMAX, MIN_EMIN, Decimal, localcontext
from fractions import Fraction

from . import spectrum, torsion, verify
from .precision import DEFAULT_DPS, MIN_DPS, PrecisionError

DEFAULT_PRECISION_ENV = "CONETORSION_PRECISION"
# sorted(verify.SUITES) and sorted(verify.DETRATIO_GRID), written out so that building
# the parser does not run verify (the tests hold them equal)
SUITE_CHOICES = ("detratio", "dm", "duality", "epscancel", "headline", "htrunc", "largenu",
                 "propab", "propp", "scaling", "wronskian")
GRID_CHOICES = ("small", "tiny")


class UsageError(ValueError):
    """A command-line value that cannot be used (malformed or out of range)."""


class _Parser(argparse.ArgumentParser):
    """An argument parser whose errors end in exit 1, like every usage error;
    argparse's own exit 2 would read as a failed check."""

    def error(self, message):
        raise UsageError(message)


def _fraction_in(option: str, text: str, low, high=None) -> Fraction:
    """Parse `text` as a rational with low < value (< high when given)."""
    try:
        value = spectrum.parse_fraction(text)
    except spectrum.ExponentOutOfRange as exc:
        raise UsageError(f"{option}: {exc}") from exc
    except (ValueError, ZeroDivisionError) as exc:
        raise UsageError(f"{option}: {text!r} is not a number") from exc
    if not low < value or (high is not None and not value < high):
        bounds = f"in ({low},{high})" if high is not None else f"> {low}"
        raise UsageError(f"{option} must be {bounds}, got {value}")
    return value


def _default_precision() -> int:
    raw = os.environ.get(DEFAULT_PRECISION_ENV)
    if raw:
        try:
            return int(raw)
        except ValueError:
            raise PrecisionError(f"bad {DEFAULT_PRECISION_ENV}={raw!r}")
    return DEFAULT_DPS


def parse_base(spec: str) -> spectrum.BaseManifold:
    """sphere:<n>[:rank] | torus:<n>[:rank[:scale]]"""
    parts = spec.split(":")
    kind = parts[0]
    try:
        if kind in ("sphere", "torus") and len(parts) > (3 if kind == "sphere" else 4):
            raise ValueError(f"too many fields for {kind}")
        if kind == "sphere":
            n = int(parts[1])
            rank = int(parts[2]) if len(parts) > 2 else 1
            return spectrum.sphere(n, rank)
        if kind == "torus":
            n = int(parts[1])
            rank = int(parts[2]) if len(parts) > 2 else 1
            scale = spectrum.parse_fraction(parts[3]) if len(parts) > 3 else Fraction(1)
            return spectrum.torus(n, rank, scale)
    except (IndexError, ValueError, ZeroDivisionError) as exc:
        why = "zero denominator" if isinstance(exc, ZeroDivisionError) else exc
        raise spectrum.UnsupportedManifoldError(f"cannot parse base {spec!r}: {why}") from exc
    raise spectrum.UnsupportedManifoldError(
        f"unknown base family {kind!r} (use sphere:<n> or torus:<n>)")


def _load_base(args) -> spectrum.BaseManifold:
    if args.spectrum_file:
        return spectrum.read_spectrum_file(args.spectrum_file)
    if args.base:
        return parse_base(args.base)
    raise spectrum.UnsupportedManifoldError("one of --base or --spectrum-file is required")


def _emit(payload: str, out_path):
    if out_path:
        with open(out_path, "w") as fh:
            fh.write(payload)
            if not payload.endswith("\n"):
                fh.write("\n")
    else:
        sys.stdout.write(payload)
        if not payload.endswith("\n"):
            sys.stdout.write("\n")


def _breakdown_table(report: dict) -> str:
    rows = [("base", report["base"]), ("n", report["n"]), ("rank", report["rank"]),
            ("precision", report["precision"]), ("approximate", report["approximate"])]
    for key, val in report["breakdown"].items():
        rows.append((key, val if val is not None else "(unavailable)"))
    for key, val in report["audits"].items():
        rows.append((f"audit:{key}", val if val is not None else "(unavailable)"))
    width = max(len(str(k)) for k, _ in rows)
    return "\n".join(f"{str(k).ljust(width)}  {v}" for k, v in rows)


def cmd_torsion(args) -> int:
    precision = _default_precision() if args.precision is None else args.precision
    if precision < MIN_DPS:
        raise UsageError(f"precision must be at least {MIN_DPS} digits")
    M = _load_base(args)
    eps_list = (tuple(_fraction_in("--eps", e, 0, 1) for e in args.eps.split(","))
                if args.eps is not None else (Fraction(1, 2), Fraction(1, 4)))
    if len(set(eps_list)) < 2:
        # the audit compares the torsion difference across radii
        raise UsageError(f"--eps needs at least two distinct radii, got {args.eps}")
    report = torsion.torsion_report(M, precision, eps_list)
    if args.format == "json":
        _emit(json.dumps(report, indent=2, sort_keys=True), args.out)
    else:
        _emit(_breakdown_table(report), args.out)
    audits = report["audits"]
    gap = audits["headline_gap"]
    if gap is not None and _beyond_error_model(gap, report["breakdown"]["res_anomaly"], precision):
        return 2
    if any(audits.get(key) is not None and abs(float(audits[key])) > 1e-10
           for key in ("eps_cancel", "logeps_audit")):
        return 2
    return 0


def _beyond_error_model(gap: str, value: str, precision: int) -> bool:
    """gap > 10^(5-P) |value|, the README error model, in Decimal so that no exponent overflows."""
    with localcontext() as dc:
        dc.Emax, dc.Emin = MAX_EMAX, MIN_EMIN
        return Decimal(gap) > abs(Decimal(value)).scaleb(5 - precision)


def cmd_verify(args) -> int:
    names = list(verify.SUITES) if args.suite == "all" else [args.suite]
    if args.rmax < 1:
        raise UsageError(f"--rmax must be >= 1, got {args.rmax}")
    if args.rmax > verify.MAX_RMAX:
        raise UsageError(f"--rmax {args.rmax} is beyond the {verify.MAX_RMAX} that the dm suite supports")
    lines = []
    all_passed = True
    for name in names:
        fn = verify.SUITES[name]
        kwargs = {}
        if name == "dm":
            kwargs["rmax"] = args.rmax
        if name == "detratio":
            kwargs["grid"] = args.grid
        res = fn(**kwargs)
        all_passed = all_passed and res["passed"]
        lines.append(json.dumps(res, sort_keys=True))
    _emit("\n".join(lines), args.out)
    return 0 if all_passed else 2


def cmd_spectrum(args) -> int:
    M = _load_base(args)
    _emit(spectrum.spectrum_text(M, _fraction_in("--cutoff", args.cutoff, 0)), args.out)
    return 0


def build_parser() -> argparse.ArgumentParser:
    ap = _Parser(
        prog="conetorsion",
        description="Analytic torsion of even-dimensional cones: reports and verification.")
    sub = ap.add_subparsers(dest="command", required=True)

    out = argparse.ArgumentParser(add_help=False)
    out.add_argument("--out", help="write output to this path instead of stdout")
    source = argparse.ArgumentParser(add_help=False)
    source.add_argument("--base", help="sphere:<n>[:rank] or torus:<n>[:rank[:scale]]")
    source.add_argument("--spectrum-file", help="path to a spectrum file")

    p_t = sub.add_parser("torsion", parents=[source, out], help="full torsion breakdown report")
    p_t.add_argument("--precision", type=int,
                     help=f"working precision in decimal digits (>= {MIN_DPS})")
    p_t.add_argument("--format", choices=("json", "table"), default="json")
    p_t.add_argument("--eps", help="comma-separated truncation radii for the audits, e.g. 1/2,1/4")
    p_t.set_defaults(fn=cmd_torsion)

    p_v = sub.add_parser("verify", parents=[out], help="run verification suites")
    p_v.add_argument("--suite", default="all", choices=SUITE_CHOICES + ("all",))
    p_v.add_argument("--rmax", type=int, default=9)
    p_v.add_argument("--grid", default="small", choices=GRID_CHOICES)
    p_v.set_defaults(fn=cmd_verify)

    p_s = sub.add_parser("spectrum", parents=[source, out], help="dump a base spectrum file")
    p_s.add_argument("--cutoff", required=True, help="inclusive cutoff in nu")
    p_s.set_defaults(fn=cmd_spectrum)
    return ap


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        return args.fn(args)
    except (spectrum.UnsupportedManifoldError, spectrum.MalformedSpectrumFile, PrecisionError,
            UsageError, OSError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 1


def process_main() -> int:
    """`main` as the entry of its own process: `python -m conetorsion.cli` and the
    `conetorsion` script.

    The exit's last collection would walk every object the imports made before the
    process ends anyway; `gc.freeze()` takes them out of its reach.  Callers of `main`
    inside a longer-lived process keep their collector as it was.
    """
    code = main()
    gc.freeze()
    return code


if __name__ == "__main__":
    sys.exit(process_main())
