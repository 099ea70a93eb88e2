"""Run one ``conetorsion`` CLI invocation with per-module spans recorded.

Usage (from the root of a checkout)::

    PYTHONPATH=src python3 perfbench/tracer.py SPANS.json -- torsion --base sphere:7

The tracer wraps the public functions named in ``LAYERS`` from outside the
package: each wrapper is bound under every ``conetorsion.*`` module name that
holds the original function (``from .precision import context`` binds a
separate name in each importing module).  mpmath calls are counted on the
contexts that ``precision.context`` hands out, by instance attributes;
patching the class would not hold, because every ``mp.clone()`` reinstalls the
special functions on it.  scipy Bessel evaluations are counted through a proxy
bound as ``operators._sp``.

Spans (name, start, end, parent index) are kept in memory and written to
SPANS.json once, when the command has finished.  The command's stdout and
exit code are those of ``conetorsion.cli.main``.
"""

from __future__ import annotations

import functools
import json
import sys
import time

LAYERS = {
    "precision": ("context",),
    "olver": ("d_poly", "m_poly", "residual_bracket", "large_nu_term"),
    "spectrum": ("sphere_multiplicity_polynomial", "coclosed_spectrum",
                 "read_spectrum_file", "spectrum_text"),
    "zeta": ("zeta_ccl_at_zero", "zeta_shifted_residue", "base_torsion", "direct_sum_with_tail"),
    "operators": ("eigenvalues_oracle", "det_ratio_oracle", "zeta_det_oracle",
                  "det_ratio_truncated", "t_function"),
    "berezin": ("b_class",),
    "torsion": ("torsion_report", "cone_torsion", "torsion_difference", "residual_inner_sum"),
}
# mpmath context methods counted under precision.mp_*; calls that mpmath makes
# from inside one of them (besselk calling besseli) are not counted again.
MP_METHODS = {"zeta": "precision.mp_zeta", "besseli": "precision.mp_bessel",
              "besselk": "precision.mp_bessel", "digamma": "precision.mp_digamma"}
MP_PREFIX = "precision.mp_"
# Functions whose distinct argument tuples are counted (useful-work ratio).
KEYED = ("zeta.zeta_ccl_at_zero", "torsion.residual_inner_sum", "operators.t_function")
SCIPY_BESSEL = ("jv", "yv", "jvp", "yvp")


class Tracer:
    """In-memory span recorder.  ``spans[i] = [name, start, end, parent]``."""

    def __init__(self):
        self.spans = []
        self.stack = []
        self.keys = {name: set() for name in KEYED}
        self.counts = {"operators.scipy_bessel.calls": 0, "operators.scipy_bessel.points": 0}

    def wrap(self, name, fn):
        spans, stack, clock = self.spans, self.stack, time.perf_counter
        keys = self.keys.get(name)
        nested_mp = name.startswith(MP_PREFIX)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if nested_mp and stack and spans[stack[-1]][0].startswith(MP_PREFIX):
                return fn(*args, **kwargs)
            if keys is not None:
                keys.add(repr((args, sorted(kwargs.items()))))
            i = len(spans)
            spans.append([name, clock(), 0.0, stack[-1] if stack else -1])
            stack.append(i)
            try:
                return fn(*args, **kwargs)
            finally:
                stack.pop()
                spans[i][2] = clock()

        return traced

    def count_points(self, fn):
        counts = self.counts

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            out = fn(*args, **kwargs)
            counts["operators.scipy_bessel.calls"] += 1
            counts["operators.scipy_bessel.points"] += getattr(out, "size", 1)
            return out

        return counted

    def dump(self, path):
        payload = {
            "spans": self.spans,
            "distinct": {name: len(k) for name, k in self.keys.items()},
            "counts": self.counts,
        }
        with open(path, "w") as fh:
            json.dump(payload, fh)


class _SpecialProxy:
    """Stands in for ``scipy.special`` inside ``operators``; counts Bessel calls."""

    def __init__(self, module, tracer):
        self._module = module
        for name in SCIPY_BESSEL:
            setattr(self, name, tracer.count_points(getattr(module, name)))

    def __getattr__(self, name):
        return getattr(self._module, name)


def _rebind(modules, original, wrapped):
    for mod in modules:
        for attr, value in list(vars(mod).items()):
            if value is original:
                setattr(mod, attr, wrapped)


def install(tracer):
    """Wrap the traced functions in every loaded ``conetorsion`` module."""
    import conetorsion.cli  # noqa: F401  (loads every module the CLI uses)

    modules = [m for name, m in sorted(sys.modules.items())
               if m is not None and (name == "conetorsion" or name.startswith("conetorsion."))]
    pkg = {m.__name__.rpartition(".")[2]: m for m in modules}
    for modname, fnames in LAYERS.items():
        for fname in fnames:
            original = getattr(pkg[modname], fname)
            wrapped = tracer.wrap(f"{modname}.{fname}", original)
            if (modname, fname) == ("precision", "context"):
                wrapped = _instrumented_context(tracer, wrapped)
            _rebind(modules, original, wrapped)

    verify = pkg["verify"]
    for suite, fn in list(verify.SUITES.items()):
        wrapped = tracer.wrap(f"verify.{suite}", fn)
        verify.SUITES[suite] = wrapped
        _rebind(modules, fn, wrapped)

    operators = pkg["operators"]
    operators._sp = _SpecialProxy(operators._sp, tracer)


def _instrumented_context(tracer, make_context):
    @functools.wraps(make_context)
    def context(*args, **kwargs):
        ctx = make_context(*args, **kwargs)
        for method, name in MP_METHODS.items():
            setattr(ctx, method, tracer.wrap(name, getattr(ctx, method)))
        return ctx

    return context


def main(argv):
    if len(argv) < 2 or argv[1] != "--":
        sys.stderr.write("usage: tracer.py SPANS.json -- <conetorsion arguments>\n")
        return 1
    spans_path, cli_args = argv[0], argv[2:]
    tracer = Tracer()
    install(tracer)
    from conetorsion import cli

    try:
        return cli.main(cli_args)
    finally:
        sys.stdout.flush()
        tracer.dump(spans_path)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
