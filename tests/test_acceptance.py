"""Acceptance criteria: every promised quantitative check at its stated tolerance.

Each test prints one pass/fail line; run with `pytest -s tests/test_acceptance.py`
to see them.  The same checks back `conetorsion verify`.
"""

import time
from fractions import Fraction

import pytest

from conetorsion import verify

CRITERIA = [
    # (number, suite key, kwargs, description)
    (1, "dm", {"rmax": 9}, "shift identity of the log-family polynomials, exact, r=1..9"),
    (2, "wronskian", {}, "Bessel Wronskian <= 1e-40 at 50 digits on a 12-point grid"),
    (3, "detratio", {"grid": "small"},
     "truncated determinant ratios vs eigenvalue products <= 1e-6 on a 3x3x3x2 grid"),
    (4, "htrunc", {}, "harmonic determinant 2 eps^(k-n/2) vs zeta-det oracle <= 1e-8"),
    (5, "propp", {}, "|t(-1e-30)| <= 1e-20 for nine parameter combinations"),
    (6, "propab", {}, "large-argument log-log slope -1/2 +- 0.1"),
    (7, "largenu", {}, "large-order remainder order R+1 +- 0.2 for R = 1..4"),
    (8, "epscancel", {}, "torsion difference eps-independent to 1e-10 (S1, S3)"),
    (9, "headline", {}, "residual term equals rank * anomaly integral (0=0 on S1; 1e-6 on S3)"),
    (10, "scaling", {}, "anomaly class scale invariance, exact"),
    (11, "duality", {}, "coclosed spectrum duality multisets, exact, cutoff 50"),
]

# measure and worst case, byte for byte as the suite's line prints them (the
# small detratio grid runs here alone, since it takes seconds)
PINNED = {
    "detratio": ("2.6523507961459818e-11", ("psi0", "7/2", "1", "1/4", "1")),
}


@pytest.mark.parametrize("number,key,kwargs,description",
                         CRITERIA, ids=[f"criterion-{c[0]:02d}-{c[1]}" for c in CRITERIA])
def test_acceptance_criterion(number, key, kwargs, description):
    t0 = time.time()
    result = verify.SUITES[key](**kwargs)
    dt = time.time() - t0
    status = "PASS" if result["passed"] else "FAIL"
    print(f"{status} criterion {number} [{key}]: {description} "
          f"(measure {result['measure']}, tolerance {result['tolerance']}, {dt:.1f}s)")
    assert result["passed"], f"criterion {number} [{key}] failed: {result}"
    if key in PINNED:
        assert (result["measure"], result["details"]["worst_at"]) == PINNED[key]


def test_precision_spot_check_at_80_digits():
    """The suites' key cancellations reproduce at 80 working digits."""
    from conetorsion import torsion, spectrum
    from conetorsion.precision import context
    res = verify.check_wronskian(P=80)
    assert res["passed"]
    ctx = context(80)
    spec, anom, gap = torsion.truncated_cone_torsion(spectrum.sphere(3), 80)
    assert gap < ctx.mpf(10) ** -70
    assert spec == Fraction(-1, 3)
    res5 = verify.check_zero_argument_cancellation(P=80)
    assert res5["passed"]
    print("PASS spot-check: wronskian, headline and zero-argument cancellation at 80 digits")
