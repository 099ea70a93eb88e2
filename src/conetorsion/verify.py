"""Named verification suites: each returns a JSON-ready result dict.

These are the quantitative checks the package promises, shared between the
command line (``conetorsion verify --suite ...``) and the acceptance tests.
Every check states its tolerance explicitly and reports the worst measured
deviation, so a result is auditable rather than a bare boolean.
"""

from __future__ import annotations

import math
from fractions import Fraction

from . import olver, operators, spectrum, torsion, zeta
from .berezin import CollarMetric, b_class, scaled
from .precision import (bessel_i, bessel_i_prime, bessel_k, bessel_k_prime, context,
                        float_context, to_complex, to_real)


def _result(name, passed, measure, tolerance, details=None):
    return {
        "suite": name,
        "passed": bool(passed),
        "measure": str(measure),
        "tolerance": str(tolerance),
        "details": details or {},
    }


# rmax = 50 takes 7 to 10 s end to end on a 2-core machine, and the cost grows
# like rmax^6 (60 takes about 22 s), so a larger rmax is refused.
MAX_RMAX = 50


def check_dm_identity(rmax: int = 9):
    """M_r(1, A) - D_r(1) + (-A)^r / r = 0 exactly, r = 1..rmax, A in a shift set."""
    if not 1 <= rmax <= MAX_RMAX:
        raise ValueError(f"rmax must lie in 1..{MAX_RMAX}, got {rmax}")
    shifts = [Fraction(0), Fraction(1), Fraction(-1), Fraction(2), Fraction(-2), Fraction(7, 2)]
    bad = []
    for r in range(1, rmax + 1):
        d1 = olver.d_poly(r).substitute(0, 1)
        m1 = olver.m_poly(r).substitute(0, 1)  # M_r(1, A), a polynomial in A
        for A in shifts:
            if m1.substitute(0, A) - d1 + (-A) ** r / r != 0:
                bad.append((r, str(A)))
    return _result("dm", not bad, len(bad), 0, {"rmax": rmax, "failures": bad})


def check_wronskian(P: int = 50):
    """|z (K I' - K' I) - 1| <= 1e-40 on a 12-point grid including complex z."""
    grid = [
        (Fraction(1, 2), 1), (Fraction(1, 2), 2), (Fraction(3, 2), Fraction(1, 3)),
        (Fraction(5, 2), 5), (1, 1), (3, 2), (10, 7),
        (Fraction(7, 2), (2, 1)), (2, (1, 1)), (Fraction(1, 2), (3, -2)),
        (6, (1, 4)), (Fraction(9, 2), (5, 2)),
    ]
    ctx = context(P)
    worst = ctx.mpf(0)
    for nu, z in grid:
        w = (bessel_k(nu, z, P) * bessel_i_prime(nu, z, P)
             - bessel_k_prime(nu, z, P) * bessel_i(nu, z, P))
        worst = max(worst, abs(to_complex(z, P, ctx) * w - 1))
    tol = ctx.mpf(10) ** -40
    return _result("wronskian", worst <= tol, worst, tol, {"points": len(grid)})


DETRATIO_GRID = {
    "small": {
        "nu": [Fraction(3, 2), Fraction(2), Fraction(7, 2)],
        "A": [Fraction(0), Fraction(1, 2), Fraction(1)],
        "eps": [Fraction(1, 4), Fraction(1, 3), Fraction(1, 2)],
        "z": [Fraction(1, 2), Fraction(1)],
        "count": 220,
    },
    "tiny": {
        "nu": [Fraction(3, 2)],
        "A": [Fraction(1, 2)],
        "eps": [Fraction(1, 3)],
        "z": [Fraction(1)],
        "count": 220,
    },
}


def check_det_ratios(grid: str = "small", P: int = 40):
    """Truncated determinant ratios vs the eigenvalue-product oracle, <= 1e-6 relative."""
    g = DETRATIO_GRID[grid]
    worst = 0.0
    worst_at = None
    for variant in ("psi2", "phi2", "psi0", "phi0"):
        for nu in g["nu"]:
            for A in g["A"]:
                for eps in g["eps"]:
                    op = operators.ModelOperator(variant, float(nu), A, eps)
                    lam = operators.eigenvalues_oracle(op, g["count"])
                    for z in g["z"]:
                        closed = operators.det_ratio_truncated(variant, nu, A, z, eps, P)
                        oracle = operators.det_ratio_oracle(op, float(z), lam)
                        gap = abs(float(closed) - oracle) / abs(float(closed))
                        if gap > worst:
                            worst, worst_at = gap, (variant, str(nu), str(A), str(eps), str(z))
    return _result("detratio", worst <= 1e-6, worst, 1e-6, {"grid": grid, "worst_at": worst_at})


def check_harmonic_determinants():
    """Closed form 2 eps^(k-n/2) vs the numerical zeta-determinant oracle, <= 1e-8."""
    worst = 0.0
    worst_at = None
    oracles = {}  # (k, n) = (0, 1), (1, 3) and (1, 1), (2, 3) share an operator
    for n in (1, 3):
        for k in range(n + 1):
            for eps in (Fraction(1, 2), Fraction(1, 4)):
                op = operators.harmonic_operator(k, n, eps)
                if op not in oracles:
                    lam = operators.eigenvalues_oracle(op, 320)
                    oracles[op] = operators.zeta_det_oracle(op, lam)
                oracle = oracles[op]
                closed = float(operators.h_det(k, n, eps, 30))
                gap = abs(closed - oracle) / closed
                if gap > worst:
                    worst, worst_at = gap, (n, k, str(eps))
    return _result("htrunc", worst <= 1e-8, worst, 1e-8, {"worst_at": worst_at})


def check_zero_argument_cancellation(P: int = 50):
    """|t(lam)| <= 1e-20 at lam = -1e-30, next to the limit point 0, over nine combinations."""
    combos = [
        (0, 1, Fraction(3, 2), Fraction(1, 2)),
        (0, 1, Fraction(5, 2), Fraction(1, 3)),
        (0, 1, Fraction(4), Fraction(1, 4)),
        (0, 3, Fraction(3, 2), Fraction(1, 2)),
        (0, 3, Fraction(5, 2), Fraction(1, 3)),
        (0, 3, Fraction(4), Fraction(1, 4)),
        (1, 3, Fraction(3, 2), Fraction(1, 2)),
        (1, 3, Fraction(5, 2), Fraction(1, 3)),
        (1, 3, Fraction(4), Fraction(1, 4)),
    ]
    ctx = context(P)
    worst = ctx.mpf(0)
    lam = Fraction(-1, 10 ** 30)
    for k, n, nu, eps in combos:
        worst = max(worst, abs(operators.t_function(k, n, nu, eps, lam, P)))
    tol = ctx.mpf(10) ** -20
    return _result("propp", worst <= tol, worst, tol, {"combinations": len(combos)})


def check_large_argument_slope(P: int = 50):
    """log-log slope of |t - log(-lam) - b| on lam in -[1e2, 1e6] is -1/2 +- 0.1."""
    k, n, nu, eps = 0, 3, Fraction(5, 2), Fraction(1, 3)
    ctx = context(P)
    _a, b = operators.ab_coefficients(k, n, nu, eps, P)
    xs, ys = [], []
    for e in range(2, 7):
        lam = -(10 ** e)
        d = operators.t_function(k, n, nu, eps, lam, P) - ctx.log(-lam) - b
        xs.append(e * math.log(10.0))
        ys.append(math.log(abs(float(d))))
    npts = len(xs)
    xbar = sum(xs) / npts
    ybar = sum(ys) / npts
    slope = sum((x - xbar) * (y - ybar) for x, y in zip(xs, ys)) / sum((x - xbar) ** 2 for x in xs)
    return _result("propab", abs(slope + 0.5) <= 0.1, slope, "-0.5 +- 0.1",
                   {"nu": str(nu), "eps": str(eps)})


def check_large_order_decay(P: int = 60):
    """Remainder after R expansion terms decays with order R+1 +- 0.2 (dyadic in nu).

    The expansion of t in inverse order starts with the order-independent
    term log(1 - eps^2 lam) = -2 log t_eps (it is what produces the
    large-argument law), so the partial sums subtract it first.
    """
    k, n, eps, lam = 0, 3, Fraction(1, 2), Fraction(-1)
    A = Fraction(n - 1, 2) - k
    ctx = context(P)
    # t at lam = -1:  (1 - eps^2 lam)^(-1/2) = (1 + eps^2)^(-1/2)
    t_eps = 1 / ctx.sqrt(1 + (ctx.mpf(eps.numerator) / eps.denominator) ** 2)

    def remainder(R, nu):
        t_val = operators.t_function(k, n, nu, eps, lam, P)
        acc = -2 * ctx.log(t_eps)
        for r in range(1, R + 1):
            val = olver.large_nu_term(r, A).evaluate(lambda e: t_eps ** e, P, ctx)
            acc += (-ctx.mpf(nu)) ** (-r) * val
        return abs(t_val - acc)

    results = {}
    ok = True
    float_ctx = float_context()
    for R in range(1, 5):
        r20, r40, r80 = remainder(R, 20), remainder(R, 40), remainder(R, 80)
        o1 = float(float_ctx.log(r20 / r40, 2))
        o2 = float(float_ctx.log(r40 / r80, 2))
        results[R] = (o1, o2)
        ok = ok and abs(o1 - (R + 1)) <= 0.2 and abs(o2 - (R + 1)) <= 0.2
    return _result("largenu", ok, {r: tuple(round(v, 3) for v in o) for r, o in results.items()},
                   "order R+1 +- 0.2")


def check_eps_independence(P: int = 50):
    """Assembled torsion difference agrees at eps = 1/2 and 1/4 to 1e-10 (S^1, S^3)."""
    worst = 0.0
    for M in (spectrum.sphere(1), spectrum.sphere(3)):
        bd = torsion.torsion_breakdown(M, P)
        gap = bd.difference(Fraction(1, 2)) - bd.difference(Fraction(1, 4))
        worst = max(worst, abs(float(gap)))
    return _result("epscancel", worst <= 1e-10, worst, 1e-10)


def check_headline(P: int = 50):
    """Spectral residual term equals rank * anomaly-class integral.

    Exactly 0 = 0 over the circle; agreement <= 1e-6 over the 3-sphere.
    """
    s1_spec, s1_anom, s1_gap = torsion.truncated_cone_torsion(spectrum.sphere(1), P)
    ctx = context(P)
    s1_ok = s1_spec == 0 and abs(s1_anom) == 0
    s3_spec, s3_anom, s3_gap = torsion.truncated_cone_torsion(spectrum.sphere(3), P)
    passed = s1_ok and s3_gap <= 1e-6
    return _result("headline", passed, float(s3_gap), 1e-6, {
        "sphere1": {"spectral": str(to_real(s1_spec, P, ctx)), "anomaly": str(s1_anom)},
        "sphere3": {"spectral": str(to_real(s3_spec, P, ctx)), "anomaly": str(s3_anom)},
    })


def check_scaling_invariance():
    """Anomaly class invariant under metric scaling s in {2, 1/3, 10}, exactly."""
    failures = []
    for n, kappa in ((3, Fraction(1)), (5, Fraction(1)), (3, Fraction(0))):
        cm = CollarMetric(n, kappa, Fraction(-2))
        try:
            base = b_class(cm).coefficient
            for s in (Fraction(2), Fraction(1, 3), Fraction(10)):
                if b_class(scaled(cm, s)).coefficient != base:
                    failures.append((n, str(kappa), str(s)))
        except ArithmeticError as exc:  # a scale half power came out odd
            failures.append((n, str(kappa), str(exc)))
    return _result("scaling", not failures, len(failures), 0, {"failures": failures})


def check_spectrum_duality(cutoff: int = 50):
    """Coclosed spectra agree as multisets between degrees k and n-1-k (exact)."""
    failures = []
    for M in (spectrum.sphere(1), spectrum.sphere(3), spectrum.torus(3)):
        lines = spectrum.coclosed_spectrum(M, range(M.n), cutoff)
        spectra = [sorted((ln.eta, ln.mult) for ln in lines if ln.k == k) for k in range(M.n)]
        for k in range(M.n):
            if spectra[k] != spectra[M.n - 1 - k]:
                failures.append((M.name, k))
    return _result("duality", not failures, len(failures), 0, {"failures": failures})


SUITES = {
    "dm": check_dm_identity,
    "wronskian": check_wronskian,
    "detratio": check_det_ratios,
    "htrunc": check_harmonic_determinants,
    "propp": check_zero_argument_cancellation,
    "propab": check_large_argument_slope,
    "largenu": check_large_order_decay,
    "epscancel": check_eps_independence,
    "headline": check_headline,
    "scaling": check_scaling_invariance,
    "duality": check_spectrum_duality,
}
