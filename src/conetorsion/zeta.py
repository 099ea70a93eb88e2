"""Shifted spectral zeta functions of the base and their meromorphic continuation.

For a base degree k the shifted zeta function is

    zeta_{k,N}(s) = sum over coclosed eigenvalues eta > 0 of nu(eta)^(-s),
    nu = sqrt(eta + A_k^2),  A_k = (n-1)/2 - k.

On round spheres nu runs over the integers from x0 = (n+1)/2 on with
polynomial multiplicities, so the whole function is a finite combination
sum_p a_p zeta_H(s - p, x0) of Hurwitz zetas at an integer shift.  At integer
shifts m and negative integers the Hurwitz function reduces to finite sums,

    zeta_H(-p, m)  = -B_{p+1}(m) / (p+1)     (Apostol, Introduction to
                                               Analytic Number Theory, Thm 12.13),
    zeta_H'(-q, m) = zeta'(-q) + sum_{2<=j<m} j^q log j,

and that integer-shift reduction (not heat-trace coefficients, not numerical
Mellin transforms, and not mpmath's Hurwitz zeta, which only the tests
evaluate, as the independent reference) is the continuation here: residues
and zeta(0) are exact rationals, and zeta'(0) is an exact rational
combination of the atoms zeta'(-q) and log j, rounded only when evaluated.

The tests check it against identities that share no code with it:
zeta(0, ccl_k) = -sum_{j<=k} (-1)^(k-j) b_j (no constant heat coefficient
on a closed odd-dimensional manifold), Weyl's law for the leading residue,
and Cheeger-Mueller for the base torsion, log T(S^n) = rank log vol(S^n).

Flat tori carry exact residues (short-time heat kernel of the lattice sum
is a pure power up to exponentially small terms) but no exact continuation
for values/derivatives; they and file-backed spectra run in approximate
mode: direct summation for Re(s) > n and a Weyl-fit residue estimate at
s = n; a torsion report on such a base is flagged approximate.
"""

from __future__ import annotations

import functools
import math
from fractions import Fraction

from .olver import Polynomial
from .precision import DEFAULT_DPS, context, to_complex, to_real
from .spectrum import (
    BaseManifold,
    DegreeData,
    UnsupportedManifoldError,
    nu_stream,
    sphere_multiplicity_polynomial,
)


class ApproximateOnlyError(UnsupportedManifoldError):
    """The requested quantity has no exact continuation for this base."""


# ---------------------------------------------------------------------------
# Evaluation


def direct_sum_with_tail(M: BaseManifold, k: int, s, P: int = DEFAULT_DPS, cutoff: int = 200):
    """Brute-force partial sum of nu^(-s) up to the cutoff plus a Weyl tail bound.

    The tail bound assumes the counting function grows no faster than
    2 C nu^n with C fitted at the cutoff, which the growth checks enforce.
    """
    ctx = context(P)
    s_m = to_complex(s, ctx)
    stream = nu_stream(M, k, cutoff)
    acc = ctx.mpc(0)
    count = 0
    for nu, mult in stream:
        nu_m = to_real(nu, ctx)
        acc += mult * nu_m ** (-s_m)
        count += mult
    if count == 0:
        return (ctx.mpf(0), ctx.mpf(0))
    C = ctx.mpf(count) / ctx.mpf(cutoff) ** M.n
    sig = s_m.real
    if sig <= M.n:
        raise ApproximateOnlyError("tail bound requires Re(s) > n")
    tail = 2 * C * M.n * ctx.mpf(cutoff) ** (M.n - sig) / (sig - M.n)
    return (acc.real if acc.imag == 0 else acc, tail)


def zeta_shifted_residue(M: BaseManifold, k: int, r: int, P: int = DEFAULT_DPS):
    """Residue of zeta_{k,N} at s = 2r+1: an exact Fraction on spheres, a number
    at precision P on tori, and an estimate for file spectra."""
    if r < 1:
        raise ValueError("r must be >= 1")
    s0 = Fraction(2 * r + 1)
    if s0 > M.n:
        raise ValueError(f"s = {s0} is beyond the pole range of an n = {M.n} base")
    if M.kind == "sphere":
        return sphere_residue(sphere_multiplicity_polynomial(M, k), r)
    if M.kind == "torus":
        return _torus_residue(M, k, r, P)
    if s0 != M.n:
        raise ApproximateOnlyError(
            "file-backed spectra only support the leading residue at s = n (estimated)")
    return _estimated_leading_residue(M, k, P)


def sphere_residue(mult: Polynomial, r: int) -> Fraction:
    """Residue at s = 2r+1 of zeta_{k,N} = sum_p a_p zeta_H(s - p, (n+1)/2) on a sphere, from
    the multiplicity polynomial mult = sum_p a_p x^p: the pole of zeta_H(s - p, .) at s = p + 1
    has residue 1, so this is a_{2r}."""
    return mult.coeffs.get((2 * r,), Fraction(0))


def _torus_residue(M: BaseManifold, k: int, r: int, P: int):
    """Exact residue at s = 2r+1 from the short-time lattice heat kernel.

    The nonzero-lattice sum of exp(-t c0 |m|^2) equals (pi/(c0 t))^(n/2) - 1
    up to exponentially small terms, so the only poles of the half-Mellin
    transform come from the pure power, shifted by the exp(-t A^2) factor.
    """
    ctx = context(P)
    n = M.n
    ell = (n - (2 * r + 1)) // 2
    if k >= n:
        return ctx.mpf(0)
    A2 = DegreeData(k, n).A ** 2
    B = M.rank * math.comb(n - 1, k)
    pref = (ctx.pi / to_real(M.scale, ctx)) ** to_real(Fraction(n, 2), ctx)
    res = 2 * B * pref * to_real((-A2) ** ell, ctx) / ctx.factorial(ell)
    res /= ctx.gamma(to_real(Fraction(2 * r + 1, 2), ctx))
    return res


def _estimated_leading_residue(M: BaseManifold, k: int, P: int):
    """Richardson-improved Weyl-fit of the leading residue for file spectra."""
    ctx = context(P)
    lines = [ln for ln in M.lines if ln.k == k]
    if not lines:
        return ctx.mpf(0)
    A2 = DegreeData(k, M.n).A ** 2
    freqs = [(math.sqrt(float(ln.eta + A2)), ln.mult) for ln in lines]
    nu_max = max(v for v, _m in freqs)
    ratios = []
    for frac in (1.0, 0.8, 0.64):
        cut = nu_max * frac
        cnt = sum(m for v, m in freqs if v <= cut)
        try:
            ratios.append(cnt / cut ** M.n)
        except (OverflowError, ZeroDivisionError):
            ratios.append(math.inf)
    # two Richardson steps on the 1/nu correction of the counting constant
    c1 = (ratios[0] * 1.0 - ratios[1] * 0.8) / (1.0 - 0.8)
    c2 = (ratios[1] * 0.8 - ratios[2] * 0.64) / (0.8 - 0.64)
    C = 2 * c1 - c2
    if not math.isfinite(C * M.n):
        raise UnsupportedManifoldError(
            f"{M.name}: degree {k}: frequencies up to nu = {nu_max:.3g} put the Weyl fit "
            "of the leading residue outside the floating-point range")
    return ctx.mpf(C * M.n)


# ---------------------------------------------------------------------------
# The coclosed Laplacian at s = 0 and the base torsion (exact, spheres)


@functools.lru_cache(maxsize=None)
def _bernoulli(j: int) -> Fraction:
    """The Bernoulli number B_j, with B_1 = -1/2: sum_{i<=j} C(j+1, i) B_i = 0 for j >= 1."""
    if j == 0:
        return Fraction(1)
    return -sum(math.comb(j + 1, i) * _bernoulli(i) for i in range(j)) / Fraction(j + 1)


def _hurwitz_at_negative_integer(p: int, m: int) -> Fraction:
    """zeta_H(-p, m) = -B_{p+1}(m) / (p+1), with B_d(x) = sum_i C(d, i) B_i x^(d-i)."""
    d = p + 1
    return -sum(math.comb(d, i) * _bernoulli(i) * m ** (d - i) for i in range(d + 1)) / d


def zeta_ccl_at_zero(M: BaseManifold, k: int, mult: Polynomial):
    """(zeta(0), zeta'(0)) of the coclosed form Laplacian in degree k of a sphere, exactly,
    from the degree's multiplicity polynomial mult = sphere_multiplicity_polynomial(M, k).

    zeta(0) is a Fraction and zeta'(0) a log form: a dict from the atoms
    ("zeta'", q), standing for zeta'(-q), and ("log", j), for log j, to
    Fraction coefficients; `log_form_value` rounds it.

    The coclosed eigenvalues factor as eta = (nu - A)(nu + A), A = A_k, and
    zeta'(0) is the sum of the derivatives of the two linear spectra,

        zeta'(0, ccl_k) = sum_{+-} sum_q c^{+-}_q zeta_H'(-q, (n+1)/2 -+ A),

    with c^{+-} the multiplicity polynomial rewritten in w = nu -+ A.  The
    Hurwitz shifts are the integers 1 + k and n - k, both positive for k < n,
    so each zeta_H'(-q, m) is zeta'(-q) + sum_{2<=j<m} j^q log j, and
    zeta(0) = sum_p a_p zeta_H(-p, (n+1)/2) with zeta_H(-p, m) =
    -B_{p+1}(m)/(p+1) (Apostol, Thm 12.13).

    No multiplicative-anomaly term is needed.  With zeta_N = zeta_{k,N}, the
    binomial expansion of (1 -+ A/nu)^(-s) gives

        sum_{+-} zeta_{nu -+ A}(s) = sum_{+-} sum_j C(-s, j) (-+A)^j zeta_N(s + j)
                                   = 2 sum_{i>=0} C(-s, 2i) A^(2i) zeta_N(s + 2i):

    the odd powers of A cancel, and the series converges because |A| is
    below the first frequency (n+1)/2.  zeta_N is regular at every positive
    even integer (its poles sit at odd 2r+1), and d/ds C(-s, j) at s = 0 is
    (-1)^j / j, so the derivative at 0 is

        2 zeta_N'(0) + sum_{i>=1} (A^(2i)/i) zeta_N(2i),

    which is also the derivative at 0 of zeta(s, ccl_k) =
    sum_i C(-s, i) (-A^2)^i zeta_N(2s + 2i).  At s = 0 itself every i >= 1
    term vanishes, so zeta(0, ccl_k) = zeta_N(0).
    """
    x0 = (M.n + 1) // 2
    z0 = sum((c * _hurwitz_at_negative_integer(p, x0) for (p,), c in mult.coeffs.items()),
             Fraction(0))
    z0p = {}
    A = DegreeData(k, M.n).A
    for shift in (A, -A):
        m = int(x0 - shift)
        for (q,), c in _shift_polynomial_variable(mult, shift).coeffs.items():
            z0p["zeta'", q] = z0p.get(("zeta'", q), 0) + c
            for j in range(2, m):
                z0p["log", j] = z0p.get(("log", j), 0) + c * j ** q
    return z0, z0p


def log_form_value(form: dict, P: int = DEFAULT_DPS):
    """A log form of zeta_ccl_at_zero at precision P; atoms with coefficient 0 are skipped.

    zeta'(0) is -log(2 pi)/2; only a zeta'(-q), q >= 1, calls mpmath's zeta.
    """
    ctx = context(P)
    acc = ctx.mpf(0)
    for (atom, j), c in sorted(form.items()):
        if not c:
            continue
        if atom == "log":
            x = ctx.log(j)
        elif j == 0:
            x = -ctx.log(2 * ctx.pi) / 2
        else:
            x = ctx.zeta(-j, 1, 1)
        acc += to_real(c, ctx) * x
    return acc


def base_torsion(M: BaseManifold, zeta_primes, P: int = DEFAULT_DPS):
    """log of the scalar analytic torsion of the closed base (N, g^N).

    Assembled from coclosed data: - sum_{k <= (n-1)/2} (-1)^k delta_k zeta'(0, ccl_k),
    with zeta_primes[k] the log form of zeta'(0, ccl_k) from zeta_ccl_at_zero,
    summed exactly and rounded once.
    """
    total = {}
    for k, form in enumerate(zeta_primes):
        weight = (-1) ** k * M.degree(k).delta
        for atom, c in form.items():
            total[atom] = total.get(atom, 0) - weight * c
    return log_form_value(total, P)


def _shift_polynomial_variable(poly: Polynomial, shift: Fraction) -> Polynomial:
    """Rewrite sum a_p x^p with x = w + shift as a polynomial in w (exact)."""
    out = {}
    for (p,), c in poly.coeffs.items():
        for q in range(p + 1):
            out[(q,)] = out.get((q,), 0) + c * math.comb(p, q) * shift ** (p - q)
    return Polynomial(out, 1)
