"""Shifted spectral zeta functions of the base and their meromorphic continuation.

For a base degree k the shifted zeta function is

    zeta_{k,N}(s) = sum over coclosed eigenvalues eta > 0 of nu(eta)^(-s),
    nu = sqrt(eta + A_k^2),  A_k = (n-1)/2 - k.

On round spheres nu runs over an arithmetic progression with polynomial
multiplicities, so the whole function is a finite combination of Hurwitz
zetas: that reduction (not heat-trace coefficients, and not numerical Mellin
transforms) is the continuation vehicle here, making residues and values at
s = 0 exact to working precision.

The tests check it against identities that share no code with it:
zeta(0, ccl_k) = -sum_{j<=k} (-1)^(k-j) b_j (no constant heat coefficient
on a closed odd-dimensional manifold), Weyl's law for the leading residue,
and Cheeger-Mueller for the base torsion, log T(S^n) = rank log vol(S^n).

Flat tori carry exact residues (short-time heat kernel of the lattice sum
is a pure power up to exponentially small terms) but no exact continuation
for values/derivatives; they and file-backed spectra run in approximate
mode: direct summation for Re(s) > n and a Weyl-fit residue estimate at
s = n, everything flagged as such.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
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


class PoleError(ArithmeticError):
    """Evaluation at a pole; carries the location and the exact residue."""

    def __init__(self, location, residue):
        super().__init__(f"zeta function has a simple pole at s = {location}")
        self.location = location
        self.residue = residue


class ApproximateOnlyError(UnsupportedManifoldError):
    """The requested quantity has no exact continuation for this base."""


@dataclass(frozen=True)
class MeromorphicPoint:
    """Location and residue of a zeta function at a pole; exact=False for an estimate."""

    location: Fraction
    residue: object
    exact: bool = True


class ZetaRepresentation:
    """Finite Hurwitz combination sum_p a_p zeta_H(s - p, x0) (exact, spheres).

    `weights` is the multiplicity polynomial sum_p a_p x^p in x = nu; `shift`
    is the first frequency x0.
    """

    def __init__(self, weights: Polynomial, shift: Fraction):
        self.weights = weights
        self.shift = Fraction(shift)

    def residue_at(self, s0) -> Fraction:
        return self.weights.coeffs.get((Fraction(s0) - 1,), Fraction(0))

    def value(self, s, P: int = DEFAULT_DPS):
        ctx = context(P)
        if isinstance(s, (int, Fraction)):
            s_f = Fraction(s)
            if (s_f - 1,) in self.weights.coeffs:
                raise PoleError(s_f, self.residue_at(s_f))
            s_m = to_real(s_f, P, ctx)
        else:
            s_m = ctx.mpc(s)
        acc = ctx.mpc(0)
        a = to_real(self.shift, P, ctx)
        for (p,), c in sorted(self.weights.coeffs.items()):
            arg = s_m - p
            if arg == 1:
                raise PoleError(Fraction(p + 1), self.residue_at(Fraction(p + 1)))
            acc += to_real(c, P, ctx) * ctx.zeta(arg, a)
        return acc.real if acc.imag == 0 else acc


def shifted_zeta_representation(M: BaseManifold, k: int) -> ZetaRepresentation:
    """Exact Hurwitz representation of zeta_{k,N} (spheres only)."""
    if M.kind != "sphere":
        raise ApproximateOnlyError(
            f"{M.name} has no exact shifted-zeta continuation; "
            "direct_sum_with_tail gives partial sums with a tail bound for Re(s) > n")
    return ZetaRepresentation(sphere_multiplicity_polynomial(M, k), Fraction(M.n + 1, 2))


# ---------------------------------------------------------------------------
# Evaluation


def direct_sum_with_tail(M: BaseManifold, k: int, s, P: int = DEFAULT_DPS, cutoff: int = 200):
    """Brute-force partial sum of nu^(-s) up to the cutoff plus a Weyl tail bound.

    The tail bound assumes the counting function grows no faster than
    2 C nu^n with C fitted at the cutoff, which the growth checks enforce.
    """
    ctx = context(P)
    s_m = to_complex(s, P, ctx)
    stream = nu_stream(M, k, cutoff)
    acc = ctx.mpc(0)
    count = 0
    for nu, mult in stream:
        nu_m = to_real(nu, P, ctx) if isinstance(nu, Fraction) else ctx.mpf(nu)
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


def zeta_shifted_residue(M: BaseManifold, k: int, r: int, P: int = DEFAULT_DPS) -> MeromorphicPoint:
    """Residue of zeta_{k,N} at s = 2r+1 (estimated for file spectra)."""
    if r < 1:
        raise ValueError("r must be >= 1")
    s0 = Fraction(2 * r + 1)
    if s0 > M.n:
        raise ValueError(f"s = {s0} is beyond the pole range of an n = {M.n} base")
    ctx = context(P)
    if M.kind == "sphere":
        res = shifted_zeta_representation(M, k).residue_at(s0)
        return MeromorphicPoint(s0, to_real(res, P, ctx))
    if M.kind == "torus":
        return MeromorphicPoint(s0, _torus_residue(M, k, r, P))
    if s0 != M.n:
        raise ApproximateOnlyError(
            "file-backed spectra only support the leading residue at s = n (estimated)")
    return MeromorphicPoint(s0, _estimated_leading_residue(M, k, P), exact=False)


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
    pref = (ctx.pi / to_real(M.scale, P, ctx)) ** to_real(Fraction(n, 2), P, ctx)
    res = 2 * B * pref * to_real((-A2) ** ell, P, ctx) / ctx.factorial(ell)
    res /= ctx.gamma(to_real(Fraction(2 * r + 1, 2), P, ctx))
    return res


def _estimated_leading_residue(M: BaseManifold, k: int, P: int):
    """Richardson-improved Weyl-fit of the leading residue for file spectra."""
    ctx = context(P)
    lines = [ln for ln in M.lines if ln.k == k]
    if not lines:
        return ctx.mpf(0)
    A2 = DegreeData(k, M.n).A ** 2
    nus = sorted(math.sqrt(float(ln.eta + A2)) for ln in lines for _ in range(ln.mult))
    nu_max = nus[-1]
    ratios = []
    for frac in (1.0, 0.8, 0.64):
        cut = nu_max * frac
        cnt = sum(1 for v in nus if v <= cut)
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


def zeta_ccl_at_zero(M: BaseManifold, k: int, P: int = DEFAULT_DPS):
    """(zeta(0), zeta'(0)) of the coclosed form Laplacian in degree k (spheres).

    The coclosed eigenvalues factor as eta = (nu - A)(nu + A), A = A_k, and
    zeta'(0) is the sum of the derivatives of the two linear spectra,

        zeta'(0, ccl_k) = sum_{+-} sum_q c^{+-}_q zeta_H'(-q, (n+1)/2 -+ A),

    with c^{+-} the multiplicity polynomial rewritten in w = nu -+ A.  The
    Hurwitz shifts are 1 + k and n - k, both positive for k < n.

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
    rep = shifted_zeta_representation(M, k)
    z0 = rep.value(0, P)
    ctx = context(P)
    z0p = ctx.mpf(0)
    A = DegreeData(k, M.n).A
    for shift in (A, -A):
        a = to_real(rep.shift - shift, P, ctx)
        for (q,), c in sorted(_shift_polynomial_variable(rep.weights, shift).coeffs.items()):
            z0p += to_real(c, P, ctx) * ctx.zeta(-q, a, 1)
    return z0, z0p


def base_torsion(M: BaseManifold, P: int = DEFAULT_DPS, zeta_primes=None):
    """log of the scalar analytic torsion of the closed base (N, g^N).

    Assembled from coclosed data: - sum_{k <= (n-1)/2} (-1)^k delta_k zeta'(0, ccl_k).
    `zeta_primes` holds those zeta'(0, ccl_k), k = 0..(n-1)/2, when the
    caller has them already.
    """
    if M.kind != "sphere":
        raise ApproximateOnlyError(f"base torsion requires an exact continuation; {M.name} has none")
    if zeta_primes is None:
        zeta_primes = [zeta_ccl_at_zero(M, k, P)[1] for k in range((M.n - 1) // 2 + 1)]
    ctx = context(P)
    acc = ctx.mpf(0)
    for k, z0p in enumerate(zeta_primes):
        acc += (-1) ** k * to_real(M.degree(k).delta, P, ctx) * z0p
    return -acc


def _shift_polynomial_variable(poly: Polynomial, shift: Fraction) -> Polynomial:
    """Rewrite sum a_p x^p with x = w + shift as a polynomial in w (exact)."""
    out = {}
    for (p,), c in poly.coeffs.items():
        for q in range(p + 1):
            out[(q,)] = out.get((q,), 0) + c * math.comb(p, q) * shift ** (p - q)
    return Polynomial(out, 1)
