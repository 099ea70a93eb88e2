"""Shifted spectral zeta functions of the base and their meromorphic continuation.

For a base degree k the shifted zeta function is

    zeta_{k,N}(s) = sum over coclosed eigenvalues eta > 0 of nu(eta)^(-s),
    nu = sqrt(eta + A_k^2),  A_k = (n-1)/2 - k.

On round spheres nu runs over an arithmetic progression with polynomial
multiplicities, so the whole function is a finite combination of Hurwitz
zetas: that reduction (not heat-trace coefficients, and not numerical Mellin
transforms) is the continuation vehicle here, making residues and values at
s = 0 exact to working precision.

Two independent continuations are implemented for cross-validation:

* route A: the Hurwitz representation of zeta_{k,N} in the variable nu;
* route B: the binomial re-expansion of zeta(s, Delta_ccl) around the
  factorization eta = w (w + 2 A_k), w = j + k, which carries a different
  Hurwitz family.  Their residues and values must agree, which is one of
  the module's invariant tests.

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

    def finite_part_at(self, s0, P: int = DEFAULT_DPS):
        """Constant term of the Laurent expansion at a (potential) pole s0."""
        ctx = context(P)
        s0 = Fraction(s0)
        a = to_real(self.shift, P, ctx)
        acc = ctx.mpf(0)
        for (p,), c in sorted(self.weights.coeffs.items()):
            cm = to_real(c, P, ctx)
            if Fraction(p + 1) == s0:
                acc += -cm * ctx.digamma(a)
            else:
                acc += cm * ctx.zeta(to_real(s0 - p, P, ctx), a)
        return acc


def shifted_zeta_representation(M: BaseManifold, k: int) -> ZetaRepresentation:
    """Exact Hurwitz representation of zeta_{k,N} (spheres only)."""
    if M.kind != "sphere":
        raise ApproximateOnlyError(
            f"{M.name} has no exact shifted-zeta continuation; "
            "direct_sum_with_tail gives partial sums with a tail bound for Re(s) > n")
    return ZetaRepresentation(sphere_multiplicity_polynomial(M, k), Fraction(M.n + 1, 2))


# ---------------------------------------------------------------------------
# Evaluation


def zeta_shifted(M: BaseManifold, k: int, s, P: int = DEFAULT_DPS):
    """zeta_{k,N}(s) by the exact continuation (spheres only).

    Other bases raise ApproximateOnlyError; direct_sum_with_tail is their
    partial sum with its tail bound.
    """
    return shifted_zeta_representation(M, k).value(s, P)


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


def base_torsion_from_form_spectra(M: BaseManifold, P: int = DEFAULT_DPS):
    """Independent route: (1/2) sum_k (-1)^k k zeta'(0, Delta_k) over all form degrees.

    Uses the full form Laplacian per degree, whose nonzero spectrum is the
    union of the coclosed spectra in degrees k and k-1.  Agreement with
    base_torsion is the duality-combinatorics check.
    """
    if M.kind != "sphere":
        raise ApproximateOnlyError(f"base torsion requires an exact continuation; {M.name} has none")
    ctx = context(P)
    zccl = {k: zeta_ccl_at_zero(M, k, P)[1] for k in range(M.n + 1)}
    acc = ctx.mpf(0)
    for k in range(M.n + 1):
        full = zccl[k] + (zccl[k - 1] if k >= 1 else ctx.mpf(0))
        acc += (-1) ** k * k * full
    return acc / 2


# ---------------------------------------------------------------------------
# Route B: the coclosed zeta function through the w (w + 2A) factorization


class CoclosedZetaB:
    """Second continuation of zeta(s, Delta_ccl) for cross-validation (spheres).

    Splits off the first few eigenvalues explicitly (entire in s) and expands
    the tail binomially around w = j + k, giving Hurwitz terms at shifts
    1 + k + j0 with integer power offsets; residues live at half-integers
    and are exact rationals.
    """

    def __init__(self, M: BaseManifold, k: int):
        if M.kind != "sphere":
            raise ApproximateOnlyError("route-B continuation exists for spheres only")
        self.M = M
        self.k = k
        self.n = M.n
        self.A = DegreeData(k, M.n).A
        twoA = 2 * self.A
        # explicit part: j = 1 .. j0 with j0 chosen so |2A/w| <= 1/2 afterwards
        self.j0 = max(0, int(2 * twoA) - k + 1) if twoA > 0 else 0
        self.w0 = Fraction(k + self.j0 + 1)
        # multiplicity polynomial in w = j + k (exact)
        poly_x = sphere_multiplicity_polynomial(M, k)  # in x = j + (n-1)/2
        # convert: x = w + A  (since x = j + (n-1)/2 = (j+k) + A)
        self.poly_w = _shift_polynomial_variable(poly_x, self.A)

    def explicit_lines(self):
        from .spectrum import sphere_multiplicity
        for j in range(1, self.j0 + 1):
            eta = Fraction((j + self.k) * (j + self.n - 1 - self.k))
            yield eta, self.M.rank * sphere_multiplicity(self.n, self.k, j)

    def residue(self, sigma, P: int = DEFAULT_DPS) -> Fraction:
        """Exact residue of zeta(., Delta_ccl) at sigma (half-integers)."""
        sigma = Fraction(sigma)
        twoA = 2 * self.A
        res = Fraction(0)
        for (q,), b in self.poly_w.coeffs.items():
            i = 1 + q - 2 * sigma
            if i.denominator != 1 or i < 0:
                continue
            i = int(i)
            res += _binom_frac(-sigma, i) * twoA ** i * b / 2
        return res

    def value(self, sigma, P: int = DEFAULT_DPS):
        """Numeric continuation value, symmetrized across integer pole-candidates."""
        ctx = context(P)
        cands = self._pole_candidates()
        sig_f = Fraction(sigma) if isinstance(sigma, (int, Fraction)) else None
        if sig_f is not None and sig_f in cands and self.residue(sig_f, P) == 0:
            # the individual Hurwitz terms blow up at integer pole candidates
            # while their residues cancel; average the two one-sided values.
            # h balances the O(h^2) symmetrization error against roundoff of
            # the O(1/h) intermediate terms.
            h = ctx.mpf(10) ** (-(P + 10) // 3)
            vp = self._value_off_pole(to_real(sig_f, P, ctx) + h, ctx, P)
            vm = self._value_off_pole(to_real(sig_f, P, ctx) - h, ctx, P)
            return (vp + vm) / 2
        s_m = to_real(sigma, P, ctx) if isinstance(sigma, (int, Fraction)) else ctx.mpf(sigma)
        return self._value_off_pole(s_m, ctx, P)

    def _pole_candidates(self):
        out = set()
        for (q,) in self.poly_w.coeffs:
            for i in range(0, q + 2):
                loc = Fraction(1 + q - i, 2)
                out.add(loc)
        return out

    def _value_off_pole(self, s_m, ctx, P):
        acc = ctx.mpf(0)
        for eta, mult in self.explicit_lines():
            acc += mult * to_real(eta, P, ctx) ** (-s_m)
        twoA = to_real(2 * self.A, P, ctx)
        a = to_real(self.w0, P, ctx)
        tol = ctx.mpf(10) ** (-(P + 5))
        i = 0
        while True:
            gi = ctx.mpf(0)
            for (q,), b in sorted(self.poly_w.coeffs.items()):
                gi += to_real(b, P, ctx) * ctx.zeta(2 * s_m + i - q, a)
            term = ctx.binomial(-s_m, i) * twoA ** i * gi
            acc += term
            if i > 3 and abs(term) < tol:
                break
            if i > 60 * max(1, P // 10):
                raise RuntimeError("route-B binomial series failed to converge")
            if twoA == 0:
                break
            i += 1
        return acc


def _shift_polynomial_variable(poly: Polynomial, shift: Fraction) -> Polynomial:
    """Rewrite sum a_p x^p with x = w + shift as a polynomial in w (exact)."""
    out = {}
    for (p,), c in poly.coeffs.items():
        for q in range(p + 1):
            out[(q,)] = out.get((q,), 0) + c * math.comb(p, q) * shift ** (p - q)
    return Polynomial(out, 1)


def _binom_frac(top: Fraction, i: int) -> Fraction:
    acc = Fraction(1)
    for m in range(i):
        acc *= (top - m) / (m + 1)
    return acc


def shifted_residue_via_route_b(M: BaseManifold, k: int, r: int, P: int = DEFAULT_DPS):
    """Residue of zeta_{k,N} at 2r+1 through the route-B expansion.

    Uses zeta_{k,N}(2s) = sum_j C(-s, j) A^(2j) zeta(s + j, Delta_ccl), so the
    residue at s0 = r + 1/2 picks up route-B residues at s0 + j.
    """
    zb = CoclosedZetaB(M, k)
    s0 = Fraction(2 * r + 1, 2)
    A2 = DegreeData(k, M.n).A ** 2
    acc = Fraction(0)
    maxq = max((q for (q,) in zb.poly_w.coeffs), default=0)
    j = 0
    while True:
        rho = zb.residue(s0 + j)
        acc += _binom_frac(-s0, j) * A2 ** j * rho
        # beyond this point every i = 1 + q - 2 sigma is negative
        if 2 * (s0 + j) > maxq + 1:
            break
        j += 1
    return 2 * acc
