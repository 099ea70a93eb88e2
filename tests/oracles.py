"""Test-only oracles: closed forms that no CLI command reaches.

The tests compare the package's routes against them: the full-cone
determinant ratios on (0,1], which the truncated ratios tend to as eps -> 0
(the operators module has no (0,1] mode, and its harmonic sector is psi0 at
order |A|), and the displayed Bessel-quotient forms of the truncated ratios
check operators.det_ratio_truncated and t_function, zeta_shifted
evaluates the Hurwitz combination of the sphere zeta functions with mpmath's
Hurwitz zeta at any s, zeta_ccl_at_zero_hurwitz and
residual_inner_sum_digamma are the routes the integer-shift reduction and
the half-integer digamma closed form replaced (mpmath's Hurwitz zeta, zeta'
and digamma at working precision), ccl, residues and zeta_primes build one
sphere degree's inputs of zeta_ccl_at_zero, residual_inner_sum and
base_torsion from the public functions, and sphere_multiplicity
gives the sphere multiplicities pointwise from the Weyl dimension formula as
the reference of the multiplicity polynomials.  naive_product multiplies
polynomials one Fraction product per pair of terms, the reference of
Polynomial.__mul__; substitute_per_term and log_coefficient_per_term are
the same one-Fraction-per-term references of Polynomial.substitute and of
the formal-log recurrence, and reference_families builds the olver memo's
five families from them; weyl_fit_per_copy is the leading-residue Weyl fit
over one float per eigenvalue copy, the reference of the per-line fit of
file spectra.  The Bessel values come from
bessel_i, bessel_i_prime, bessel_k and bessel_k_prime here: mpmath's besseli
and besselk for Re z >= 0 (the imaginary axis accepted as the boundary limit),
each in a context of its own, with the two-sided derivative recurrences
I' = (I_{nu-1} + I_{nu+1})/2 and K' = -(K_{nu-1} + K_{nu+1})/2, not from the
operators module's Bessel pack (one-sided recurrences, the K pair from
Temme's series and continued fraction), so the checks share no Bessel code
with the routes they check.  eigen_condition_jy is the eigencondition in the
J, Y basis at every mu from scipy's jv and yv, the reference of the oracle's
winding contour, which takes the J, H2 basis at complex mu, and of its numpy
Bessel kernel: scipy is a test dependency only.
"""

import math
from fractions import Fraction
from operator import add

from conetorsion import olver
from conetorsion.olver import Polynomial
from conetorsion.operators import end_conditions
from conetorsion.precision import DEFAULT_DPS, DomainError, context, to_complex, to_real
from conetorsion.spectrum import (
    BaseManifold,
    DegreeData,
    UnsupportedManifoldError,
    sphere_multiplicity_polynomial,
)
from conetorsion.zeta import (
    ApproximateOnlyError,
    _shift_polynomial_variable,
    zeta_ccl_at_zero,
    zeta_shifted_residue,
)


def _check_bessel_args(nu, z, ctx):
    if nu < 0:
        raise DomainError(f"Bessel order must be nonnegative, got {nu}")
    if z == 0:
        raise DomainError("Bessel functions are singular/undefined at z = 0 here")
    if ctx.re(z) < 0 and ctx.im(z) == 0:
        raise DomainError(f"argument {z} lies on the branch cut (negative real axis)")
    if ctx.re(z) < -abs(ctx.im(z)) * ctx.mpf("1e-30"):
        # |arg z| <= pi/2 is the validity sector used throughout.
        raise DomainError(f"argument {z} outside the sector |arg z| <= pi/2")


def bessel_i(nu, z, P: int = DEFAULT_DPS):
    """Modified Bessel function of the first kind I_nu(z)."""
    ctx = context(P)
    nu = to_real(nu, ctx)
    z = to_complex(z, ctx)
    _check_bessel_args(nu, z, ctx)
    v = ctx.besseli(nu, z)
    return v.real if z.imag == 0 else v


def bessel_i_prime(nu, z, P: int = DEFAULT_DPS):
    """d/dz I_nu(z) via the recurrence (I_{nu-1} + I_{nu+1})/2."""
    ctx = context(P)
    nu = to_real(nu, ctx)
    z = to_complex(z, ctx)
    _check_bessel_args(nu, z, ctx)
    v = (ctx.besseli(nu - 1, z) + ctx.besseli(nu + 1, z)) / 2
    return v.real if z.imag == 0 else v


def bessel_k(nu, z, P: int = DEFAULT_DPS):
    """Modified Bessel function of the second kind K_nu(z)."""
    ctx = context(P)
    nu = to_real(nu, ctx)
    z = to_complex(z, ctx)
    _check_bessel_args(nu, z, ctx)
    v = ctx.besselk(nu, z)
    return v.real if z.imag == 0 else v


def bessel_k_prime(nu, z, P: int = DEFAULT_DPS):
    """d/dz K_nu(z) via the recurrence -(K_{nu-1} + K_{nu+1})/2."""
    ctx = context(P)
    nu = to_real(nu, ctx)
    z = to_complex(z, ctx)
    _check_bessel_args(nu, z, ctx)
    v = -(ctx.besselk(nu - 1, z) + ctx.besselk(nu + 1, z)) / 2
    return v.real if z.imag == 0 else v


def det_ratio_full_cone(variant: str, nu, A, z, P: int = DEFAULT_DPS):
    """det(L + nu^2 z^2)/det(L) for the four operators on (0,1] (closed forms)."""
    if variant not in ("psi2", "phi2", "psi0", "phi0"):
        raise ValueError("full-cone ratios exist for psi2/phi2/psi0/phi0")
    ctx = context(P)
    nu_m = to_real(nu, ctx)
    if nu_m <= 0:
        raise DomainError("full-cone closed forms require nu > 0")
    A_m = to_real(A, ctx)
    if z == 0:
        return ctx.mpf(1)
    z_m = to_complex(z, ctx)
    w = nu_m * z_m
    I, Ip = bessel_i(nu_m, w, P), bessel_i_prime(nu_m, w, P)
    if variant in ("psi0", "phi0"):
        val = 2 ** nu_m * ctx.gamma(nu_m + 1) / w ** nu_m * I
        return val.real if val.imag == 0 else val
    s = 1 if variant == "psi2" else -1
    if nu_m + s * A_m == 0:
        raise DomainError("degenerate normalization: nu = -(sigma A)")
    val = (2 ** nu_m * ctx.gamma(nu_m) / (w ** nu_m * (1 + s * A_m / nu_m))
           * (w * Ip + s * A_m * I))
    return val.real if val.imag == 0 else val


def _bessel_values(nu, w, P):
    """I, I', K, K' at w from the two-sided wrappers above."""
    return (bessel_i(nu, w, P), bessel_i_prime(nu, w, P),
            bessel_k(nu, w, P), bessel_k_prime(nu, w, P))


def det_ratio_truncated_displayed(variant: str, nu, A, z, eps, P: int = DEFAULT_DPS):
    """The equivalent displayed Bessel-quotient closed forms (cross-check only)."""
    ctx = context(P)
    nu_m = to_real(nu, ctx)
    A_m = to_real(A, ctx)
    eps_m = to_real(Fraction(eps), ctx)
    z_m = to_complex(z, ctx)
    w = nu_m * z_m
    I, Ip, K, Kp = _bessel_values(nu_m, w, P)
    Ie, Ipe, Ke, Kpe = _bessel_values(nu_m, w * eps_m, P)
    if variant == "psi2":
        den = (nu_m + A_m) * eps_m ** -nu_m + (nu_m - A_m) * eps_m ** nu_m
        val = (2 * nu_m * (w * Ip + A_m * I) * Ke / den
               * (1 - (w * Kp + A_m * K) / (w * Ip + A_m * I) * Ie / Ke))
    elif variant == "phi2":
        den = (nu_m - A_m) * eps_m ** -nu_m + (nu_m + A_m) * eps_m ** nu_m
        val = (2 * nu_m * (w * Ip - A_m * I) * Ke / den
               * (1 - (w * Kp - A_m * K) / (w * Ip - A_m * I) * Ie / Ke))
    elif variant == "psi0":
        den = (nu_m + A_m) * eps_m ** -nu_m + (nu_m - A_m) * eps_m ** nu_m
        val = (2 * nu_m * (-w * eps_m * Kpe + A_m * Ke) * I / den
               * (1 - K / I * (w * eps_m * Ipe - A_m * Ie) / (w * eps_m * Kpe - A_m * Ke)))
    elif variant == "phi0":
        den = (nu_m - A_m) * eps_m ** -nu_m + (nu_m + A_m) * eps_m ** nu_m
        val = (2 * nu_m * (-w * eps_m * Kpe - A_m * Ke) * I / den
               * (1 - K / I * (w * eps_m * Ipe + A_m * Ie) / (w * eps_m * Kpe + A_m * Ke)))
    else:
        raise ValueError(f"no displayed form for {variant!r}")
    return val.real if val.imag == 0 else val


def eigen_condition_jy(op):
    """The eigencondition of op at real or complex mu, scalar or array, in the J, Y basis.

    Each end condition applied to sqrt(x) J_nu(mu x) and sqrt(x) Y_nu(mu x)
    gives a pair (U_J, U_Y), and the condition is U_J(left) U_Y(right) -
    U_Y(left) U_J(right).
    """
    import scipy.special as sp
    nu = float(op.nu)

    def coefficients(side, kind, beta):
        x0 = float(op.eps) if side == "eps" else 1.0
        return x0, math.sqrt(x0), None if kind == "D" else float(Fraction(beta) + Fraction(1, 2))

    left, right = (coefficients(*cond) for cond in end_conditions(op.variant, op.A))

    def apply(C, mu, x0, root, shift):
        w = mu * x0
        c = C(nu, w)
        if shift is None:
            return root * c
        # w C'_nu(w) + shift C_nu(w) = w C_{nu-1}(w) + (shift - nu) C_nu(w)
        return (w * C(nu - 1, w) + (shift - nu) * c) / root

    def F(mu):
        return (apply(sp.jv, mu, *left) * apply(sp.yv, mu, *right)
                - apply(sp.yv, mu, *left) * apply(sp.jv, mu, *right))
    return F


class PoleError(ArithmeticError):
    """Evaluation at a pole; carries the location and the exact residue."""

    def __init__(self, location, residue):
        super().__init__(f"zeta function has a simple pole at s = {location}")
        self.location = location
        self.residue = residue


def hurwitz_value(mult: Polynomial, x0, s, P: int = DEFAULT_DPS):
    """sum_p a_p zeta_H(s - p, x0) with mpmath's Hurwitz zeta, mult = sum_p a_p x^p."""
    ctx = context(P)
    if isinstance(s, (int, Fraction)):
        s_f = Fraction(s)
        if (s_f - 1,) in mult.coeffs:
            raise PoleError(s_f, mult.coeffs[s_f - 1,])
        s_m = to_real(s_f, ctx)
    else:
        s_m = ctx.mpc(s)
    acc = ctx.mpc(0)
    a = to_real(x0, ctx)
    for (p,), c in sorted(mult.coeffs.items()):
        arg = s_m - p
        if arg == 1:
            raise PoleError(Fraction(p + 1), c)
        acc += to_real(c, ctx) * ctx.zeta(arg, a)
    return acc.real if acc.imag == 0 else acc


def zeta_shifted(M: BaseManifold, k: int, s, P: int = DEFAULT_DPS):
    """zeta_{k,N}(s) by the Hurwitz combination (spheres only).

    Other bases raise ApproximateOnlyError; direct_sum_with_tail is their
    partial sum with its tail bound.
    """
    if M.kind != "sphere":
        raise ApproximateOnlyError(
            f"{M.name} has no exact shifted-zeta continuation; "
            "direct_sum_with_tail gives partial sums with a tail bound for Re(s) > n")
    return hurwitz_value(sphere_multiplicity_polynomial(M, k), Fraction(M.n + 1, 2), s, P)


def zeta_ccl_at_zero_hurwitz(M: BaseManifold, k: int, P: int = DEFAULT_DPS):
    """(zeta(0), zeta'(0)) of the coclosed Laplacian in degree k (spheres) at
    precision P, from mpmath's Hurwitz zeta and zeta' at the shifts 1 + k and n - k."""
    mult, x0 = sphere_multiplicity_polynomial(M, k), Fraction(M.n + 1, 2)
    z0 = hurwitz_value(mult, x0, 0, P)
    ctx = context(P)
    z0p = ctx.mpf(0)
    A = DegreeData(k, M.n).A
    for shift in (A, -A):
        a = to_real(x0 - shift, ctx)
        for (q,), c in sorted(_shift_polynomial_variable(mult, shift).coeffs.items()):
            z0p += to_real(c, ctx) * ctx.zeta(-q, a, 1)
    return z0, z0p


def ccl(M: BaseManifold, k: int):
    """zeta_ccl_at_zero of sphere degree k, from its multiplicity polynomial."""
    return zeta_ccl_at_zero(M, k, sphere_multiplicity_polynomial(M, k))


def residues(M: BaseManifold, k: int, P: int = DEFAULT_DPS):
    """The residues of zeta_{k,N} at s = 3, 5, ..., n that residual_inner_sum takes."""
    return [zeta_shifted_residue(M, k, r, P) for r in range(1, (M.n - 1) // 2 + 1)]


def zeta_primes(M: BaseManifold):
    """The zeta'(0, ccl_k) log forms, k = 0..(n-1)/2, that base_torsion takes."""
    return [ccl(M, k)[1] for k in range((M.n - 1) // 2 + 1)]


def residual_inner_sum_digamma(M: BaseManifold, k: int, P: int = DEFAULT_DPS):
    """sum_r Res(2r+1) * sum_b [2x - z(-A) - z(A)] psi(b + r + 1/2) for one degree,
    with mpmath's digamma."""
    ctx = context(P)
    A = M.degree(k).A
    acc = ctx.mpf(0)
    for r in range(1, (M.n - 1) // 2 + 1):
        residue = zeta_shifted_residue(M, k, r, P)
        bracket = olver.residual_bracket(r, A)
        inner = ctx.mpf(0)
        for b, g in enumerate(bracket):
            if g:
                inner += to_real(g, ctx) * ctx.digamma(b + r + ctx.mpf(1) / 2)
        acc += residue * inner
    return acc


def _weyl_dim_sphere(n: int, kprime: int, j: int) -> Fraction:
    """Dimension of the rotation-group representation with highest weight
    (j, 1^kprime, 0^...) for the symmetry group of S^n, n odd."""
    m = (n + 1) // 2
    lam = [j] + [1] * kprime + [0] * (m - 1 - kprime)
    rho = [m - 1 - i for i in range(m)]
    l = [lam[i] + rho[i] for i in range(m)]
    num = Fraction(1)
    den = Fraction(1)
    for i in range(m):
        for jj in range(i + 1, m):
            num *= Fraction(l[i] ** 2 - l[jj] ** 2)
            den *= Fraction(rho[i] ** 2 - rho[jj] ** 2)
    return num / den


def sphere_multiplicity(n: int, k: int, j: int) -> int:
    """Multiplicity of the j-th coclosed k-form eigenvalue (j+k)(j+n-1-k) on S^n."""
    if n == 1:
        if k != 0:
            return 0
        return 2
    if k >= n:
        return 0
    kp = min(k, n - 1 - k)
    d = _weyl_dim_sphere(n, kp, j)
    if kp == (n - 1) // 2:
        d *= 2
    if d.denominator != 1:
        raise RuntimeError(f"non-integer multiplicity for n={n}, k={k}, j={j}: {d}")
    return int(d)


def naive_product(a: Polynomial, b: Polynomial) -> Polynomial:
    """a * b by one Fraction multiply-add per pair of terms (reference of Polynomial.__mul__)."""
    nvars = a._common_nvars(b)
    out = {}
    for k1, c1 in a.coeffs.items():
        for k2, c2 in b.coeffs.items():
            k = tuple(map(add, k1, k2))
            out[k] = out.get(k, 0) + c1 * c2
    return Polynomial._of(nvars, {k: c for k, c in out.items() if c})


def substitute_per_term(p: Polynomial, i: int, value):
    """p with variable i set to `value`, one Fraction power and product per term
    (reference of Polynomial.substitute)."""
    value = Fraction(value)
    out = {}
    for k, c in p.coeffs.items():
        rest = k[:i] + k[i + 1:]
        out[rest] = out.get(rest, 0) + c * value ** k[i]
    if p.nvars == 1:
        return out.get((), Fraction(0))
    return Polynomial._of(p.nvars - 1, {k: c for k, c in out.items() if c})


def log_coefficient_per_term(newest: Polynomial, coeffs: list, logs: list) -> Polynomial:
    """Formal-log coefficient l_r, r = len(logs), from r*l_r = r*c_r - sum_j j*l_j*c_{r-j},
    one Fraction multiply-add per pair of terms (reference of olver._log_coefficient)."""
    r = len(logs)
    acc = {k: r * c for k, c in newest.coeffs.items()}
    for j in range(1, r):
        for k1, c1 in logs[j].coeffs.items():
            for k2, c2 in coeffs[r - j].coeffs.items():
                k = tuple(map(add, k1, k2))
                acc[k] = acc.get(k, 0) - j * c1 * c2
    return Polynomial._of(newest.nvars, {k: c / r for k, c in acc.items() if c})


def reference_families(rmax: int):
    """u, v, D, M and w (olver's memo families) for r = 0..rmax from naive_product
    and log_coefficient_per_term, by the recurrences of the olver docstring."""
    one, t = Polynomial({(0,): 1}), Polynomial({(1,): 1})
    w_u, g_u = Polynomial({(2,): 1, (4,): -1}), Polynomial({(0,): 1, (2,): -5})
    w_v = Polynomial({(3,): 1, (1,): -1})
    u, v, d, m, w = [one], [one], [Polynomial({}, 1)], [Polynomial({}, 2)], [Polynomial({(0, 0): 1})]
    for _r in range(rmax):
        prev = u[-1]
        nxt = (naive_product(w_u, prev.derivative()).scale(Fraction(1, 2))
               + naive_product(g_u, prev).integral_from_zero().scale(Fraction(1, 8)))
        transfer = prev.scale(Fraction(1, 2)) + naive_product(t, prev.derivative())
        u.append(nxt)
        v.append(nxt + naive_product(w_v, transfer))
        w.append(Polynomial({**{(e, 0): c for (e,), c in v[-1].coeffs.items()},
                             **{(e + 1, 1): c for (e,), c in prev.coeffs.items()}}, 2))
        d.append(log_coefficient_per_term(u[-1], u, d))
        m.append(log_coefficient_per_term(w[-1], w, m))
    return u, v, d, m, w


def weyl_fit_per_copy(M: BaseManifold, k: int, P: int):
    """Richardson-improved Weyl-fit of the leading residue for file spectra.

    One float per eigenvalue copy, sorted (reference of zeta's per-line fit).
    """
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
