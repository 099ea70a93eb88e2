"""One-dimensional Bessel-type model operators of the decomposed complex.

Separation of variables on the cone (0,1] x N and the cone-like cylinder
[eps,1] x N reduces the form Laplacians to scalar operators

    L = -d^2/dx^2 + (nu^2 - 1/4) / x^2,   nu = sqrt(eta + A^2),

with mixed boundary conditions: Dirichlet f(x0) = 0 or the Robin-type
functional f'(x0) + beta f(x0)/x0 = 0 at each endpoint, the coefficient
beta being determined by the form degree.  On the product basis
g(x) = sqrt(x) C_nu(mu x) these functionals act as

    D:  sqrt(x0) C_nu(mu x0),
    N(beta):  sqrt(x0)/x0 * [ mu x0 C'_nu(mu x0) + (beta + 1/2) C_nu(mu x0) ],

and beta + 1/2 = +-A for the four variants used here, which is why every
closed form below carries the combinations  z C' +- A C.

Variants: psi2/phi2/psi0/phi0 on [eps,1] and on the full cone (0,1], and
h0, the harmonic sector, on [eps,1] with order nu = |A|.  end_conditions is
the one table of their boundary conditions; the closed-form ratios and the
eigenvalue oracle both read it.

Zeta-determinant ratios det(L + nu^2 z^2)/det(L) are 2x2 boundary
determinants on a Bessel basis divided by their z -> 0 limit (the
boundary-value determinant formula), not transcriptions of the equivalent
displayed Bessel-quotient forms; the displays and the full-cone closed forms
are the tests' cross-checks (tests/oracles.py).  A brute-force
eigenvalue oracle validates both routes and the absolute harmonic-sector
determinant 2 eps^(k - n/2): a dense sign scan, one vectorised Brent pass
(scipy's brentq, step for step, on every bracket at once), and an
argument-principle count on a contour symmetric under conjugation, so F is
evaluated on its lower half only.  The scan and the Brent pass take F in the
J, Y basis, the contour in the Hankel basis: at complex mu scipy's yv costs
about as much as hankel1 and hankel2 together (7,680 points at Im mu = -1,
nu = 0, 3/2 and 7/2, best of 7, scipy 1.17.1 on a 2-core VM: jv 1.7-2.1 ms,
yv 3.3-12 ms, hankel1 2.5-8.1 ms, hankel2 0.9-5.4 ms).  On the real axis
hankel1 is faster still, but it moves the last bits of the roots.

Derivatives come from the one-sided recurrences, two Bessel evaluations per
function: C'_nu(w) = C_{nu-1}(w) - (nu/w) C_nu(w) for C = J, Y, H1, H2 in the
oracle, and I' = I_{nu-1} - (nu/w) I_nu, K' = -K_{nu-1} - (nu/w) K_nu in
_bessel_pack.  Neither cancels for real w: the K terms share a sign and
I_{nu-1} > (nu/w) I_nu.  I_{nu-1} and I_nu are mpmath's besseli.  K_{nu-1} and K_nu come as one pair
from _besselk_pair: mpmath's besselk below |w| = 8, and from |w| = 8 on
Temme's continued fraction CF2 and the upward recurrence, because mpmath's
besselk at integer order takes 0.15-0.5 s a call there.  The precision module
keeps mpmath's besselk and the two-sided forms (I_{nu-1} + I_{nu+1})/2 and
-(K_{nu-1} + K_{nu+1})/2, so the wronskian suite and the tests' oracles check
an independent route.

_bessel_pack memoises each pack on (ctx.prec, nu, w): on the working
precision, not the context, since every context(P) is a fresh clone.  The
memo sits above _besselk_pair, so the K-pair tests reach the kernel on every
call.  det_ratio_truncated and t_function pass a real w as an mpc with
imaginary part 0; the pack takes its real part, so besseli and CF2 run in
real arithmetic.  check_det_ratios("small") then computes 18 packs for 432
lookups, and check_large_order_decay 6 for 24.
"""

from __future__ import annotations

import math
from collections import namedtuple
from fractions import Fraction

from .precision import (DEFAULT_DPS, DomainError, _Deferred, context, float_context, to_complex,
                        to_real)

# Only the double-precision oracles use numpy and scipy, so reports, spectra and
# the exact suites never pay their import.  The oracles read `_sp.jv` and the
# like at call time, so a stand-in rebound as `operators._sp`
# (perfbench/tracer.py counts Bessel calls so) sees them all.
np = _Deferred("numpy")
_sp = _Deferred("scipy.special")

VARIANTS = ("psi2", "phi2", "psi0", "phi0", "h0")


class RootIsolationError(RuntimeError):
    """The eigenvalue search could not certify a complete root list."""


class ModelOperator(namedtuple("ModelOperator", "variant nu A eps")):
    """Descriptor of one scalar model operator.

    variant: one of psi2/phi2/psi0/phi0/h0; nu: Bessel order (> 0 except
    the harmonic middle degree, nu = 0); A: the degree shift entering the
    Robin coefficients; eps: left endpoint of [eps,1], or None for the full
    interval (0,1] with the admissible-branch condition at 0.
    """

    __slots__ = ()

    def __new__(cls, variant: str, nu: float, A: Fraction, eps: Fraction | None = None):
        if variant not in VARIANTS:
            raise ValueError(f"unknown variant {variant!r}")
        if eps is not None and not 0 < eps < 1:
            raise DomainError(f"eps must lie in (0,1), got {eps}")
        if nu < 0:
            raise DomainError("order nu must be nonnegative")
        return tuple.__new__(cls, (variant, nu, A, eps))

    @property
    def length(self) -> float:
        return 1.0 - float(self.eps) if self.eps is not None else 1.0


def end_conditions(variant: str, A, eps=None):
    """((side, kind, beta), (side, kind, beta)) at the left and the right end.

    side is '0', 'eps' or '1'; the left end is '0' on the full interval
    (eps None).  Kinds: 'D' Dirichlet, 'N' the Robin functional with
    coefficient beta, 'D0' the admissible-branch condition at the cone tip,
    which keeps the x^(nu+1/2) solution.
    """
    A = Fraction(A)
    beta = {"psi2": A, "phi2": -A, "psi0": -A, "phi0": A, "h0": -A}[variant] - Fraction(1, 2)
    if variant in ("psi2", "phi2"):
        left, right = ("eps", "D", None), ("1", "N", beta)
    else:
        left, right = ("eps", "N", beta), ("1", "D", None)
    return (("0", "D0", None) if eps is None else left), right


# ---------------------------------------------------------------------------
# Closed-form determinant ratios


_PACKS = {}   # (ctx.prec, nu, w) -> (I, I', K, K'), oldest first
_PACKS_HELD = 256


def _bessel_pack(ctx, nu, w):
    """I, I', K, K' at argument w (mpmath context values), w != 0.

    I' = I_{nu-1} - (nu/w) I_nu and K' = -K_{nu-1} - (nu/w) K_nu.  An mpc w
    with imaginary part 0 is taken as its real part, so the pack is real.
    Packs are memoised on (ctx.prec, nu, w), the last _PACKS_HELD of them,
    and returned as values of ctx.
    """
    if w.imag == 0:
        w = w.real
    key = (ctx.prec, nu, w)
    if key not in _PACKS:
        if len(_PACKS) == _PACKS_HELD:
            del _PACKS[next(iter(_PACKS))]
        I = ctx.besseli(nu, w)
        K_prev, K = _besselk_pair(ctx, nu, w)
        r = nu / w
        _PACKS[key] = I, ctx.besseli(nu - 1, w) - r * I, K, -K_prev - r * K
    return tuple(map(ctx.convert, _PACKS[key]))


_CF2_SWITCH = 8


def _besselk_pair(ctx, nu, w):
    """(K_{nu-1}(w), K_nu(w)) for nu >= 0 and Re w >= 0.

    Below |w| = _CF2_SWITCH both come from mpmath's besselk.  At or above it,
    Steed's continued fraction CF2 (Temme, J. Comput. Phys. 19 (1975) 324;
    Thompson and Barnett, Comput. Phys. Commun. 47 (1987) 245, for complex w)
    gives K_mu and K_{mu+1} for mu = nu - floor(nu + 1/2) in [-1/2, 1/2), and
    the upward recurrence K_{mu+j+1} = K_{mu+j-1} + (2(mu+j)/w) K_{mu+j}, which
    is stable for K, carries them to the pair; nu < 1/2 takes one step down.

    CF2 needs about (D ln 10)^2 / (8|w|) terms for D digits on the real axis
    and twice that on the imaginary axis.  The loop stops at D^2 terms, six
    times what the switch needs, and raises ArithmeticError past that.

    The switch is the crossover against mpmath's two calls, measured in ms
    per pair as CF2 + recurrence / mpmath at real w, best of 5, with mpmath
    1.3.0 (pure-Python backend) on a 2-core VM:

        P    nu   |w| = 4   5        6        7       8        10
        40   1/3   24/6     22/6     18/6     16/7    14/6     11/6
        40   1     26/20    21/23    17/23    15/24   14/24    11/26
        40   2     26/28    20/31    18/32    15/32   14/36    12/38
        40   20    26/32    21/33    18/33    16/34   14/38    13/42
        40   80    29/26    23/27    19/29    17/28   14/30    13/36
        50   1/3   38/6     31/7     27/7     24/7    21/8     17/8
        50   1     39/28    31/30    26/32    25/34   23/33    17/35
        50   2     39/41    32/44    27/46    24/48   21/48    18/55
        50   20    38/41    29/42    26/46    23/48   21/50    17/54
        50   80    38/31    31/33    28/33    25/36   22/38    11/33
        100  1/3   106/14   82/9     66/16    107/17  95/17    78/17
        100  1     184/73   147/79   70/62    57/51   48/60    36/82
        100  2     119/99   112/107  97/107   69/105  70/117   62/122
        100  20    118/90   95/94    79/101   71/107  61/110   47/118
        100  80    120/66   103/86   64/100   53/72   59/121   62/130

    At integer order CF2 wins from |w| = 4-5 at P = 40 and 50 and from 6-8 at
    P = 100; 8 is the smallest |w| measured at which it wins for every
    integer order and P.  mpmath's non-integer path stays faster to |w| = 20,
    by 5-13 ms a pair at P <= 50 and 60-80 ms at P = 100.
    """
    if w.real < 0:
        raise DomainError(f"K pair needs Re w >= 0, got w = {w}")
    if nu < 0:
        raise DomainError(f"K pair needs nu >= 0, got nu = {nu}")
    if abs(w) < _CF2_SWITCH:
        return ctx.besselk(nu - 1, w), ctx.besselk(nu, w)
    m = int(ctx.floor(nu + ctx.mpf(1) / 2))
    mu = nu - m
    a1 = ctx.mpf(1) / 4 - mu * mu
    b = 2 * (1 + w)
    d = 1 / b
    h = delh = d
    q1, q2 = 0, 1
    q = c = a1
    a = -a1
    dels = q * delh
    s = 1 + dels
    cap = ctx.dps ** 2
    i = 1
    while abs(dels) > ctx.eps * abs(s):
        i += 1
        if i > cap:
            raise ArithmeticError(f"K_nu continued fraction for nu = {nu}, w = {w} "
                                  f"did not converge in {cap} iterations")
        a -= 2 * (i - 1)
        c = -a * c / i
        q1, q2 = q2, (q1 - b * q2) / a
        q += c * q2
        b += 2
        d = 1 / (b + a * d)
        delh = (b * d - 1) * delh
        h += delh
        dels = q * delh
        s += dels
    k0 = ctx.sqrt(ctx.pi / (2 * w)) * ctx.exp(-w) / s
    k1 = k0 * (mu + w + ctx.mpf(1) / 2 - a1 * h) / w
    if m == 0:
        return k1 - (2 * mu / w) * k0, k0
    for j in range(1, m):
        k0, k1 = k1, k0 + (2 * (mu + j) / w) * k1
    return k0, k1


def det_ratio_truncated(variant: str, nu, A, z, eps, P: int = DEFAULT_DPS):
    """det(L + nu^2 z^2)/det(L) on [eps,1] as a quotient of boundary determinants.

    For a two-point boundary problem the ratio is the 2x2 determinant of the
    end conditions on a solution basis of Wronskian -1, divided by its z -> 0
    limit (Burghelea, Friedlander and Kappeler, Proc. AMS 123 (1995)).
    The numerator takes the basis sqrt(x) I_nu(w x), sqrt(x) K_nu(w x) with
    w = nu z, the denominator sqrt(x) x^(+-nu) with the determinant over 2 nu.
    """
    if variant not in ("psi2", "phi2", "psi0", "phi0"):
        raise ValueError("truncated ratios exist for psi2/phi2/psi0/phi0")
    ctx = context(P)
    eps_f = Fraction(eps)
    if not 0 < eps_f < 1:
        raise DomainError(f"eps must lie in (0,1), got {eps}")
    nu_m = to_real(nu, P, ctx)
    if nu_m <= 0:
        raise DomainError("truncated quotients require nu > 0")
    if z == 0:
        return ctx.mpf(1)
    w = nu_m * to_complex(z, P, ctx)
    rows = []
    for side, kind, beta in end_conditions(variant, A, eps_f):
        x0 = to_real(eps_f, P, ctx) if side == "eps" else ctx.mpf(1)
        I, Ip, K, Kp = _bessel_pack(ctx, nu_m, w * x0)
        p = x0 ** nu_m
        # (C, t C'(t)) at t = w x0 for I_nu and K_nu, at t = x0 for t^nu and t^-nu
        basis = ((I, w * x0 * Ip), (K, w * x0 * Kp), (p, nu_m * p), (1 / p, -nu_m / p))
        if kind == "D":
            rows.append([ctx.sqrt(x0) * c for c, _ in basis])
        else:
            shift = to_real(beta + Fraction(1, 2), P, ctx)
            rows.append([(tc + shift * c) / ctx.sqrt(x0) for c, tc in basis])
    (lI, lK, lp, lm), (rI, rK, rp, rm) = rows
    val = 2 * nu_m * (lI * rK - lK * rI) / (lp * rm - lm * rp)
    return val.real if val.imag == 0 else val


# ---------------------------------------------------------------------------
# The combined log-determinant function


def t_function(k: int, n: int, nu, eps, lam, P: int = DEFAULT_DPS):
    """The eight-log combination t(lam) entering the regularized trace per frequency.

    Tends to 0 as lam -> 0, where the eps-dependence cancels (lam = 0 itself,
    the end of the branch cut, raises DomainError), grows like
    log(-lam) + b with b = 2 log eps - log(1 - A^2/nu^2), and admits the
    large-order expansion with the coefficients of olver.large_nu_term.
    """
    if n < 1 or n % 2 == 0:
        raise DomainError("n must be odd")
    A = Fraction(n - 1, 2) - k
    ctx = context(P)
    nu_m = to_real(nu, P, ctx)
    A_m = to_real(A, P, ctx)
    eps_f = Fraction(eps)
    if not 0 < eps_f < 1:
        raise DomainError(f"eps must lie in (0,1), got {eps}")
    eps_m = to_real(eps_f, P, ctx)
    if nu_m <= abs(A_m):
        raise DomainError("frequencies satisfy nu > |A|")

    lam_m = to_complex(lam, P, ctx)
    if lam_m.imag == 0 and lam_m.real >= 0:
        raise DomainError("lam on [0, +inf), the branch cut of sqrt(-lam) and its end point")
    w = nu_m * ctx.sqrt(-lam_m)
    I, Ip, K, Kp = _bessel_pack(ctx, nu_m, w)
    Ie, Ipe, Ke, Kpe = _bessel_pack(ctx, nu_m, w * eps_m)
    t = -2 * ctx.log(Ke) - ctx.log(1 - A_m ** 2 / nu_m ** 2) - 2 * ctx.log(nu_m)
    t += ctx.log(-w * eps_m * Kpe + A_m * Ke)
    t += ctx.log(-w * eps_m * Kpe - A_m * Ke)
    t -= ctx.log(1 - (w * Kp + A_m * K) / (w * Ip + A_m * I) * Ie / Ke)
    t -= ctx.log(1 - (w * Kp - A_m * K) / (w * Ip - A_m * I) * Ie / Ke)
    t += ctx.log(1 - K / I * (w * eps_m * Ipe + A_m * Ie) / (w * eps_m * Kpe + A_m * Ke))
    t += ctx.log(1 - K / I * (w * eps_m * Ipe - A_m * Ie) / (w * eps_m * Kpe - A_m * Ke))
    return t.real if t.imag == 0 else t


def ab_coefficients(k: int, n: int, nu, eps, P: int = DEFAULT_DPS):
    """(a, b) of the large-argument law t ~ a log(-lam) + b: a = 1 and
    b = 2 log eps - log(1 - A^2/nu^2)."""
    ctx = context(P)
    A = Fraction(n - 1, 2) - k
    nu_m = to_real(nu, P, ctx)
    b = 2 * ctx.log(to_real(Fraction(eps), P, ctx)) - ctx.log(1 - to_real(A, P, ctx) ** 2 / nu_m ** 2)
    return ctx.mpf(1), b


def h_det(k: int, n: int, eps, P: int = DEFAULT_DPS):
    """Zeta determinant of the harmonic-sector operator with mixed conditions: 2 eps^(k - n/2)."""
    if n < 1 or n % 2 == 0:
        raise DomainError("n must be odd (k = n/2 never occurs)")
    if not 0 <= k <= n:
        raise ValueError(f"degree k must lie in 0..{n}")
    eps_f = Fraction(eps)
    if not 0 < eps_f < 1:
        raise DomainError(f"eps must lie in (0,1), got {eps}")
    ctx = context(P)
    return 2 * to_real(eps_f, P, ctx) ** (k - ctx.mpf(n) / 2)


def harmonic_operator(k: int, n: int, eps) -> ModelOperator:
    """The degree-k harmonic-sector operator on [eps,1] (order |A_k|, mixed bc)."""
    A = Fraction(n - 1, 2) - k
    return ModelOperator("h0", float(abs(A)), A, Fraction(eps))


# ---------------------------------------------------------------------------
# Brute-force eigenvalue oracle (double precision scan + certified count)


def _eigen_condition(op: ModelOperator):
    """The eigencondition of op as a function of real or complex mu, scalar or array.

    Each end condition applied to sqrt(x) J_nu(mu x) and sqrt(x) Y_nu(mu x)
    gives a pair (U_J, U_Y), and the condition is U_J(left) U_Y(right) -
    U_Y(left) U_J(right).  On the full interval the Dirichlet branch at 0
    keeps J_nu alone, and the condition is U_J(right).  At complex mu the two
    ends take H1 = J + iY and H2 = J - iY, and the same determinant is
    (U_H2(left) U_H1(right) - U_H1(left) U_H2(right)) / (2i).  The end
    conditions become float coefficients (x0, sqrt(x0), beta + 1/2) once.
    """
    nu = float(op.nu)

    def coefficients(side, kind, beta):
        if side == "0":
            return None
        x0 = float(op.eps) if side == "eps" else 1.0
        return x0, math.sqrt(x0), None if kind == "D" else float(Fraction(beta) + Fraction(1, 2))

    left, right = (coefficients(*cond) for cond in end_conditions(op.variant, op.A, op.eps))

    def apply(C, mu, x0, root, shift):
        w = mu * x0
        c = C(nu, w)
        if shift is None:
            return root * c
        # w C'_nu(w) + shift C_nu(w) = w C_{nu-1}(w) + (shift - nu) C_nu(w)
        return (w * C(nu - 1, w) + (shift - nu) * c) / root

    def F(mu):
        if left is None:
            return apply(_sp.jv, mu, *right)
        if np.iscomplexobj(mu):
            return (apply(_sp.hankel2, mu, *left) * apply(_sp.hankel1, mu, *right)
                    - apply(_sp.hankel1, mu, *left) * apply(_sp.hankel2, mu, *right)) / 2j
        return (apply(_sp.jv, mu, *left) * apply(_sp.yv, mu, *right)
                - apply(_sp.yv, mu, *left) * apply(_sp.jv, mu, *right))
    return F


def _winding_count(op: ModelOperator, mu_lo: float, mu_hi: float, samples: int) -> int:
    """Zeros of the eigencondition inside a thin rectangle around [mu_lo, mu_hi],
    counted by the argument principle (phase tracking along the boundary).

    nu, x0 and beta are real and Re mu >= mu_lo > 0 keeps the contour off the
    branch cut, so F(conj mu) = conj F(mu) (Schwarz reflection).  F is
    evaluated on the lower half only: from mu_lo down, along the bottom side
    and up the right side to the axis; the upper half is its mirror image.
    """
    delta = (mu_hi - mu_lo) / samples * 6.0
    t = np.linspace(0, 1, samples)
    s = np.linspace(-1, 1, 60)
    path = np.concatenate([
        mu_lo - 1j * delta * s[30:],
        mu_lo + (mu_hi - mu_lo) * t - 1j * delta,
        mu_hi + 1j * delta * s[:30],
    ])
    vals = _eigen_condition(op)(path)
    if np.any(vals == 0) or np.any(~np.isfinite(vals)):
        raise RootIsolationError("argument-principle contour hit a zero or overflow")
    phases = np.unwrap(np.angle(np.concatenate([vals, vals[::-1].conj()])))
    w = (phases[-1] - phases[0]) / (2 * math.pi)
    return int(round(w))


_BRENT_XTOL, _BRENT_RTOL, _BRENT_MAXITER = 1e-13, 8.9e-16, 200


def _brent_roots(F, xa, xb, fa, fb):
    """Roots of F in the brackets [xa, xb], with F = fa, fb of opposite signs there.

    Brent's method (Algorithms for Minimization without Derivatives, 1973) as
    scipy's brentq has it in scipy/optimize/Zeros/brentq.c, transcribed step
    for step onto arrays, so each root is the one brentq returns for its
    bracket at the same tolerances.  F is called once per iteration, on the
    brackets still open.
    """
    xpre, xcur, fpre, fcur = xa, xb, fa, fb
    xblk, fblk, spre, scur = (np.zeros_like(xa) for _ in range(4))
    roots = np.empty_like(xa)
    todo = np.arange(len(xa))
    for _ in range(_BRENT_MAXITER):
        flip = (fpre != 0) & (fcur != 0) & (np.signbit(fpre) != np.signbit(fcur))
        xblk, fblk = np.where(flip, xpre, xblk), np.where(flip, fpre, fblk)
        spre, scur = np.where(flip, xcur - xpre, spre), np.where(flip, xcur - xpre, scur)
        swap = np.abs(fblk) < np.abs(fcur)
        xpre, xcur, xblk = (np.where(swap, xcur, xpre), np.where(swap, xblk, xcur),
                            np.where(swap, xcur, xblk))
        fpre, fcur, fblk = (np.where(swap, fcur, fpre), np.where(swap, fblk, fcur),
                            np.where(swap, fcur, fblk))
        delta = (_BRENT_XTOL + _BRENT_RTOL * np.abs(xcur)) / 2
        sbis = (xblk - xcur) / 2
        done = (fcur == 0) | (np.abs(sbis) < delta)
        roots[todo[done]] = xcur[done]
        if done.all():
            return roots
        keep = ~done
        todo, xpre, xcur, xblk, fpre, fcur, fblk, spre, scur, delta, sbis = (
            a[keep] for a in (todo, xpre, xcur, xblk, fpre, fcur, fblk, spre, scur, delta, sbis))
        with np.errstate(divide="ignore", invalid="ignore"):
            dpre = (fpre - fcur) / (xpre - xcur)
            dblk = (fblk - fcur) / (xblk - xcur)
            stry = np.where(xpre == xblk, -fcur * (xcur - xpre) / (fcur - fpre),   # interpolate
                            -fcur * (fblk * dblk - fpre * dpre) / (dblk * dpre * (fblk - fpre)))
        good = ((np.abs(spre) > delta) & (np.abs(fcur) < np.abs(fpre))
                & (2 * np.abs(stry) < np.minimum(np.abs(spre), 3 * np.abs(sbis) - delta)))
        spre, scur = np.where(good, scur, sbis), np.where(good, stry, sbis)   # else bisect
        xpre, fpre = xcur, fcur
        xcur = xcur + np.where(np.abs(scur) > delta, scur, np.where(sbis > 0, delta, -delta))
        fcur = F(xcur)
    raise RootIsolationError(f"{len(todo)} brackets not refined in {_BRENT_MAXITER} iterations")


def eigenvalues_oracle(op: ModelOperator, count: int):
    """First `count` eigenvalues lambda_i = mu_i^2 of the model operator.

    Dense sign scan at roughly twelve samples per expected spacing, one
    vectorised Brent pass refining the first count + 2 brackets together,
    strict-interlacing check, and (for the two-endpoint case) an
    argument-principle winding count on the conjugate-symmetric contour
    certifying that no root was missed.
    """
    if count > 500:
        raise ValueError("oracle supports count <= 500")
    F = _eigen_condition(op)
    spacing = math.pi / op.length
    mu_max = spacing * (count + 3) + 2.0 * float(op.nu) + 10.0
    grid_n = int((count + 5) * 16 + 200)
    grid = np.linspace(spacing * 1e-3, mu_max, grid_n)
    vals = F(grid)
    if np.any(~np.isfinite(vals)):
        raise RootIsolationError("eigencondition overflowed on the scan grid")
    sgn = np.sign(vals)
    idx = np.where(sgn[:-1] * sgn[1:] < 0)[0][:count + 2]
    roots = _brent_roots(F, grid[idx], grid[idx + 1], vals[idx], vals[idx + 1]).tolist()
    if len(roots) < count:
        raise RootIsolationError(
            f"found only {len(roots)} roots below mu = {mu_max:.1f}; widen the scan")
    roots = sorted(roots)[:count]
    diffs = np.diff(roots)
    if np.any(diffs <= 0):
        raise RootIsolationError("eigenvalues failed strict interlacing")
    if op.eps is not None:
        lo, hi = roots[0] * 0.5, roots[-1] + 0.45 * spacing
        w = _winding_count(op, lo, hi, samples=max(400, count * 24))
        if w != count:
            raise RootIsolationError(
                f"argument-principle count {w} disagrees with {count} bracketed roots "
                f"on [{lo:.3f}, {hi:.3f}]")
    return [r * r for r in roots]


def _tail_fit(mus: np.ndarray, length: float):
    """Fit mu_i ~ (pi/L)(i + q + a1/i + a2/i^2 + a3/i^3) on the upper half of the list."""
    c = math.pi / length
    i = np.arange(1, len(mus) + 1, dtype=float)
    d = mus / c - i
    lo = len(mus) // 2
    X = np.stack([np.ones_like(i), 1 / i, 1 / i ** 2, 1 / i ** 3], axis=1)[lo:]
    coef, *_ = np.linalg.lstsq(X, d[lo:], rcond=None)
    return c, coef  # q, a1, a2, a3


def _log_product_estimate(lam: np.ndarray, length: float, w2: float) -> float:
    """log prod (1 + w2/lambda_i) over the given eigenvalues plus a fitted tail."""
    mus = np.sqrt(lam)
    logprod = math.fsum(np.log1p(w2 / lam))
    c, (q, a1, _a2, _a3) = _tail_fit(mus, length)
    aM = len(lam) + 1 + q
    # sum_{i>M} x_i^-2 with x_i = i + q + a1/i + ...: psi'(aM) minus the
    # leading frequency-correction term
    s2 = float(_sp.polygamma(1, aM)) / c ** 2
    s4p = float(_sp.polygamma(3, aM)) / 6
    sum_inv2 = s2 - 2 * a1 * s4p / c ** 2
    sum_inv4 = s4p / c ** 4
    return logprod + w2 * sum_inv2 - 0.5 * w2 ** 2 * sum_inv4


def det_ratio_oracle(op: ModelOperator, z, eigenvalues):
    """Eigenvalue-product estimate of det(L + nu^2 z^2)/det(L) from the
    operator's first eigenvalues (eigenvalues_oracle).

    The value prod_i (1 + (nu z)^2 / lambda_i) with a fitted tail, Richardson
    extrapolated in the truncation length (the systematic tail-model error
    scales like 1/M^2).  Double precision; ~1e-8 relative from 240
    eigenvalues, backing the 1e-6 oracle comparisons.
    """
    lam = np.asarray(eigenvalues, dtype=float)
    w2 = (float(op.nu) * float(z)) ** 2
    l_half = _log_product_estimate(lam[: len(lam) // 2], op.length, w2)
    l_full = _log_product_estimate(lam, op.length, w2)
    return math.exp(l_full + (l_full - l_half) / 3.0)


def zeta_det_oracle(op: ModelOperator, eigenvalues):
    """Numerical zeta determinant exp(-zeta'(0)) from the operator's first
    eigenvalues (eigenvalues_oracle).

    zeta'(0) is continued with the fitted eigenvalue asymptotics
    mu_i = (pi/L)(i + q + a1/i + a2/i^2 + a3/i^3): the partial sum of
    -2 log mu_i plus the analytic tail

        -2 log(pi/L) zeta_H(0, a) + 2 zeta_H'(0, a) - 2 sum_{i>M} delta_i,

    a = M + 1 + q, delta_i the relative frequency correction.  Exact on the
    free Dirichlet operator (det = 2L), which pins the normalization.
    """
    ctx = float_context()
    lam = np.asarray(eigenvalues, dtype=float)
    mus = np.sqrt(lam)
    c, (q, a1, a2, a3) = _tail_fit(mus, op.length)
    M = len(mus)
    aM = ctx.mpf(M + 1) + q

    partial = math.fsum(2.0 * np.log(mus))
    zh0 = ctx.mpf(1) / 2 - aM
    zh0p = ctx.loggamma(aM) - ctx.log(2 * ctx.pi) / 2
    # sum_{i>M} delta_i with delta_i = (a1/i + a2/i^2 + a3/i^3)/(i+q)
    if abs(q) > 1e-8:
        T1 = (ctx.digamma(aM) - ctx.digamma(M + 1)) / q
        T2 = (ctx.zeta(2, M + 1) - T1) / q
        T3 = (ctx.zeta(3, M + 1) - T2) / q
    else:
        T1 = ctx.zeta(2, M + 1)
        T2 = ctx.zeta(3, M + 1)
        T3 = ctx.zeta(4, M + 1)
    Sdelta = a1 * T1 + a2 * T2 + a3 * T3
    ztail = -2 * ctx.log(c) * zh0 + 2 * zh0p - 2 * Sdelta
    zprime0 = -ctx.mpf(partial) + ztail
    return float(ctx.e ** (-zprime0))
