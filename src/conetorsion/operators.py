"""One-dimensional Bessel-type model operators of the decomposed complex.

Separation of variables on the truncated cone [eps,1] x N reduces the form
Laplacians to scalar operators

    L = -d^2/dx^2 + (nu^2 - 1/4) / x^2,   nu = sqrt(eta + A^2),

with mixed boundary conditions: Dirichlet f(x0) = 0 or the Robin-type
functional f'(x0) + beta f(x0)/x0 = 0 at each endpoint, the coefficient
beta being determined by the form degree.  On the product basis
g(x) = sqrt(x) C_nu(mu x) these functionals act as

    D:  sqrt(x0) C_nu(mu x0),
    N(beta):  sqrt(x0)/x0 * [ mu x0 C'_nu(mu x0) + (beta + 1/2) C_nu(mu x0) ],

and beta + 1/2 = +-A for the four variants used here, which is why every
closed form below carries the combinations  z C' +- A C.

Variants: psi2/phi2/psi0/phi0 on [eps,1]; the harmonic sector is psi0 at
order nu = |A|.  A ModelOperator describes one operator, and both routes
take it: det_ratio_truncated and the eigenvalue oracle.  end_conditions is
the one table of the boundary conditions that both read.

Zeta-determinant ratios det(L + nu^2 z^2)/det(L) are 2x2 boundary
determinants on a Bessel basis divided by their z -> 0 limit (the
boundary-value determinant formula), not transcriptions of the equivalent
displayed Bessel-quotient forms; the displays, and the full-cone closed forms
at eps -> 0, are the tests' cross-checks (tests/oracles.py).  A brute-force
eigenvalue oracle validates both routes and the absolute harmonic-sector
determinant 2 eps^(k - n/2): a dense sign scan, one vectorised Brent pass
(scipy's brentq, step for step, on every bracket at once), and an
argument-principle count on a contour symmetric under conjugation, so F is
evaluated on its lower half only.  The scan and the Brent pass take F in the
J, Y basis, the contour in the J, H2 basis (_eigen_condition).  All three
read one double-precision numpy kernel, _cylinder_pairs: Hankel's expansion
at large argument, and below it H2 and H1 from the K pair at +-iw, by
numpy forms of the Temme series and CF2 that _besselk_pair uses.

Derivatives come from the one-sided recurrences, one pair of Bessel values
per function: C'_nu(w) = C_{nu-1}(w) - (nu/w) C_nu(w) for C = J, Y, H2 in the
oracle, and I' = I_{nu-1} - (nu/w) I_nu, K' = -K_{nu-1} - (nu/w) K_nu in
_bessel_pack.  Neither cancels for real w: the K terms share a sign and
I_{nu-1} > (nu/w) I_nu.  I_{nu-1} and I_nu are mpmath's besseli.  K_{nu-1}
and K_nu come as one pair from _besselk_pair: Temme's series below |w| = 30
and his continued fraction CF2 from there on, then the upward recurrence.
mpmath's besselk, 13-45 ms a call at integer order and P = 50 below |w| = 8
(the pair: 1.3-1.4 ms) and 0.15-0.5 s above, is not used.  The wronskian
suite checks this pack, the one that every ratio and t(lambda) reads; the
tests' reference route (tests/oracles.py) keeps mpmath's besselk and the
two-sided forms (I_{nu-1} + I_{nu+1})/2 and -(K_{nu-1} + K_{nu+1})/2.

_bessel_pack memoises each pack on (ctx.prec, nu, w): on the working
precision, not the context, since every context(P) is a fresh clone.  The
memo sits above _besselk_pair, so the K-pair tests reach the kernel on every
call.  det_ratio_truncated and t_function pass a real w as an mpc with
imaginary part 0; the pack takes its real part, so besseli and the K pair run
in real arithmetic.  check_det_ratios("small") then computes 18 packs for 432
lookups, and check_large_order_decay 6 for 24.
"""

from __future__ import annotations

import functools
import math
from collections import namedtuple
from fractions import Fraction

from .precision import (DEFAULT_DPS, DomainError, _Deferred, context, float_context, to_complex,
                        to_real)
from .spectrum import DegreeData

# Only the double-precision oracles use numpy, so reports, spectra and the exact
# suites never pay its import.  Nothing here reads `_sp`, so no command imports
# scipy; the name stays bound because perfbench/tracer.py's `install` rebinds it
# to a proxy that reads jv, yv, jvp and yvp from it.
np = _Deferred("numpy")
_sp = _Deferred("scipy.special")

VARIANTS = ("psi2", "phi2", "psi0", "phi0")


class RootIsolationError(RuntimeError):
    """The eigenvalue search could not certify a complete root list."""


def _inner_radius(eps) -> Fraction:
    """eps as a Fraction, refused unless it lies in (0,1)."""
    eps_f = Fraction(eps)
    if not 0 < eps_f < 1:
        raise DomainError(f"eps must lie in (0,1), got {eps}")
    return eps_f


class ModelOperator(namedtuple("ModelOperator", "variant nu A eps")):
    """Descriptor of one scalar model operator on [eps,1].

    variant: one of psi2/phi2/psi0/phi0; nu: the Bessel order, exact (an int
    or a Fraction), > 0 except the harmonic middle degree, nu = 0; A: the
    degree shift entering the Robin coefficients; eps: the left endpoint, in
    (0,1), kept as a Fraction.
    """

    __slots__ = ()

    def __new__(cls, variant: str, nu: int | Fraction, A: Fraction, eps: Fraction):
        if variant not in VARIANTS:
            raise ValueError(f"unknown variant {variant!r}")
        if nu < 0:
            raise DomainError("order nu must be nonnegative")
        return tuple.__new__(cls, (variant, nu, A, _inner_radius(eps)))

    @property
    def length(self) -> float:
        return 1 - float(self.eps)


def end_conditions(variant: str, A):
    """((side, kind, beta), (side, kind, beta)) at the left end, side 'eps', and
    the right end, side '1'.  Kinds: 'D' Dirichlet, 'N' the Robin functional
    with coefficient beta.
    """
    A = Fraction(A)
    beta = {"psi2": A, "phi2": -A, "psi0": -A, "phi0": A}[variant] - Fraction(1, 2)
    if variant in ("psi2", "phi2"):
        return ("eps", "D", None), ("1", "N", beta)
    return ("eps", "N", beta), ("1", "D", None)


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


_CF2_SWITCH = 30


def _besselk_pair(ctx, nu, w):
    """(K_{nu-1}(w), K_nu(w)) for nu >= 0 and Re w >= 0.

    Two sources give K_mu and K_{mu+1} for mu = nu - floor(nu + 1/2) in
    [-1/2, 1/2) (Temme, J. Comput. Phys. 19 (1975) 324): the series
    _temme_series below |w| = _CF2_SWITCH, Steed's continued fraction
    _temme_cf2 from there on.  The upward recurrence K_{mu+j+1} = K_{mu+j-1} +
    (2(mu+j)/w) K_{mu+j}, stable for K, carries them to the pair.  Below
    nu = 1/2 the sources take mu = -nu instead, and K_{-nu} = K_nu, K_{1-nu} =
    K_{nu-1} is the pair itself, without a step down that would cancel
    2 nu log10(2/|w|) digits at small w.  At mu = -1/2, every half-integer
    order, CF2 ends at once (K_{1/2}(w) = sqrt(pi/2w) e^-w), so it serves every w.

    The switch is the crossover, in ms per source call as series / CF2 at
    w = x (re) and w = ix (im), best of 7, with mpmath 1.3.0 (pure-Python
    backend) on a 2-core VM:

        P    mu       x = 8       16         20         25         30         40
        40   0    re  1.4/9.3     3.0/4.1    2.4/3.3    3.2/2.8    3.3/2.5    4.1/2.2
        40   0    im  3.2/35      4.4/17     8.8/24     10/11      6.8/9.5    8.4/7.6
        40   1/3  re  1.7/6.7     2.4/3.8    2.9/3.2    3.3/2.8    3.8/2.5    4.8/2.1
        40   1/3  im  3.8/36      5.7/17     6.1/14     7.3/11     8.2/9.8    11/8.5
        50   0    re  1.5/10      2.2/5.8    2.5/4.7    3.0/4.0    3.6/3.4    4.6/2.8
        50   0    im  3.3/52      4.7/31     5.7/21     8.3/18     7.4/16     9.7/11
        50   1/3  re  1.9/10      2.6/5.5    3.0/4.6    3.5/4.3    4.1/3.7    6.0/2.9
        50   1/3  im  4.5/60      11/27      7.3/22     8.3/17     10/15      13/12
        100  0    re  4.6/44      6.0/37     7.1/23     4.4/14     4.8/13     5.8/9.8
        100  0    im  7.8/259     14/109     9.4/95     11/75      18/58      21/63
        100  1/3  re  5.1/62      6.5/35     7.5/28     5.5/15     6.7/17     7.8/11
        100  1/3  im  13/253      19/187     21/153     18/115     26/104     30/75

    On the real axis CF2 wins from |w| = 25 at P = 40 and from about 30 at
    P = 50 and 60; at P = 100, and on the imaginary axis, the series wins to 40.
    """
    if w.real < 0:
        raise DomainError(f"K pair needs Re w >= 0, got w = {w}")
    if nu < 0:
        raise DomainError(f"K pair needs nu >= 0, got nu = {nu}")
    m = int(ctx.floor(nu + ctx.mpf(1) / 2))
    mu = nu - m if m else -nu
    cf2 = abs(w) >= _CF2_SWITCH or 2 * mu == -1
    return _k_recurrence(m, mu, w, *(_temme_cf2 if cf2 else _temme_series)(ctx, nu, mu, w))


def _k_recurrence(m, mu, w, k0, k1):
    """(K_{nu-1}(w), K_nu(w)), nu = mu + m (m >= 1) or nu = -mu (m = 0), from
    (K_mu(w), K_{mu+1}(w)) by the upward recurrence; w an mpmath value or an array."""
    if m == 0:
        return k1, k0
    for j in range(1, m):
        k0, k1 = k1, k0 + (2 * (mu + j) / w) * k1
    return k0, k1


def _temme_series(ctx, nu, mu, w):
    """(K_mu(w), K_{mu+1}(w)) for |mu| <= 1/2 from Temme's series; nu names the
    pair in the error.

    The terms grow like I_mu(|w|) while K_mu(w) falls like e^(-w), so the sum
    runs with 2|w|/ln 10 guard digits.  (1/Gamma(1-mu) - 1/Gamma(1+mu))/(2 mu)
    cancels -log2|mu| bits and takes that many more; at mu = 0 it is -gamma.
    The loop stops at dps^2 terms, as CF2 does, and raises ArithmeticError
    past that; below the switch it needs at most about 140 (P = 100).
    """
    cap = ctx.dps ** 2
    with ctx.extradps(int(2 * abs(w) / math.log(10)) + 1):
        with ctx.extraprec(-ctx.mag(mu) if mu else 0):
            rg_plus, rg_minus = ctx.rgamma(1 + mu), ctx.rgamma(1 - mu)
            gamma1 = (rg_minus - rg_plus) / (2 * mu) if mu else -ctx.euler
        d = -ctx.log(w / 2)
        e = mu * d
        f = (ctx.pi * mu / ctx.sinpi(mu) if mu else 1) * (
            gamma1 * ctx.cosh(e) + (rg_minus + rg_plus) / 2 * (ctx.sinh(e) / e if e else 1) * d)
        p = ctx.exp(e) / (2 * rg_plus)       # Gamma(1 + mu) (w/2)^-mu / 2
        q = ctx.exp(-e) / (2 * rg_minus)     # Gamma(1 - mu) (w/2)^mu / 2
        c, x = 1, w * w / 4
        s, s1 = f, p
        for i in range(1, cap + 1):
            f = (i * f + p + q) / (i * i - mu * mu)
            c *= x / i
            p /= i - mu
            q /= i + mu
            term = c * f
            s += term
            s1 += c * (p - i * f)
            if abs(term) <= ctx.eps * abs(s):
                break
        else:
            raise ArithmeticError(f"K_nu series for nu = {nu}, w = {w} "
                                  f"did not converge in {cap} terms")
    return +s, 2 * s1 / w


def _temme_cf2(ctx, nu, mu, w):
    """(K_mu(w), K_{mu+1}(w)) for |mu| <= 1/2 from Steed's continued fraction CF2;
    nu names the pair in the error.

    Thompson and Barnett, Comput. Phys. Commun. 47 (1987) 245, for complex w.
    CF2 needs about (D ln 10)^2 / (8|w|) terms for D digits on the real axis
    and twice that on the imaginary axis.  The loop stops at D^2 terms and
    raises ArithmeticError past that.
    """
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
    return k0, k0 * (mu + ctx.mpf(1) / 2 - a1 * h + w) / w


def det_ratio_truncated(op: ModelOperator, z, P: int = DEFAULT_DPS):
    """det(L + nu^2 z^2)/det(L) of op as a quotient of boundary determinants.

    For a two-point boundary problem the ratio is the 2x2 determinant of the
    end conditions on a solution basis of Wronskian -1, divided by its z -> 0
    limit (Burghelea, Friedlander and Kappeler, Proc. AMS 123 (1995)).
    The numerator takes the basis sqrt(x) I_nu(w x), sqrt(x) K_nu(w x) with
    w = nu z, the denominator sqrt(x) x^(+-nu) with the determinant over 2 nu.
    """
    ctx = context(P)
    nu_m = to_real(op.nu, ctx)
    if nu_m <= 0:
        raise DomainError("truncated quotients require nu > 0")
    if z == 0:
        return ctx.mpf(1)
    w = nu_m * to_complex(z, ctx)
    rows = []
    for side, kind, beta in end_conditions(op.variant, op.A):
        x0 = to_real(op.eps, ctx) if side == "eps" else ctx.mpf(1)
        I, Ip, K, Kp = _bessel_pack(ctx, nu_m, w * x0)
        p = x0 ** nu_m
        # (C, t C'(t)) at t = w x0 for I_nu and K_nu, at t = x0 for t^nu and t^-nu
        basis = ((I, w * x0 * Ip), (K, w * x0 * Kp), (p, nu_m * p), (1 / p, -nu_m / p))
        if kind == "D":
            rows.append([ctx.sqrt(x0) * c for c, _ in basis])
        else:
            shift = to_real(beta + Fraction(1, 2), ctx)
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
    ctx = context(P)
    nu_m = to_real(nu, ctx)
    A_m = to_real(DegreeData(k, n).A, ctx)
    eps_m = to_real(_inner_radius(eps), ctx)
    if nu_m <= abs(A_m):
        raise DomainError("frequencies satisfy nu > |A|")

    lam_m = to_complex(lam, ctx)
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


def large_argument_constant(k: int, n: int, nu, eps, P: int = DEFAULT_DPS):
    """b of the large-argument law t ~ log(-lam) + b: b = 2 log eps - log(1 - A^2/nu^2)."""
    ctx = context(P)
    nu_m = to_real(nu, ctx)
    A_m = to_real(DegreeData(k, n).A, ctx)
    return 2 * ctx.log(to_real(Fraction(eps), ctx)) - ctx.log(1 - A_m ** 2 / nu_m ** 2)


def h_det(k: int, n: int, eps, P: int = DEFAULT_DPS):
    """Zeta determinant of the harmonic-sector operator with mixed conditions: 2 eps^(k - n/2)."""
    if n < 1 or n % 2 == 0:
        raise DomainError("n must be odd (k = n/2 never occurs)")
    if not 0 <= k <= n:
        raise ValueError(f"degree k must lie in 0..{n}")
    eps_f = _inner_radius(eps)
    ctx = context(P)
    return 2 * to_real(eps_f, ctx) ** (k - ctx.mpf(n) / 2)


def harmonic_operator(k: int, n: int, eps) -> ModelOperator:
    """The degree-k harmonic-sector operator on [eps,1]: psi0 at order |A_k|."""
    A = DegreeData(k, n).A
    return ModelOperator("psi0", abs(A), A, eps)


# ---------------------------------------------------------------------------
# Double-precision Bessel pairs for the eigenvalue oracle


_NP_HANKEL_FROM = 25.0     # Hankel's expansion from |w| = max(this, nu^2)
_NP_CF2_FROM = 6.0         # K at +-iw: Temme's series below, CF2 from here
_NP_J_SERIES_BELOW = 4.0   # J from its power series below max(this, nu + 1)
_NP_TERM_TOL = 2.0 ** -57
_NP_STEP_CAP = 10000       # on their ranges the series and CF2 take under 100 steps


def _cylinder_pairs(nu: float, w):
    """((J_{nu-1}(w), J_nu(w)), (C_{nu-1}(w), C_nu(w))) for nu >= 0 and an array w
    with Re w > 0: C = Y for real w, C = H2 for complex w.

    From |w| = max(25, nu^2) on, Hankel's expansion (_hankel_pairs).  Below,
    H2_a(w) = (2/pi) i^(a+1) K_a(iw) and H1_a(w) = (2/pi) (-i)^(a+1) K_a(-iw),
    with the K pair from _np_k_pair; real w takes J = Re H2 and Y = -Im H2,
    complex w J = (H1 + H2)/2.  Below |w| = max(4, nu + 1), where |J| << |H|,
    J comes from its power series instead; the series cancels like e^|w|, so
    never past the Temme switch at 6.  Each point's value depends on that
    point alone, so an array gives what its elements give one by one.
    """
    w = np.asarray(w)
    shape, w = w.shape, w.ravel()
    real = not np.iscomplexobj(w)
    out = np.empty((4, w.size), dtype=w.dtype)
    r = np.abs(w)
    radius = max(_NP_HANKEL_FROM, nu * nu)
    far = r >= radius
    if far.any():
        out[:, far] = _hankel_pairs(nu, w[far], real, radius)
    near = ~far
    if near.any():
        wn = w[near]
        ph = 2 / math.pi * complex(math.cos(math.pi * nu / 2), math.sin(math.pi * nu / 2))
        if real:
            k_prev, k = _np_k_pair(nu, 1j * wn)
            h2 = ph * k_prev, 1j * ph * k
            pairs = h2[0].real, h2[1].real, -h2[0].imag, -h2[1].imag
        else:
            k_prev, k = (np.split(v, 2) for v in _np_k_pair(nu, np.concatenate([1j * wn, -1j * wn])))
            h2 = ph * k_prev[0], 1j * ph * k[0]
            h1 = ph.conjugate() * k_prev[1], -1j * ph.conjugate() * k[1]
            pairs = (h1[0] + h2[0]) / 2, (h1[1] + h2[1]) / 2, h2[0], h2[1]
        out[:, near] = pairs
    series_below = min(max(_NP_J_SERIES_BELOW, nu + 1), _NP_CF2_FROM)
    small = r < series_below
    if small.any():
        out[0, small] = _np_j_series(nu - 1, w[small], series_below)
        out[1, small] = _np_j_series(nu, w[small], series_below)
    return out.reshape((2, 2) + shape)


@functools.lru_cache(maxsize=128)
def _hankel_coefficients(a: float, radius: float):
    """Coefficients of P_a and z Q_a in 1/z^2 from Hankel's a_k(a), to the first
    term below _NP_TERM_TOL at |z| = radius; at a half-integer order the
    series ends by itself."""
    coef, term, k = [1.0], 1.0, 1
    while True:
        term *= (4 * a * a - (2 * k - 1) ** 2) / (8 * k)
        if term == 0 or abs(term) < _NP_TERM_TOL * radius ** k:
            break
        coef.append(term)
        k += 1
    return tuple(tuple(c if j % 2 == 0 else -c for j, c in enumerate(coef[i::2])) for i in (0, 1))


def _hankel_pairs(nu, z, real, radius):
    """The four values of _cylinder_pairs for |z| >= radius from Hankel's expansion

        H2_a(z) = sqrt(2/(pi z)) e^(-i omega) (P_a(z) - i Q_a(z)),
        omega = z - (a/2 + 1/4) pi,

    and H1_a its conjugate form; omega's cosine and sine combine cos z and
    sin z of the float z with those of the phase, since z - phase in floats
    would lose its last bits at large z.  Order nu - 1 has omega + pi/2.
    """
    u = 1 / (z * z)
    (P1, Q1), (P, Q) = ((np.polyval(p[::-1], u), np.polyval(q[::-1], u) / z)
                        for p, q in (_hankel_coefficients(a, radius) for a in (nu - 1, nu)))
    phase = math.pi * (nu / 2 + 0.25)
    s = np.sqrt(2 / (math.pi * z))
    if real:
        cz, sz, cp, sp = np.cos(z), np.sin(z), math.cos(phase), math.sin(phase)
        cw, sw = cz * cp + sz * sp, sz * cp - cz * sp      # cos and sin of omega
        return (s * (-P1 * sw - Q1 * cw), s * (P * cw - Q * sw),
                s * (P1 * cw - Q1 * sw), s * (P * sw + Q * cw))
    e = complex(math.cos(phase), math.sin(phase))
    em, ep = np.exp(-1j * z) * e, np.exp(1j * z) * e.conjugate()     # e^(-i omega), e^(i omega)
    h2_prev, h2 = -1j * s * em * (P1 - 1j * Q1), s * em * (P - 1j * Q)
    h1_prev, h1 = 1j * s * ep * (P1 + 1j * Q1), s * ep * (P + 1j * Q)
    return (h1_prev + h2_prev) / 2, (h1 + h2) / 2, h2_prev, h2


def _np_j_series(a, w, radius):
    """J_a(w) for a >= -1 from its power series, to the first term bound below
    _NP_TERM_TOL at |w| = radius, a count that depends on a and radius alone."""
    if a == -1:
        return -_np_j_series(1.0, w, radius)
    x = -(w * w) / 4
    t, s, k, bound = 1.0, 1.0, 0, 1.0
    while bound >= _NP_TERM_TOL:
        k += 1
        t = t * x / (k * (a + k))
        s = s + t
        bound *= radius * radius / 4 / (k * abs(a + k))
    return (w / 2) ** a / math.gamma(a + 1) * s


def _np_k_pair(nu, w):
    """(K_{nu-1}(w), K_nu(w)) for a complex array w, |w| < max(25, nu^2), Re w of
    either sign: _besselk_pair's order split and recurrence on numpy's
    Temme series below |w| = _NP_CF2_FROM and CF2 from there."""
    m = math.floor(nu + 0.5)
    mu = nu - m if m else -nu
    k0, k1 = np.empty_like(w), np.empty_like(w)
    cf2 = np.abs(w) >= _NP_CF2_FROM
    if 2 * mu == -1:
        cf2[:] = True
    for pick, source in ((cf2, _np_temme_cf2), (~cf2, _np_temme_series)):
        if pick.any():
            k0[pick], k1[pick] = source(mu, w[pick])
    return _k_recurrence(m, mu, w, k0, k1)


@functools.lru_cache(maxsize=128)
def _temme_gammas(mu: float):
    """(pi mu / sin(pi mu)) (gamma1, gamma2), 1/Gamma(1 + mu) and 1/Gamma(1 - mu)
    of Temme's series as floats, rounded from a 53-bit context with the bits
    that gamma1's difference cancels added."""
    ctx = float_context()
    with ctx.extraprec(20 + (-ctx.mag(mu) if mu else 0)):
        m = ctx.mpf(mu)
        rg_plus, rg_minus = ctx.rgamma(1 + m), ctx.rgamma(1 - m)
        gamma1 = (rg_minus - rg_plus) / (2 * m) if mu else -ctx.euler
        fact = ctx.pi * m / ctx.sinpi(m) if mu else 1
        values = fact * gamma1, fact * (rg_minus + rg_plus) / 2, rg_plus, rg_minus
    return tuple(map(float, values))


def _np_temme_series(mu, w):
    """(K_mu(w), K_{mu+1}(w)) for |mu| <= 1/2 and a complex array w from Temme's
    series, as _temme_series, each point summed until its own term falls
    below a double's precision."""
    g1, g2, rg_plus, rg_minus = _temme_gammas(mu)
    d = -np.log(w / 2)
    e = mu * d
    f = g1 * np.cosh(e) + g2 * (np.sinh(e) / e if mu else 1) * d
    p = np.exp(e) / (2 * rg_plus)
    q = np.exp(-e) / (2 * rg_minus)
    x = w * w / 4
    c = np.ones_like(w)
    state = [f, p, q, x, c, f, p]
    out = _converge_each(state, _temme_series_step, mu, 1, np.zeros(w.size, dtype=bool))
    return out[0], 2 * out[1] / w


def _temme_series_step(i, state, mu):
    """Term i of _np_temme_series on state = [f, p, q, x, c, s, s1]; returns the
    convergence test of each point."""
    f, p, q, x, c, s, s1 = state
    f = (i * f + p + q) / (i * i - mu * mu)
    c = c * (x / i)
    p = p / (i - mu)
    q = q / (i + mu)
    term = c * f
    s = s + term
    state[:] = f, p, q, x, c, s, s1 + c * (p - i * f)
    return np.abs(term) <= 2.0 ** -53 * np.abs(s)


def _np_temme_cf2(mu, w):
    """(K_mu(w), K_{mu+1}(w)) for |mu| <= 1/2 and a complex array w from Steed's
    CF2, as _temme_cf2."""
    a1 = 0.25 - mu * mu
    b = 2 * (1 + w)
    d = 1 / b
    q = np.full_like(w, a1)
    dels = q * d
    s = 1 + dels
    state = [np.zeros_like(w), np.ones_like(w), q, b, d, d, dels, s, d]
    s, h = _converge_each(state, _cf2_step, [a1, -a1], 2, np.abs(dels) <= 2.0 ** -53 * np.abs(s))
    k0 = np.sqrt(math.pi / (2 * w)) * np.exp(-w) / s
    return k0, k0 * (mu + 0.5 - a1 * h + w) / w


def _cf2_step(i, state, ca):
    """Iteration i of _np_temme_cf2 on state = [q1, q2, q, b, d, delh, dels, s, h]
    and the scalars ca = [c, a]; returns the convergence test of each point."""
    q1, q2, q, b, d, delh, dels, s, h = state
    c, a = ca
    a -= 2 * (i - 1)
    c = -a * c / i
    ca[:] = c, a
    q1, q2 = q2, (q1 - b * q2) / a
    q = q + c * q2
    b = b + 2
    d = 1 / (b + a * d)
    delh = (b * d - 1) * delh
    dels = q * delh
    s = s + dels
    state[:] = q1, q2, q, b, d, delh, dels, s, h + delh
    return np.abs(dels) <= 2.0 ** -53 * np.abs(s)


def _converge_each(state, step, param, first, done):
    """Run step(i, state, param) for i = first, first + 1, ... on the state arrays
    until each point's convergence test passes, and return the last two state
    arrays of each point as they were when its test first passed; done is the
    test before the first step.

    A point's values depend on that point alone.  Points that have converged
    stay in the arrays, and go on being stepped, until half of them have;
    then the arrays are cut to the rest, so a loop over a few slow points
    does not pay for the whole array.
    """
    n = done.size
    out = np.empty((2, n), dtype=state[-1].dtype)
    todo = np.arange(n)
    live = np.ones(n, dtype=bool)
    for i in range(first, _NP_STEP_CAP):
        done &= live
        if done.any():
            out[0, todo[done]], out[1, todo[done]] = state[-2][done], state[-1][done]
            live &= ~done
            left = np.count_nonzero(live)
            if left == 0:
                return out
            if 2 * left <= live.size:
                todo, state[:] = todo[live], [v[live] if np.ndim(v) else v for v in state]
                live = np.ones(left, dtype=bool)
        done = step(i, state, param)
    raise ArithmeticError(f"{step.__name__} did not converge in {_NP_STEP_CAP} steps")


# ---------------------------------------------------------------------------
# Brute-force eigenvalue oracle (double precision scan + certified count)


def _eigen_condition(op: ModelOperator):
    """The eigencondition of op as a function of real or complex mu, scalar or array.

    Each end condition applied to sqrt(x) J_nu(mu x) and sqrt(x) Y_nu(mu x)
    gives a pair (U_J, U_Y), and the condition is U_J(left) U_Y(right) -
    U_Y(left) U_J(right).  At complex mu the ends take J and H2 = J - iY, so
    Y = (J - H2)/i and the same determinant is (U_H2(left) U_J(right) -
    U_J(left) U_H2(right)) / i, with H2 as the kernel makes it and no Y formed.
    The real axis keeps J, Y: any other basis moves the last bits of the roots.
    Both ends go to _cylinder_pairs as one array, and each end condition reads
    its pair through C'_nu(w) = C_{nu-1}(w) - (nu/w) C_nu(w).  The end
    conditions become float coefficients (x0, sqrt(x0), beta + 1/2) once.
    """
    nu = float(op.nu)

    def coefficients(side, kind, beta):
        x0 = float(op.eps) if side == "eps" else 1.0
        return x0, math.sqrt(x0), None if kind == "D" else float(Fraction(beta) + Fraction(1, 2))

    ends = [coefficients(*cond) for cond in end_conditions(op.variant, op.A)]

    def apply(pair, w, x0, root, shift):
        prev, c = pair
        if shift is None:
            return root * c
        # w C'_nu(w) + shift C_nu(w) = w C_{nu-1}(w) + (shift - nu) C_nu(w)
        return (w * prev + (shift - nu) * c) / root

    def F(mu):
        mu = np.asarray(mu)
        w = np.stack([mu * x0 for x0, _, _ in ends])
        (lJ, rJ), (lC, rC) = ([apply(pair[:, e], w[e], *ends[e]) for e in (0, 1)]
                              for pair in _cylinder_pairs(nu, w))
        if np.iscomplexobj(mu):
            return (lC * rJ - lJ * rC) / 1j
        return lJ * rC - lC * rJ
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
    strict-interlacing check, and an argument-principle winding count on the
    conjugate-symmetric contour certifying that no root was missed.
    """
    if not 1 <= count <= 500:
        raise ValueError(f"oracle supports 1 <= count <= 500, got {count}")
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
    ctx = float_context()
    s2 = float(ctx.psi(1, aM)) / c ** 2
    s4p = float(ctx.psi(3, aM)) / 6
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
