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

Variants (sign convention sigma = +1 for the 'psi' family, -1 for 'phi'):

    psi2 / phi2 on [eps,1]: Dirichlet at eps, N(sigma A - 1/2) at 1;
    psi0 / phi0 on [eps,1]: N(-sigma A - 1/2) at eps, Dirichlet at 1;
    h0 (harmonic sector):   like psi0 with order nu = |A|.

Zeta-determinant ratios det(L + nu^2 z^2)/det(L) are evaluated through
boundary data of explicitly normalized solutions (the boundary-value
determinant formula), not by transcribing the equivalent displayed
Bessel-quotient forms; the displays and the full-cone closed forms are the
tests' cross-checks (tests/oracles.py).  A brute-force
eigenvalue oracle (dense scan + argument-principle count verification +
bracketed refinement) validates both routes and the absolute harmonic-sector
determinant 2 eps^(k - n/2).

Derivatives come from the one-sided recurrences, two Bessel evaluations per
function: C'_nu(w) = C_{nu-1}(w) - (nu/w) C_nu(w) for C = J, Y in the oracle,
and I' = I_{nu-1} - (nu/w) I_nu, K' = -K_{nu-1} - (nu/w) K_nu in _bessel_pack.
Neither cancels for real w: the K terms share a sign and I_{nu-1} > (nu/w) I_nu.
The precision module keeps the two-sided forms (I_{nu-1} + I_{nu+1})/2 and
-(K_{nu-1} + K_{nu+1})/2, so the wronskian suite checks an independent route.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from importlib import import_module
from typing import Optional

from .precision import DEFAULT_DPS, DomainError, context, to_complex, to_real


class _Deferred:
    """A module imported when one of its attributes is first read.

    Only the double-precision oracles use numpy and scipy, so reports, spectra
    and the exact suites never pay their import.  Each attribute is cached on
    the instance, so later reads are plain attribute lookups.  The oracles read
    `_sp.jv` and the like at call time, so a stand-in rebound as
    `operators._sp` (perfbench/tracer.py counts Bessel calls so) sees them all.
    """

    def __init__(self, name: str):
        self._name = name

    def __getattr__(self, attr):
        value = getattr(import_module(self._name), attr)
        setattr(self, attr, value)
        return value


np = _Deferred("numpy")
_sp = _Deferred("scipy.special")
_optimize = _Deferred("scipy.optimize")

FAMILIES = ("psi", "phi")
VARIANTS = ("psi2", "phi2", "psi0", "phi0", "h0")


class RootIsolationError(RuntimeError):
    """The eigenvalue search could not certify a complete root list."""


@dataclass(frozen=True)
class ModelOperator:
    """Descriptor of one scalar model operator.

    variant: one of psi2/phi2/psi0/phi0/h0; nu: Bessel order (> 0 except
    the harmonic middle degree, nu = 0); A: the degree shift entering the
    Robin coefficients; eps: left endpoint of [eps,1], or None for the full
    interval (0,1] with the admissible-branch condition at 0.
    """

    variant: str
    nu: float
    A: Fraction
    eps: Optional[Fraction] = None

    def __post_init__(self):
        if self.variant not in VARIANTS:
            raise ValueError(f"unknown variant {self.variant!r}")
        if self.eps is not None and not 0 < self.eps < 1:
            raise DomainError(f"eps must lie in (0,1), got {self.eps}")
        if self.nu < 0:
            raise DomainError("order nu must be nonnegative")

    @property
    def length(self) -> float:
        return 1.0 - float(self.eps) if self.eps is not None else 1.0

    def boundary_conditions(self):
        """((side, kind, beta), ...) with side in {'0','eps','1'}.

        Kinds: 'D' Dirichlet, 'N' the Robin functional with coefficient beta,
        'D0' the admissible-branch condition at the cone tip, which keeps the
        x^(nu+1/2) solution.
        """
        A = Fraction(self.A)
        if self.eps is None:
            right = {
                "psi2": ("1", "N", A - Fraction(1, 2)),
                "phi2": ("1", "N", -A - Fraction(1, 2)),
                "psi0": ("1", "D", None),
                "phi0": ("1", "D", None),
                "h0": ("1", "D", None),
            }[self.variant]
            return (("0", "D0", None), right)
        table = {
            "psi2": (("eps", "D", None), ("1", "N", A - Fraction(1, 2))),
            "phi2": (("eps", "D", None), ("1", "N", -A - Fraction(1, 2))),
            "psi0": (("eps", "N", -A - Fraction(1, 2)), ("1", "D", None)),
            "phi0": (("eps", "N", A - Fraction(1, 2)), ("1", "D", None)),
            "h0": (("eps", "N", -A - Fraction(1, 2)), ("1", "D", None)),
        }
        return table[self.variant]


# ---------------------------------------------------------------------------
# Normalized solutions


def normalized_solution(family: str, nu, A, x, z, P: int = DEFAULT_DPS):
    """Solution of (L + z^2) f = 0 with the Robin condition at 1 and f(1) = 1.

    family 'psi' uses shift +A, 'phi' uses -A.  At z = 0 the closed form
    ((nu - sA) x^(nu+1/2) + (nu + sA) x^(-nu+1/2)) / (2 nu) applies.
    """
    if family not in FAMILIES:
        raise ValueError(f"family must be in {FAMILIES}")
    ctx = context(P)
    s = 1 if family == "psi" else -1
    nu_m = to_real(nu, P, ctx)
    A_m = s * to_real(A, P, ctx)
    x_m = to_real(x, P, ctx)
    if not 0 < x_m <= 1:
        raise DomainError(f"x must lie in (0,1], got {x}")
    if z == 0:
        if nu_m == 0:
            raise DomainError("closed z=0 form needs nu > 0")
        return ((nu_m - A_m) * x_m ** (nu_m + ctx.mpf(1) / 2)
                + (nu_m + A_m) * x_m ** (-nu_m + ctx.mpf(1) / 2)) / (2 * nu_m)
    z_m = to_complex(z, P, ctx)
    if z_m.real < 0:
        raise DomainError(f"z = {z} outside the sector Re z >= 0")
    I, Ip, K, Kp = _bessel_pack(ctx, nu_m, z_m)
    val = ((z_m * Ip + A_m * I) * ctx.sqrt(x_m) * ctx.besselk(nu_m, z_m * x_m)
           - (z_m * Kp + A_m * K) * ctx.sqrt(x_m) * ctx.besseli(nu_m, z_m * x_m))
    return val.real if val.imag == 0 else val


def _bessel_pack(ctx, nu, w):
    """I, I', K, K' at argument w (mpmath context values), w != 0.

    I' = I_{nu-1} - (nu/w) I_nu and K' = -K_{nu-1} - (nu/w) K_nu.
    """
    I = ctx.besseli(nu, w)
    K = ctx.besselk(nu, w)
    r = nu / w
    return I, ctx.besseli(nu - 1, w) - r * I, K, -ctx.besselk(nu - 1, w) - r * K


def _dirichlet_seed_robin_data(ctx, nu, w, x, shift):
    """The Robin functional with beta + 1/2 = shift applied to the seed solution
    sqrt(x) [I_nu(w x) K_nu(w) - K_nu(w x) I_nu(w)], which vanishes at 1.

    Analytic derivative: equals x^(-1/2) [ (w x I'(wx) + shift I(wx)) K(w)
                                          - (w x K'(wx) + shift K(wx)) I(w) ].
    """
    Iwx, Ipwx, Kwx, Kpwx = _bessel_pack(ctx, nu, w * x)
    return ((w * x * Ipwx + shift * Iwx) * ctx.besselk(nu, w)
            - (w * x * Kpwx + shift * Kwx) * ctx.besseli(nu, w)) / ctx.sqrt(x)


def _dirichlet_seed_zero_robin(ctx, nu, x, shift):
    """Robin data of the z = 0 seed:  x^(-1/2) [ (nu+shift) x^nu + (nu-shift) x^-nu ] / (2 nu)."""
    return ((nu + shift) * x ** nu + (nu - shift) * x ** (-nu)) / (2 * nu * ctx.sqrt(x))


def det_ratio_truncated(variant: str, nu, A, z, eps, P: int = DEFAULT_DPS):
    """det(L + nu^2 z^2)/det(L) on [eps,1] via normalized-solution quotients.

    psi2/phi2 use the solution normalized at x = 1 evaluated through the
    Dirichlet functional at eps; psi0/phi0 use the Robin functional at eps
    applied to the seed solution vanishing at 1.
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
    z_m = to_complex(z, P, ctx)
    w = nu_m * z_m
    eps_m = to_real(eps_f, P, ctx)
    if variant in ("psi2", "phi2"):
        family = "psi" if variant == "psi2" else "phi"
        num = normalized_solution(family, nu, A, eps_f, w, P)
        den = normalized_solution(family, nu, A, eps_f, 0, P)
        val = num / den
    else:
        s = 1 if variant == "psi0" else -1
        shift = -s * to_real(A, P, ctx)     # beta + 1/2 = -sigma A at the eps end
        num = _dirichlet_seed_robin_data(ctx, nu_m, w, eps_m, shift)
        den = _dirichlet_seed_zero_robin(ctx, nu_m, eps_m, shift)
        val = num / den
    return val.real if getattr(val, "imag", 0) == 0 else val


# ---------------------------------------------------------------------------
# The combined log-determinant function


def t_function(k: int, n: int, nu, eps, lam, P: int = DEFAULT_DPS):
    """The eight-log combination t(lam) entering the regularized trace per frequency.

    Vanishes at lam = 0 (evaluated there through the exact small-argument
    limits, which is also where the eps-dependence cancels), grows like
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

    if lam == 0:
        # exact small-argument limits: the z-divergent pieces cancel in the
        # five-term group, the remaining quotient groups tend to eps^(2 nu)
        # with weights +2 - 2.
        five = (ctx.log(nu_m + A_m) + ctx.log(nu_m - A_m) - 2 * ctx.log(nu_m)
                - ctx.log(1 - A_m ** 2 / nu_m ** 2))
        q = ctx.log(1 - eps_m ** (2 * nu_m))
        return five + (-q - q + q + q)

    lam_m = to_complex(lam, P, ctx)
    if lam_m.imag == 0 and lam_m.real > 0:
        raise DomainError("lam on the positive real axis lies on the branch cut")
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


def _boundary_functional(op: ModelOperator):
    """The boundary functionals of op applied to sqrt(x) J_nu(mu x) and sqrt(x) Y_nu(mu x).

    The conditions become float coefficients (x0, sqrt(x0), beta + 1/2) once;
    the returned function takes real or complex mu, scalar or array, and gives
    (UL_J, UL_Y, UR_J, UR_Y).  On the full interval the left pair is
    (None, None): the Dirichlet branch at 0 keeps J_nu alone.
    """
    nu = float(op.nu)

    def coefficients(side, kind, beta):
        if side == "0":
            return None
        x0 = float(op.eps) if side == "eps" else 1.0
        return x0, math.sqrt(x0), None if kind == "D" else float(Fraction(beta) + Fraction(1, 2))

    left, right = (coefficients(*cond) for cond in op.boundary_conditions())

    def apply(C, mu, x0, root, shift):
        w = mu * x0
        c = C(nu, w)
        if shift is None:
            return root * c
        # w C'_nu(w) + shift C_nu(w) = w C_{nu-1}(w) + (shift - nu) C_nu(w)
        return (w * C(nu - 1, w) + (shift - nu) * c) / root

    def functional(mu):
        if left is None:
            return None, None, apply(_sp.jv, mu, *right), None
        return (apply(_sp.jv, mu, *left), apply(_sp.yv, mu, *left),
                apply(_sp.jv, mu, *right), apply(_sp.yv, mu, *right))

    return functional


def _eigen_condition(op: ModelOperator):
    functional = _boundary_functional(op)

    def F(mu):
        ULJ, ULY, URJ, URY = functional(mu)
        if ULJ is None:
            return URJ
        return ULJ * URY - ULY * URJ
    return F


def _winding_count(op: ModelOperator, mu_lo: float, mu_hi: float, samples: int) -> int:
    """Zeros of the eigencondition inside a thin rectangle around [mu_lo, mu_hi],
    counted by the argument principle (phase tracking along the boundary)."""
    delta = (mu_hi - mu_lo) / samples * 6.0
    t = np.linspace(0, 1, samples)
    s = np.linspace(-1, 1, 60)
    path = np.concatenate([
        mu_lo + (mu_hi - mu_lo) * t - 1j * delta,
        mu_hi + 1j * delta * s,
        mu_hi + (mu_lo - mu_hi) * t + 1j * delta,
        mu_lo - 1j * delta * s,
    ])
    vals = _eigen_condition(op)(path)
    if np.any(vals == 0) or np.any(~np.isfinite(vals)):
        raise RootIsolationError("argument-principle contour hit a zero or overflow")
    phases = np.unwrap(np.angle(vals))
    w = (phases[-1] - phases[0]) / (2 * math.pi)
    return int(round(w))


def eigenvalues_oracle(op: ModelOperator, count: int, verify_winding: bool = True):
    """First `count` eigenvalues lambda_i = mu_i^2 of the model operator.

    Dense sign scan at roughly twelve samples per expected spacing, brentq
    refinement, strict-interlacing check, and (for the two-endpoint case)
    an argument-principle winding count certifying that no root was missed.
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
    idx = np.where(sgn[:-1] * sgn[1:] < 0)[0]
    roots = []
    for i in idx:
        roots.append(_optimize.brentq(F, grid[i], grid[i + 1],
                                      xtol=1e-13, rtol=8.9e-16, maxiter=200))
        if len(roots) >= count + 2:
            break
    if len(roots) < count:
        raise RootIsolationError(
            f"found only {len(roots)} roots below mu = {mu_max:.1f}; widen the scan")
    roots = sorted(roots)[:count]
    diffs = np.diff(roots)
    if np.any(diffs <= 0):
        raise RootIsolationError("eigenvalues failed strict interlacing")
    if verify_winding and op.eps is not None:
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


def det_ratio_oracle(op: ModelOperator, z, count: int = 240):
    """Eigenvalue-product estimate of det(L + nu^2 z^2)/det(L).

    The value prod_i (1 + (nu z)^2 / lambda_i) with a fitted tail, Richardson
    extrapolated in the truncation length (the systematic tail-model error
    scales like 1/M^2).  Double precision; ~1e-8 relative at count = 240,
    backing the 1e-6 oracle comparisons.
    """
    lam = np.array(eigenvalues_oracle(op, count))
    w2 = (float(op.nu) * float(z)) ** 2
    l_half = _log_product_estimate(lam[: count // 2], op.length, w2)
    l_full = _log_product_estimate(lam, op.length, w2)
    return math.exp(l_full + (l_full - l_half) / 3.0)


def zeta_det_oracle(op: ModelOperator, count: int = 300, eigenvalues=None):
    """Numerical zeta determinant exp(-zeta'(0)) from brute-force eigenvalues.

    zeta'(0) is continued with the fitted eigenvalue asymptotics
    mu_i = (pi/L)(i + q + a1/i + a2/i^2 + a3/i^3): the partial sum of
    -2 log mu_i plus the analytic tail

        -2 log(pi/L) zeta_H(0, a) + 2 zeta_H'(0, a) - 2 sum_{i>M} delta_i,

    a = M + 1 + q, delta_i the relative frequency correction.  Exact on the
    free Dirichlet operator (det = 2L), which pins the normalization.
    """
    import mpmath as mp
    if eigenvalues is None:
        eigenvalues = eigenvalues_oracle(op, count)
    lam = np.asarray(eigenvalues, dtype=float)
    mus = np.sqrt(lam)
    c, (q, a1, a2, a3) = _tail_fit(mus, op.length)
    M = len(mus)
    aM = mp.mpf(M + 1) + q

    partial = math.fsum(2.0 * np.log(mus))
    zh0 = mp.mpf(1) / 2 - aM
    zh0p = mp.loggamma(aM) - mp.log(2 * mp.pi) / 2
    # sum_{i>M} delta_i with delta_i = (a1/i + a2/i^2 + a3/i^3)/(i+q)
    if abs(q) > 1e-8:
        T1 = (mp.digamma(aM) - mp.digamma(M + 1)) / q
        T2 = (mp.zeta(2, M + 1) - T1) / q
        T3 = (mp.zeta(3, M + 1) - T2) / q
    else:
        T1 = mp.zeta(2, M + 1)
        T2 = mp.zeta(3, M + 1)
        T3 = mp.zeta(4, M + 1)
    Sdelta = a1 * T1 + a2 * T2 + a3 * T3
    ztail = -2 * mp.log(c) * zh0 + 2 * zh0p - 2 * Sdelta
    zprime0 = -mp.mpf(partial) + ztail
    return float(mp.e ** (-zprime0))
