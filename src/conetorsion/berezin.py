"""Boundary metric-anomaly class for conformally collared metrics, in closed form.

Near a boundary component with collar metric f(x)(dx^2 + g) over a closed
odd-dimensional (N^n, g) of constant sectional curvature kappa, the anomaly
of the torsion metric (Bruening-Ma, GAFA 16, 2006) is the integral over N of
a secondary class B built from two elements of the graded tensor algebra
Lambda T*N (x) hatted copy,

    S. = (f'(0)/4) sum_k e*_k ^ e^*_k(hat)                    (bidegree (1,1))
    R. = kappa     sum_{a<b} (e*_a e*_b) (e^*_a e^*_b)(hat)   (bidegree (2,2)),

combined through an exponential and a half-integer-Gamma weighted series in
u S., integrated in u over (0,1] against du/u, and pushed down by a Berezin
integral that extracts the top hatted monomial.

The Berezin integral needs only the top coefficient of R.^(j_R) S.^m, and
that has a closed form.  Each x_k = e*_k ^ e^*_k(hat) is even, the x_k
commute with each other and x_k^2 = 0.  Moving e^*_a(hat) past e*_b gives

    S. = c sum_k x_k,  c = f'(0)/4,     R. = -kappa sum_{a<b} x_a x_b.

A monomial x_1...x_n in R.^(j_R) S.^m (m + 2 j_R = n) picks 2 j_R of the n
indices for the curvature factors, (2 j_R)!/2^(j_R) ordered pairings of
them, and m! orderings of the rest, so its coefficient is

    (-kappa)^(j_R) c^m n! / 2^(j_R).

Reordering x_1...x_n = (-1)^(n(n-1)/2) e*_top ^ e^*_top(hat) and applying the
Berezin sign (-1)^(n(n+1)/2) leaves (-1)^(n^2) = -1 for odd n.

Normalization conventions (FLAGGED: these are convention choices, fixed by
the package's own cross-checks, not free parameters; each one is a visible
line of `b_class`):

* the Berezin integral is taken to be nontrivial exactly on hatted degree
  n = dim N (the standard convention; "degree" could also be read as total
  degree, which is ruled out by the checks below);
* the Berezin normalization constant is the standard (-1)^(n(n+1)/2) pi^(-n/2);
* the u-series starts at its QUADRATIC term: sum_{k>=2} (u S.)^k / (2 Gamma(k/2+1)).
  With the linear k = 1 term included, the class acquires a spurious linear
  S.-term which (a) makes the n = 1 class nonzero, contradicting the exact
  vanishing forced by the spectral side over a circle base, and (b) injects
  a curvature cross-term at n = 3 that the sphere/torus spectral data
  exclude (their residual terms coincide).  The adopted convention
  reproduces the spectral side exactly for circle, 3-sphere, 3-torus,
  5-sphere, 5-torus and a one-parameter family of rescaled 5-spheres.

All arithmetic is exact: coefficients are rationals times integer half
powers of pi and of the overall metric scale.  Each factor carries its own
scale half power (S. +1, R. +2, the Berezin integral -n), and these cancel
in every surviving term, which is the scaling-invariance mechanism; the
final class coefficient is rational times pi^(-(n+1)/2).
"""

from __future__ import annotations

import math
from collections import namedtuple
from fractions import Fraction

from .olver import Polynomial
from .precision import DEFAULT_DPS, DomainError, context


def fold_scale(x: Polynomial, scale) -> Polynomial:
    """Substitute the numeric metric scale s into sum c_{p,h} pi^(p/2) s^(h/2).

    Every scale half power h must be even; the result is a polynomial in the
    pi half power alone.
    """
    for _p, h in x.coeffs:
        if h % 2 != 0:
            raise ArithmeticError(f"unbalanced scale half-power {h} survived")
    return Polynomial({(p, h // 2): c for (p, h), c in x.coeffs.items()}, 2).substitute(1, scale)


class CollarMetric(namedtuple("CollarMetric", "n kappa fprime0 scale")):
    """Conformal collar f(x)(dx^2 + g) over a constant-curvature (N^n, g).

    kappa: sectional curvature of g (1 for round unit spheres, 0 for flat
    tori); fprime0: derivative of the conformal factor at the boundary;
    scale: overall metric multiplier used by the scaling checks.
    """

    __slots__ = ()

    def __new__(cls, n: int, kappa: Fraction, fprime0: Fraction, scale: Fraction = Fraction(1)):
        if n < 1 or n % 2 == 0:
            raise DomainError("collar base dimension must be odd")
        if scale <= 0:
            raise DomainError("metric scale must be positive")
        return tuple.__new__(cls, (n, kappa, fprime0, scale))


def scaled(cm: CollarMetric, s) -> CollarMetric:
    """The collar of the metric multiplied by s > 0."""
    # the constructor, not _replace, which would skip the scale check
    return CollarMetric(cm.n, cm.kappa, cm.fprime0, cm.scale * Fraction(s))


class AnomalyClass(namedtuple("AnomalyClass", "n coefficient")):
    """The boundary class as (exact coefficient of the volume form, n).

    The coefficient is a Polynomial sum c_p pi^(p/2) in the pi half power,
    with the metric scale folded in.
    """

    __slots__ = ()

    def value(self, P: int = DEFAULT_DPS):
        return _pi_value(self.coefficient, P)


def _pi_value(x: Polynomial, P: int):
    """Numeric value of sum c_p pi^(p/2)."""
    if x.nvars != 1:
        raise ArithmeticError("scale must be folded before numeric evaluation")
    ctx = context(P)
    return x.evaluate(lambda p: ctx.pi ** (ctx.mpf(p) / 2), ctx)


def b_class(cm: CollarMetric) -> AnomalyClass:
    """The exact volume-form coefficient of the anomaly class.

    Surviving terms have hatted degree n: (j_R, j, k) with 2 j_R + 2 j + k = n
    and k >= 2, weighted by

        -(-1/2)^(j_R)/j_R! * (-1)^j/j! * 1/(2 Gamma(k/2+1)) * 1/(k+2j),

    the last factor being the u-integral of u^(k+2j-1); the Berezin integral
    of R.^(j_R) S.^(k+2j) is the closed form of the module docstring.
    """
    n = cm.n
    c = Fraction(cm.fprime0, 4)
    # the Berezin integral: (-1)^(n(n+1)/2) pi^(-n/2) s^(-n/2) on e*_top ^ e^*_top(hat)
    berezin = Polynomial({(-n, -n): (-1) ** ((n * (n + 1)) // 2)})
    # x_1...x_n = (-1)^(n(n-1)/2) e*_top ^ e^*_top(hat)
    top = berezin.scale((-1) ** ((n * (n - 1)) // 2) * math.factorial(n))
    acc = Polynomial({}, 2)
    for j_r in range(0, n // 2 + 1):
        for j in range(0, n // 2 + 1):
            k = n - 2 * j_r - 2 * j  # hatted degree n: m + 2 j_R = n
            if k < 2:  # the u-series starts at its quadratic term
                continue
            m = k + 2 * j
            weight = (Fraction(-1, 2) ** j_r / math.factorial(j_r)
                      * Fraction(-1) ** j / math.factorial(j)
                      * Fraction(1, m))
            # R. = -kappa sum x_a x_b with s^1, S. = c sum x_k with s^(1/2)
            powers = Polynomial({(0, 2 * j_r + m): (-cm.kappa) ** j_r * c ** m / 2 ** j_r})
            # the global minus of the class and the 1/(2 Gamma) weight
            acc = acc + (powers * top * _inverse_half_gamma(k)).scale(-weight / 2)
    return AnomalyClass(n, fold_scale(acc, cm.scale))


def _inverse_half_gamma(k: int) -> Polynomial:
    """1/Gamma(k/2 + 1) = 4^m m! / ((2m)! sqrt(pi)) exactly, for odd k = 2m - 1."""
    m = (k + 1) // 2
    return Polynomial({(-1, 0): Fraction(4 ** m * math.factorial(m), math.factorial(2 * m))})
