"""Exact-rational coefficient polynomials of the uniform large-order Bessel expansions.

The uniform expansions of I_nu(nu z) and K_nu(nu z) for large order carry
polynomial coefficients u_r(t), v_r(t) in the variable t = (1 + z^2)^(-1/2).
Taking formal logarithms of the bracketed series produces two further
families D_r(t) and M_r(t, A) (the latter with an affine shift parameter A
mixing the u- and v-series), whose coefficients x_{r,b} and z_{r,b}(A) of
t^{r+2b} feed the residue combinations downstream.  The four families are
built once, one index at a time, in one memo.

Everything in this module is exact rational arithmetic; floating point only
appears when a finished polynomial is evaluated at a numeric point.  The
polynomials are instances of `Polynomial`, the package's one sparse exact
ring, which `spectrum`, `zeta` and `berezin` use as well.

Generation rules:

* u_0 = v_0 = 1,
  u_{r+1}(t) = (1/2) t^2 (1 - t^2) u_r'(t) + (1/8) \\int_0^t (1 - 5 s^2) u_r(s) ds,
  v_{r+1}(t) = u_{r+1}(t) + t (t^2 - 1) ( u_r(t)/2 + t u_r'(t) ).
  These standard recurrences are validated numerically (fit against
  high-order Bessel values) in the tests before anything downstream trusts them.
* log(1 + sum_r u_r x^r) = sum_r D_r x^r as a formal power series.
* log[(1 + sum_r v_r x^r) + A t x (1 + sum_r u_r x^r)] = sum_r M_r(t, A) x^r.

Identities relied on downstream (all tested exactly): M_r(1, A) = D_r(1) - (-A)^r / r,
and the residual bracket 2 x_{R,b} - z_{R,b}(-A) - z_{R,b}(A), R = 2r+1, which
is minus the odd-index large-order coefficient (of t^{R+2b} in
large_nu_term(R, A)), sums to zero over b.
"""

from __future__ import annotations

import math
import threading
from fractions import Fraction
from operator import add

from .precision import to_real


class StructureError(RuntimeError):
    """A generated polynomial violates its exponent-support invariant."""


class Polynomial:
    """Sparse exact polynomial: a dict from exponent tuple to nonzero Fraction.

    The same ring serves the t- and (t, A)-polynomials here, the multiplicity
    polynomials of `spectrum` and the pi/scale half-power numbers of
    `berezin` (whose exponents may be negative).  Every key of a polynomial
    has length `nvars`, fixed at construction, and combining polynomials in
    different numbers of variables raises, so no variable is ever dropped.
    """

    __slots__ = ("nvars", "coeffs")

    def __init__(self, coeffs, nvars=None):
        if nvars is None:
            if not coeffs:
                raise ValueError("the zero polynomial needs an explicit nvars")
            nvars = len(next(iter(coeffs)))
        self.nvars = nvars
        self.coeffs = {}
        for k, c in coeffs.items():
            k = tuple(k)
            if len(k) != nvars:
                raise ValueError(f"exponent tuple {k} does not have {nvars} entries")
            if c:
                self.coeffs[k] = Fraction(c)

    @classmethod
    def _of(cls, nvars, coeffs):
        """Wrap an already normalised dict (tuple keys, nonzero Fractions)."""
        out = object.__new__(cls)
        out.nvars = nvars
        out.coeffs = coeffs
        return out

    def _common_nvars(self, other) -> int:
        if self.nvars != other.nvars:
            raise ValueError(
                f"cannot combine polynomials in {self.nvars} and {other.nvars} variables")
        return self.nvars

    def __add__(self, other):
        nvars = self._common_nvars(other)
        out = dict(self.coeffs)
        for k, c in other.coeffs.items():
            s = out.get(k, 0) + c
            if s:
                out[k] = s
            else:
                del out[k]
        return Polynomial._of(nvars, out)

    def _numerators(self):
        """(exponent -> integer numerator, common denominator): the lcm of the denominators."""
        den = math.lcm(*(c.denominator for c in self.coeffs.values()))
        return {k: c.numerator * (den // c.denominator) for k, c in self.coeffs.items()}, den

    def __mul__(self, other):
        nvars = self._common_nvars(other)
        n1, d1 = self._numerators()
        n2, d2 = other._numerators()
        den = d1 * d2
        return Polynomial._of(nvars, {k: Fraction(c, den)
                                      for k, c in _convolve(n1, n2).items() if c})

    def scale(self, c) -> "Polynomial":
        c = Fraction(c)
        return Polynomial._of(self.nvars, {k: v * c for k, v in self.coeffs.items()} if c else {})

    def __eq__(self, other):
        return (isinstance(other, Polynomial) and self.nvars == other.nvars
                and self.coeffs == other.coeffs)

    def __repr__(self):
        return f"Polynomial({self.coeffs!r}, {self.nvars})"

    def derivative(self) -> "Polynomial":
        """Derivative in the first variable."""
        return Polynomial._of(self.nvars, {(k[0] - 1,) + k[1:]: c * k[0]
                                           for k, c in self.coeffs.items() if k[0]})

    def integral_from_zero(self) -> "Polynomial":
        """Antiderivative in the first variable, vanishing where that variable is 0."""
        return Polynomial._of(self.nvars, {(k[0] + 1,) + k[1:]: c / (k[0] + 1)
                                           for k, c in self.coeffs.items()})

    def substitute(self, i: int, value):
        """Set variable i to the exact rational `value`.

        The result is a polynomial in the remaining variables, in their
        order; substituting the only variable gives the exact value itself.
        """
        value = Fraction(value)
        out = {}
        for k, c in self.coeffs.items():
            rest = k[:i] + k[i + 1:]
            out[rest] = out.get(rest, 0) + c * value ** k[i]
        if self.nvars == 1:
            return out.get((), Fraction(0))
        return Polynomial._of(self.nvars - 1, {k: c for k, c in out.items() if c})

    def evaluate(self, monomial, ctx):
        """Numeric value: sum of to_real(c) * monomial(*exponents), in sorted key order."""
        acc = ctx.mpf(0)
        for k, c in sorted(self.coeffs.items()):
            acc += to_real(c, ctx) * monomial(*k)
        return acc


_ONE = Polynomial({(0,): 1})
_T = Polynomial({(1,): 1})                      # t
_W_U = Polynomial({(2,): 1, (4,): -1})          # t^2 (1 - t^2)
_G_U = Polynomial({(0,): 1, (2,): -5})          # 1 - 5 s^2
_W_V = Polynomial({(3,): 1, (1,): -1})          # t (t^2 - 1)

# The generated families u_r, v_r, D_r, M_r at index r (D_0 = M_0 = 0) and the
# M-series coefficients w_r = v_r + A t u_{r-1} (w_0 = 1), behind one lock.
_cache_lock = threading.Lock()
_u: list[Polynomial] = [_ONE]
_v: list[Polynomial] = [_ONE]
_d: list[Polynomial] = [Polynomial({}, 1)]
_m: list[Polynomial] = [Polynomial({}, 2)]
_wm: list[Polynomial] = [Polynomial({(0, 0): 1})]


def _next_uv(u: Polynomial):
    """(u_{r+1}, v_{r+1}) from u_r by the recurrences above."""
    nxt = _W_U * u.derivative()
    nxt = nxt.scale(Fraction(1, 2)) + (_G_U * u).integral_from_zero().scale(Fraction(1, 8))
    transfer = u.scale(Fraction(1, 2)) + _T * u.derivative()
    return nxt, nxt + _W_V * transfer


def _convolve(a: dict, b: dict) -> dict:
    """Product of two exponent -> integer dicts, keys in first-seen order (zeros kept)."""
    out = {}
    for k1, c1 in a.items():
        for k2, c2 in b.items():
            k = tuple(map(add, k1, k2))
            out[k] = out.get(k, 0) + c1 * c2
    return out


def _w(v: Polynomial, u: Polynomial) -> Polynomial:
    """v(t) + A t u(t) in (t, A): the coefficient v_r + A t u_{r-1} of the M-series."""
    return Polynomial({**{(e, 0): c for (e,), c in v.coeffs.items()},
                       **{(e + 1, 1): c for (e,), c in u.coeffs.items()}}, 2)


def _log_coefficient(newest: Polynomial, coeffs: list, logs: list) -> Polynomial:
    """Formal-log coefficient l_r of 1 + sum c_i x^i, r = len(logs), from l_j = logs[j].

    Uses r*l_r = r*c_r - sum_{j=1}^{r-1} j*l_j*c_{r-j}, with c_r = `newest` and
    c_i = coeffs[i] for i < r, summed as integers over one common denominator.
    """
    r = len(logs)
    top, top_den = newest._numerators()
    products = []
    for j in range(1, r):
        (a, da), (b, db) = logs[j]._numerators(), coeffs[r - j]._numerators()
        products.append((j, _convolve(a, b), da * db))
    den = math.lcm(top_den, *(d for _j, _p, d in products))
    acc = {k: r * c * (den // top_den) for k, c in top.items()}
    for j, product, d in products:
        f = -j * (den // d)
        for k, c in product.items():
            acc[k] = acc.get(k, 0) + c * f
    den *= r
    return Polynomial._of(newest.nvars, {k: Fraction(c, den) for k, c in acc.items() if c})


def _extend(r: int) -> None:
    """Grow u, v, D and M together up to index r; the caller holds the lock.

    A new D_i or M_i with a t-exponent off the ladder {i + 2b : 0 <= b <= i}
    raises StructureError (a recursion transcription bug) and nothing is stored.
    """
    while len(_u) <= r:
        i = len(_u)
        u, v = _next_uv(_u[-1])
        w = _w(v, _u[-1])
        d = _log_coefficient(u, _u, _d)
        m = _log_coefficient(w, _wm, _m)
        for name, p in (("D", d), ("M", m)):
            off = {k[0] for k in p.coeffs}.difference(range(i, 3 * i + 1, 2))
            if off:
                raise StructureError(f"{name}_{i} has exponents {sorted(off)} off the ladder")
        for family, p in zip((_u, _v, _d, _m, _wm), (u, v, d, m, w)):
            family.append(p)


def _lookup(family: list, r: int, lowest: int) -> Polynomial:
    if r < lowest:
        raise ValueError(f"r must be >= {lowest}")
    with _cache_lock:
        _extend(r)
        return family[r]


def u_poly(r: int) -> Polynomial:
    """Coefficient polynomial u_r(t) of the large-order expansion of I/K."""
    return _lookup(_u, r, 0)


def v_poly(r: int) -> Polynomial:
    """Coefficient polynomial v_r(t) of the large-order expansion of I'/K'."""
    return _lookup(_v, r, 0)


def d_poly(r: int) -> Polynomial:
    """Formal-log coefficient D_r(t) of the u-series."""
    return _lookup(_d, r, 1)


def m_poly(r: int) -> Polynomial:
    """Formal-log coefficient M_r(t, A) of the combined v-series + A t x u-series."""
    return _lookup(_m, r, 1)


def residual_bracket(r: int, A) -> list:
    """2 x_{R,b} - z_{R,b}(-A) - z_{R,b}(A), b = 0..R, R = 2r+1, as exact Fractions.

    Minus the t^{R+2b} coefficients of large_nu_term(R, A), whose shift constant is 0 at odd R.
    """
    R = 2 * r + 1
    p = large_nu_term(R, A)
    return [-p.coeffs.get((R + 2 * b,), Fraction(0)) for b in range(R + 1)]


def large_nu_term(r: int, A) -> Polynomial:
    """Coefficient of (-nu)^(-r) in the large-order expansion of the log-determinant combination.

    Equals -2 D_r(t) + M_r(t, A) + M_r(t, -A) + (A^r + (-A)^r)/r, as an exact
    polynomial in t (the constant term is the shift contribution).
    """
    A = Fraction(A)
    m = m_poly(r)
    return (d_poly(r).scale(-2) + m.substitute(1, A) + m.substitute(1, -A)
            + Polynomial({(0,): (A ** r + (-A) ** r) / r}))
