"""Exact-rational coefficient polynomials of the uniform large-order Bessel expansions.

The uniform expansions of I_nu(nu z) and K_nu(nu z) for large order carry
polynomial coefficients u_r(t), v_r(t) in the variable t = (1 + z^2)^(-1/2).
Taking formal logarithms of the bracketed series produces two further
families D_r(t) and M_r(t, A) (the latter with an affine shift parameter A
mixing the u- and v-series), whose coefficient arrays x_{r,b} and z_{r,b}(A)
on the exponent ladder t^{r+2b} feed the residue combinations downstream.

Everything in this module is exact rational arithmetic; floating point only
appears when a finished polynomial is evaluated at a numeric point.  The
polynomials are instances of `Polynomial`, the package's one sparse exact
ring, which `spectrum`, `zeta` and `berezin` use as well.

Generation rules:

* u_0 = v_0 = 1,
  u_{r+1}(t) = (1/2) t^2 (1 - t^2) u_r'(t) + (1/8) \\int_0^t (1 - 5 s^2) u_r(s) ds,
  v_{r+1}(t) = u_{r+1}(t) + t (t^2 - 1) ( u_r(t)/2 + t u_r'(t) ).
  These are the standard recurrences for the uniform expansions; they are
  validated numerically (fit against high-order Bessel values) in the test
  suite before anything downstream trusts them.
* log(1 + sum_r u_r x^r) = sum_r D_r x^r as a formal power series.
* log[(1 + sum_r v_r x^r) + A t x (1 + sum_r u_r x^r)] = sum_r M_r(t, A) x^r.

Identities relied on downstream (all tested exactly):
M_r(1, A) = D_r(1) - (-A)^r / r, and the vanishing of
sum_b [2 x_{2r+1,b} - z_{2r+1,b}(-A) - z_{2r+1,b}(A)] for every odd index.
"""

from __future__ import annotations

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

    def __mul__(self, other):
        nvars = self._common_nvars(other)
        out = {}
        for k1, c1 in self.coeffs.items():
            for k2, c2 in other.coeffs.items():
                k = tuple(map(add, k1, k2))
                out[k] = out.get(k, 0) + c1 * c2
        return Polynomial._of(nvars, {k: c for k, c in out.items() if c})

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

    def evaluate(self, monomial, P: int, ctx):
        """Numeric value: sum of to_real(c) * monomial(*exponents), in sorted key order."""
        acc = ctx.mpf(0)
        for k, c in sorted(self.coeffs.items()):
            acc += to_real(c, P, ctx) * monomial(*k)
        return acc


_ONE = Polynomial({(0,): 1})

# Generated families, memoised behind a lock so concurrent first use is safe.
_cache_lock = threading.Lock()
_u: list[Polynomial] = [_ONE]
_v: list[Polynomial] = [_ONE]
_d: dict[int, Polynomial] = {}
_m: dict[int, Polynomial] = {}

_T = Polynomial({(1,): 1})                      # t
_W_U = Polynomial({(2,): 1, (4,): -1})          # t^2 (1 - t^2)
_G_U = Polynomial({(0,): 1, (2,): -5})          # 1 - 5 s^2
_W_V = Polynomial({(3,): 1, (1,): -1})          # t (t^2 - 1)


def _extend_uv(r: int) -> None:
    while len(_u) <= r:
        u = _u[-1]
        nxt = _W_U * u.derivative()
        nxt = nxt.scale(Fraction(1, 2)) + (_G_U * u).integral_from_zero().scale(Fraction(1, 8))
        _u.append(nxt)
        transfer = u.scale(Fraction(1, 2)) + _T * u.derivative()
        _v.append(nxt + _W_V * transfer)


def u_poly(r: int) -> Polynomial:
    """Coefficient polynomial u_r(t) of the large-order expansion of I/K."""
    if r < 0:
        raise ValueError("r must be nonnegative")
    with _cache_lock:
        _extend_uv(r)
        return _u[r]


def v_poly(r: int) -> Polynomial:
    """Coefficient polynomial v_r(t) of the large-order expansion of I'/K'."""
    if r < 0:
        raise ValueError("r must be nonnegative")
    with _cache_lock:
        _extend_uv(r)
        return _v[r]


def _series_log_t(coeff_at, rmax: int) -> list:
    """Formal-log coefficients l_r of 1 + sum c_r x^r, coefficients in a ring.

    Uses r*c_r = sum_{j=1}^r j*l_j*c_{r-j}; coeff_at(0) must be the ring unit.
    """
    l = [None] * (rmax + 1)
    for r in range(1, rmax + 1):
        acc = coeff_at(r).scale(r)
        for j in range(1, r):
            acc = acc + (l[j] * coeff_at(r - j)).scale(-j)
        l[r] = acc.scale(Fraction(1, r))
    return l


def d_poly(r: int) -> Polynomial:
    """Formal-log coefficient D_r(t) of the u-series."""
    if r < 1:
        raise ValueError("r must be >= 1")
    with _cache_lock:
        if r not in _d:
            _extend_uv(r)
            logs = _series_log_t(lambda i: _u[i], r)
            for i in range(1, r + 1):
                _d.setdefault(i, logs[i])
        return _d[r]


def m_poly(r: int) -> Polynomial:
    """Formal-log coefficient M_r(t, A) of the combined v-series + A t x u-series.

    A polynomial in the two variables (t, A).
    """
    if r < 1:
        raise ValueError("r must be >= 1")
    with _cache_lock:
        if r not in _m:
            _extend_uv(r)

            def wcoeff(i):
                if i == 0:
                    return Polynomial({(0, 0): 1})
                # v_i(t) + A t u_{i-1}(t)
                return Polynomial({**{(e, 0): c for (e,), c in _v[i].coeffs.items()},
                                   **{(e + 1, 1): c for (e,), c in _u[i - 1].coeffs.items()}}, 2)

            logs = _series_log_t(wcoeff, r)
            for i in range(1, r + 1):
                _m.setdefault(i, logs[i])
        return _m[r]


def xz_coefficients(r: int):
    """Arrays x_{r,b} and z_{r,b}(A) on the exponent ladder {r+2b : 0 <= b <= r}.

    Returns (xs, zs) with xs[b] a Fraction and zs[b] a polynomial in A.
    Raises StructureError if a generated polynomial has support off the ladder,
    which would signal a recursion transcription bug.
    """
    if r < 1:
        raise ValueError("r must be >= 1")
    d = d_poly(r)
    m = m_poly(r)
    ladder = [r + 2 * b for b in range(r + 1)]
    off_d = {e for (e,) in d.coeffs}.difference(ladder)
    off_m = {e for e, _a in m.coeffs}.difference(ladder)
    if off_d:
        raise StructureError(f"D_{r} has exponents {sorted(off_d)} off the ladder")
    if off_m:
        raise StructureError(f"M_{r} has exponents {sorted(off_m)} off the ladder")
    xs = [d.coeffs.get((e,), Fraction(0)) for e in ladder]
    zs = [Polynomial({(a,): c for (t, a), c in m.coeffs.items() if t == e}, 1) for e in ladder]
    return xs, zs


def residual_bracket(r: int, A) -> list:
    """The combinations 2 x_{2r+1,b} - z_{2r+1,b}(-A) - z_{2r+1,b}(A), b = 0..2r+1.

    Exact Fractions; their sum over b vanishes for every r (tested).
    """
    A = Fraction(A)
    xs, zs = xz_coefficients(2 * r + 1)
    return [2 * x - z.substitute(0, A) - z.substitute(0, -A) for x, z in zip(xs, zs)]


def large_nu_term(r: int, A) -> Polynomial:
    """Coefficient of (-nu)^(-r) in the large-order expansion of the log-determinant combination.

    Equals -2 D_r(t) + M_r(t, A) + M_r(t, -A) + (A^r + (-A)^r)/r, as an exact
    polynomial in t (the constant term is the shift contribution).
    """
    A = Fraction(A)
    m = m_poly(r)
    return (d_poly(r).scale(-2) + m.substitute(1, A) + m.substitute(1, -A)
            + Polynomial({(0,): (A ** r + (-A) ** r) / r}))

