"""Arbitrary-precision special functions with explicit working precision.

Every routine takes the target precision ``P`` (decimal digits) as an
explicit argument and evaluates inside a throwaway mpmath context set to
``P`` plus a guard band, so no global precision state leaks between calls
and values can be shared freely across threads.

Conventions:

* logs and non-integer powers use the principal branch on the plane cut
  along the negative real axis; values on the cut are the limit from the
  upper side (mpmath's convention).
* modified Bessel functions are evaluated for ``Re z >= 0`` (the validity
  sector of every formula in this package); the imaginary axis is accepted
  as the boundary limit.
* derivative formulas use the stable two-term recurrences
  ``I' = (I_{nu-1} + I_{nu+1})/2`` and ``K' = -(K_{nu-1} + K_{nu+1})/2``
  rather than mpmath's ``derivative=`` keyword (which ``besselk`` ignores).

Error model: a single documented operation returns a value with relative
error at most ``10**(5 - P)``.  This is a consequence of mpmath's internal
error control plus the guard digits; it is not proved here but is enforced
empirically by the precision-doubling checks in the test suite.
"""

from __future__ import annotations

from fractions import Fraction

import mpmath

DEFAULT_DPS = 50
GUARD_DIGITS = 10
MIN_DPS = 20


class DomainError(ValueError):
    """Argument outside the supported domain (branch cut, pole, sign)."""


class PrecisionError(ValueError):
    """Requested precision is not attainable or not allowed."""


def context(P: int = DEFAULT_DPS) -> mpmath.ctx_mp.MPContext:
    """A fresh mpmath context carrying ``P`` digits plus guard digits."""
    if P < MIN_DPS:
        raise PrecisionError(f"working precision must be >= {MIN_DPS} digits, got {P}")
    ctx = mpmath.mp.clone()
    ctx.dps = P + GUARD_DIGITS
    return ctx


def to_real(x, P: int = DEFAULT_DPS, ctx=None):
    """Convert int/Fraction/str/float/mpf to an mpf at precision P (exactly for rationals)."""
    ctx = ctx or context(P)
    if isinstance(x, Fraction):
        return ctx.mpf(x.numerator) / ctx.mpf(x.denominator)
    return ctx.mpf(x)


def to_complex(z, P: int = DEFAULT_DPS, ctx=None):
    ctx = ctx or context(P)
    if isinstance(z, Fraction):
        return ctx.mpc(to_real(z, P, ctx))
    if isinstance(z, tuple):
        return ctx.mpc(to_real(z[0], P, ctx), to_real(z[1], P, ctx))
    return ctx.mpc(z)


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
    nu = to_real(nu, P, ctx)
    z = to_complex(z, P, ctx)
    _check_bessel_args(nu, z, ctx)
    v = ctx.besseli(nu, z)
    return v.real if z.imag == 0 else v


def bessel_i_prime(nu, z, P: int = DEFAULT_DPS):
    """d/dz I_nu(z) via the recurrence (I_{nu-1} + I_{nu+1})/2."""
    ctx = context(P)
    nu = to_real(nu, P, ctx)
    z = to_complex(z, P, ctx)
    _check_bessel_args(nu, z, ctx)
    v = (ctx.besseli(nu - 1, z) + ctx.besseli(nu + 1, z)) / 2
    return v.real if z.imag == 0 else v


def bessel_k(nu, z, P: int = DEFAULT_DPS):
    """Modified Bessel function of the second kind K_nu(z)."""
    ctx = context(P)
    nu = to_real(nu, P, ctx)
    z = to_complex(z, P, ctx)
    _check_bessel_args(nu, z, ctx)
    v = ctx.besselk(nu, z)
    return v.real if z.imag == 0 else v


def bessel_k_prime(nu, z, P: int = DEFAULT_DPS):
    """d/dz K_nu(z) via the recurrence -(K_{nu-1} + K_{nu+1})/2."""
    ctx = context(P)
    nu = to_real(nu, P, ctx)
    z = to_complex(z, P, ctx)
    _check_bessel_args(nu, z, ctx)
    v = -(ctx.besselk(nu - 1, z) + ctx.besselk(nu + 1, z)) / 2
    return v.real if z.imag == 0 else v
