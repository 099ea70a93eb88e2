"""Working-precision mpmath contexts and exact conversion into them.

A numeric routine takes the target precision ``P`` (decimal digits) as an
explicit argument, makes a throwaway context with ``context(P)`` (``P`` plus
a guard band) and evaluates inside it, so no global precision state leaks
between calls and values can be shared freely across threads.  ``to_real``
and ``to_complex`` bring ints, ``Fraction``s (exactly), strings, floats and
(re, im) pairs into a given context.  Steps whose result becomes a float
take ``float_context()``, 53 bits.

Logs and non-integer powers use the principal branch on the plane cut along
the negative real axis; values on the cut are the limit from the upper side
(mpmath's convention).

Error model: a single documented operation returns a value with relative
error at most ``10**(5 - P)``.  This is a consequence of mpmath's internal
error control plus the guard digits; it is not proved here but is enforced
empirically by the precision-doubling checks in the test suite.

mpmath, like numpy in ``operators``, is imported on first use
(``_Deferred``): ``context`` and ``float_context`` are the first readers, so
the CLI import, ``spectrum`` and the exact suites of ``verify`` never load it.
"""

from __future__ import annotations

from fractions import Fraction
from importlib import import_module

DEFAULT_DPS = 50
GUARD_DIGITS = 10
MIN_DPS = 20


class _Deferred:
    """A module imported when one of its attributes is first read.

    Each attribute is cached on the instance, so later reads are plain
    attribute lookups.  Readers look attributes up at call time (`mpmath.mp`,
    `np.sqrt`), so a stand-in rebound under the module-level name sees every
    later read.
    """

    def __init__(self, name: str):
        self._name = name

    def __getattr__(self, attr):
        value = getattr(import_module(self._name), attr)
        setattr(self, attr, value)
        return value


mpmath = _Deferred("mpmath")


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


def float_context() -> mpmath.ctx_mp.MPContext:
    """A fresh mpmath context at 53 bits, a float's precision, for the steps
    whose result becomes a float; the global ``mpmath.mp`` never reaches it."""
    ctx = mpmath.mp.clone()
    ctx.prec = 53
    return ctx


def _int_to_real(m: int, ctx):
    """ctx.mpf(m), bit for bit, without mpmath's pure-Python from_int stripping
    m's trailing zero bits one chunk at a time (quadratic in their count)."""
    s = (m & -m).bit_length() - 1 if m else 0
    return ctx.ldexp(ctx.mpf(m >> s), s)


def to_real(x, ctx):
    """Convert int/Fraction/str/float/mpf to an mpf of ctx (exactly for rationals)."""
    if isinstance(x, Fraction):
        return _int_to_real(x.numerator, ctx) / _int_to_real(x.denominator, ctx)
    return ctx.mpf(x)


def to_complex(z, ctx):
    """Convert a to_real value or a (re, im) pair of them to an mpc of ctx."""
    if isinstance(z, Fraction):
        return ctx.mpc(to_real(z, ctx))
    if isinstance(z, tuple):
        return ctx.mpc(to_real(z[0], ctx), to_real(z[1], ctx))
    return ctx.mpc(z)
