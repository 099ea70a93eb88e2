"""Precision contexts and conversions, and the tests' two-sided Bessel reference
(oracles.py): closed forms, identities, precision contracts."""

from fractions import Fraction

import mpmath as mp
import pytest
from hypothesis import given, settings, strategies as st

from conetorsion import precision
from conetorsion.precision import DomainError, PrecisionError, context
from oracles import bessel_i, bessel_i_prime, bessel_k, bessel_k_prime


def test_half_order_i_closed_forms():
    ctx = context(50)
    for z in (1, 2):
        want = ctx.sqrt(2 / (ctx.pi * z)) * ctx.sinh(z)
        assert abs(bessel_i(Fraction(1, 2), z, 50) - want) < ctx.mpf("1e-55")


def test_half_order_k_closed_forms():
    ctx = context(50)
    want = ctx.sqrt(ctx.pi / 2) * ctx.exp(-1)
    assert abs(bessel_k(Fraction(1, 2), 1, 50) - want) < ctx.mpf("1e-55")
    # derivative of sqrt(pi/(2z)) e^-z at z = 1 is -(3/2) sqrt(pi/2) e^-1
    want_d = -ctx.sqrt(ctx.pi / 2) * ctx.exp(-1) * ctx.mpf(3) / 2
    assert abs(bessel_k_prime(Fraction(1, 2), 1, 50) - want_d) < ctx.mpf("1e-55")


@pytest.mark.parametrize("nu,z", [
    (Fraction(1, 2), 1), (2, 3), (Fraction(7, 2), (1, 1)), (10, (3, 4)), (Fraction(5, 2), (2, -1)),
])
def test_wronskian_identity(nu, z):
    P = 50
    ctx = context(P)
    zc = ctx.mpc(*z) if isinstance(z, tuple) else ctx.mpf(z)
    w = zc * (bessel_k(nu, z, P) * bessel_i_prime(nu, z, P)
              - bessel_k_prime(nu, z, P) * bessel_i(nu, z, P))
    assert abs(w - 1) < ctx.mpf(10) ** (8 - P)


def test_bessel_series_oracle_doubled_precision():
    # high-order complex value against the plain ascending series at 2P digits
    P = 30
    nu, z = 10, mp.mpc(3, 4)
    got = bessel_i(nu, (3, 4), P)
    with mp.workdps(2 * P):
        acc = mp.mpc(0)
        term_z = (mp.mpc(3, 4) / 2) ** nu
        for m in range(200):
            acc += (mp.mpc(3, 4) / 2) ** (2 * m) / (mp.factorial(m) * mp.gamma(m + nu + 1))
        series = term_z * acc
    assert abs(got - series) / abs(series) < mp.mpf(10) ** (5 - P)


# The test oracles call digamma and Hurwitz zeta (and its s-derivative)
# directly on the contexts that context(P) returns; the package itself reaches
# them only through the exact integer-shift and half-integer closed forms.


def test_digamma_classical_values():
    P = 50
    ctx = context(P)
    g = ctx.euler
    half = precision.to_real(Fraction(1, 2), ctx)
    assert abs(ctx.digamma(half) - (-g - 2 * ctx.log(2))) < ctx.mpf("1e-55")
    assert abs(ctx.digamma(1) + g) < ctx.mpf("1e-55")
    want = -g - 2 * ctx.log(2) + 2 * (1 + ctx.mpf(1) / 3 + ctx.mpf(1) / 5)
    assert abs(ctx.digamma(3 + half) - want) < ctx.mpf("1e-54")


def test_hurwitz_values():
    P = 50
    ctx = context(P)
    assert ctx.zeta(0, precision.to_real(Fraction(1, 2), ctx)) == 0
    assert abs(ctx.zeta(2, 1) - ctx.pi ** 2 / 6) < ctx.mpf("1e-55")
    assert abs(ctx.zeta(0, 1, 1) + ctx.log(2 * ctx.pi) / 2) < ctx.mpf("1e-55")


@pytest.mark.parametrize("s,a", [(2, Fraction(1, 3)), (Fraction(-3, 2), 2), ((2, 1), Fraction(3, 4))])
def test_hurwitz_recurrence(s, a):
    P = 40
    ctx = context(P)
    a_m = precision.to_real(a, ctx)
    s_m = ctx.mpc(*s) if isinstance(s, tuple) else precision.to_real(s, ctx)
    lhs = ctx.zeta(s_m, a_m) - ctx.zeta(s_m, a_m + 1)
    assert abs(lhs - a_m ** (-s_m)) < ctx.mpf(10) ** (5 - P)


def test_monotone_precision():
    P = 40
    pairs = [
        bessel_i(Fraction(7, 2), (2, 1), P), bessel_i(Fraction(7, 2), (2, 1), P + 10),
        bessel_k(3, 5, P), bessel_k(3, 5, P + 10),
    ]
    for Q in (P, P + 10):
        ctx = context(Q)
        pairs.append(ctx.zeta(precision.to_real(Fraction(5, 2), ctx),
                              precision.to_real(Fraction(1, 3), ctx)))
    for lo, hi in zip(pairs[::2], pairs[1::2]):
        assert abs(mp.mpmathify(lo) - mp.mpmathify(hi)) <= abs(mp.mpmathify(hi)) * mp.mpf(10) ** (5 - P)


def test_domain_errors():
    with pytest.raises(DomainError):
        bessel_i(-1, 1, 30)
    with pytest.raises(DomainError):
        bessel_k(1, 0, 30)
    with pytest.raises(DomainError):
        bessel_i(1, (-2, 0), 30)
    with pytest.raises(PrecisionError):
        bessel_i(1, 1, 10)
    with pytest.raises(PrecisionError):
        context(precision.MAX_DPS + 1)


ZERO_BITS = st.integers(min_value=0, max_value=3000)


@settings(max_examples=300, deadline=None)
@given(st.integers(min_value=-2 ** 700, max_value=2 ** 700), ZERO_BITS,
       st.integers(min_value=1, max_value=2 ** 400), ZERO_BITS, st.integers(min_value=20, max_value=300))
def test_to_real_rounds_rationals_as_mpmath_does(a, i, b, j, P):
    # trailing zero bits go to ldexp, which does not round: the result is mpmath's, bit for bit
    ctx = context(P)
    num, den = a << i, b << j
    assert precision._int_to_real(num, ctx)._mpf_ == ctx.mpf(num)._mpf_
    assert precision._int_to_real(den, ctx)._mpf_ == ctx.mpf(den)._mpf_
    x = Fraction(num, den)
    want = ctx.mpf(x.numerator) / ctx.mpf(x.denominator)
    assert precision.to_real(x, ctx)._mpf_ == want._mpf_
    assert precision.to_complex(x, ctx).real._mpf_ == want._mpf_
