"""Anomaly class values, exact pins, scaling and antisymmetry."""

from fractions import Fraction

import pytest

from conetorsion.berezin import (
    AnomalyClass,
    CollarMetric,
    b_class,
    fold_scale,
    scaled,
)
from conetorsion.olver import Polynomial
from conetorsion.precision import DomainError, context

F = Fraction

KAPPAS = (F(0), F(1), F(-2, 3))
FPRIMES = (F(-2), F(2), F(3, 5))

# b_class(CollarMetric(n, kappa, f'(0))).coefficient, recorded from the
# term-by-term expansion in the graded tensor algebra that the closed form
# replaced; the class over a circle base (n = 1) is zero.
PINNED = {
    (3, F(0), F(-2)): Polynomial({(-4,): F(-1, 6)}),
    (3, F(0), F(2)): Polynomial({(-4,): F(1, 6)}),
    (3, F(0), F(3, 5)): Polynomial({(-4,): F(9, 2000)}),
    (3, F(1), F(-2)): Polynomial({(-4,): F(-1, 6)}),
    (3, F(1), F(2)): Polynomial({(-4,): F(1, 6)}),
    (3, F(1), F(3, 5)): Polynomial({(-4,): F(9, 2000)}),
    (3, F(-2, 3), F(-2)): Polynomial({(-4,): F(-1, 6)}),
    (3, F(-2, 3), F(2)): Polynomial({(-4,): F(1, 6)}),
    (3, F(-2, 3), F(3, 5)): Polynomial({(-4,): F(9, 2000)}),
    (5, F(0), F(-2)): Polynomial({(-6,): F(3, 10)}),
    (5, F(0), F(2)): Polynomial({(-6,): F(-3, 10)}),
    (5, F(0), F(3, 5)): Polynomial({(-6,): F(-729, 1000000)}),
    (5, F(1), F(-2)): Polynomial({(-6,): F(-8, 15)}),
    (5, F(1), F(2)): Polynomial({(-6,): F(8, 15)}),
    (5, F(1), F(3, 5)): Polynomial({(-6,): F(21771, 1000000)}),
    (5, F(-2, 3), F(-2)): Polynomial({(-6,): F(77, 90)}),
    (5, F(-2, 3), F(2)): Polynomial({(-6,): F(-77, 90)}),
    (5, F(-2, 3), F(3, 5)): Polynomial({(-6,): F(-15729, 1000000)}),
    (7, F(0), F(-2)): Polynomial({(-8,): F(-45, 56)}),
    (7, F(0), F(2)): Polynomial({(-8,): F(45, 56)}),
    (7, F(0), F(3, 5)): Polynomial({(-8,): F(19683, 112000000)}),
    (7, F(1), F(-2)): Polynomial({(-8,): F(-71, 35)}),
    (7, F(1), F(2)): Polynomial({(-8,): F(71, 35)}),
    (7, F(1), F(3, 5)): Polynomial({(-8,): F(12392379, 112000000)}),
    (7, F(-2, 3), F(-2)): Polynomial({(-8,): F(-12217, 2520)}),
    (7, F(-2, 3), F(2)): Polynomial({(-8,): F(12217, 2520)}),
    (7, F(-2, 3), F(3, 5)): Polynomial({(-8,): F(6471219, 112000000)}),
    **{(1, kappa, fp): Polynomial({}, 1) for kappa in KAPPAS for fp in FPRIMES},
}


def test_b_class_pinned_coefficients():
    assert len(PINNED) == 36
    for (n, kappa, fp), want in PINNED.items():
        assert b_class(CollarMetric(n, kappa, fp)).coefficient == want, (n, kappa, fp)


def test_b_class_known_values():
    ctx = context(40)
    tol = ctx.mpf("1e-44")
    # n = 3: -1/(6 pi^2) independently of the curvature; exactly -1/6 times
    # the pi half power -4
    assert b_class(CollarMetric(3, F(1), F(-2))).coefficient == Polynomial({(-4,): F(-1, 6)})
    for kappa in (F(1), F(0)):
        v = b_class(CollarMetric(3, kappa, F(-2))).value(40)
        assert abs(v + 1 / (6 * ctx.pi ** 2)) < tol
    # n = 5: -8/(15 pi^3) at kappa = 1 and 3/(10 pi^3) at kappa = 0
    assert abs(b_class(CollarMetric(5, F(1), F(-2))).value(40)
               + ctx.mpf(8) / 15 / ctx.pi ** 3) < tol
    assert abs(b_class(CollarMetric(5, F(0), F(-2))).value(40)
               - ctx.mpf(3) / 10 / ctx.pi ** 3) < tol


def test_b_class_vanishing():
    assert not b_class(CollarMetric(3, F(1), F(0))).coefficient.coeffs  # product collar
    assert not b_class(CollarMetric(1, F(0), F(-2))).coefficient.coeffs  # circle base


@pytest.mark.parametrize("s", [F(2), F(1, 3), F(10)])
def test_scaling_invariance_exact(s):
    for n, kappa in ((3, F(1)), (5, F(1)), (5, F(0))):
        cm = CollarMetric(n, kappa, F(-2))
        assert b_class(scaled(cm, s)).coefficient == b_class(cm).coefficient


def test_anomaly_sides_antisymmetric_and_eps_free():
    # every surviving term carries an odd power of f'(0)
    for (n, kappa, fp) in PINNED:
        assert (b_class(CollarMetric(n, kappa, -fp)).coefficient
                == b_class(CollarMetric(n, kappa, fp)).coefficient.scale(-1))
    # the cone's outer collar (f = e^(-2y)) against its inner one (f = eps^2 e^(2z))
    for eps in (F(1, 2), F(1, 4)):
        for n, kappa in ((3, F(1)), (3, F(0)), (5, F(1)), (7, F(-2, 3))):
            outer = b_class(CollarMetric(n, kappa, F(-2))).coefficient
            inner = b_class(scaled(CollarMetric(n, kappa, F(2)), eps * eps)).coefficient
            assert outer.coeffs and outer == inner.scale(-1)


def test_cone_collars_data():
    # the inner collar's eps^2 scale drops out of every class
    for (n, kappa, fp), want in PINNED.items():
        for eps in (F(1, 2), F(1, 3), F(1, 4)):
            inner = scaled(CollarMetric(n, kappa, fp), eps * eps)
            assert inner.fprime0 == fp and inner.scale == eps * eps
            assert b_class(inner).coefficient == want


def test_collar_guards():
    with pytest.raises(DomainError):
        CollarMetric(2, F(1), F(-2))
    with pytest.raises(DomainError):
        CollarMetric(3, F(1), F(-2), scale=F(-1))


def test_scale_folding_guard():
    s = Polynomial({(0, 1): F(1)})
    with pytest.raises(ArithmeticError):
        fold_scale(s, F(2))
    with pytest.raises(ArithmeticError):
        AnomalyClass(3, s).value(30)


def test_anomaly_integral_type():
    cls = b_class(CollarMetric(3, F(1), F(-2)))
    assert isinstance(cls, AnomalyClass)
    ctx = context(40)
    # times the volume 2 pi^2 of the unit 3-sphere
    assert abs(cls.value(40) * 2 * ctx.pi ** 2 + ctx.mpf(1) / 3) < ctx.mpf("1e-44")
