"""Graded-algebra engine, anomaly class values, scaling and antisymmetry."""

from fractions import Fraction

import pytest

from conetorsion.berezin import (
    AnomalyClass,
    CollarMetric,
    GradedElement,
    anomaly_sides,
    b_class,
    berezin,
    berezin_constant,
    cone_collars,
    fold_scale,
    r_dot,
    s_dot,
    scaled,
)
from conetorsion.olver import Polynomial
from conetorsion.precision import DomainError, context

F = Fraction


def _gen(unhatted=(), hatted=()):
    return GradedElement({(tuple(unhatted), tuple(hatted)): Polynomial({(0, 0): 1})})


def test_generator_squares_vanish():
    e1 = _gen((1,))
    h1 = _gen((), (1,))
    assert (e1 * e1).is_zero()
    assert (h1 * h1).is_zero()


def test_graded_commutativity():
    # a ^ b = (-1)^{|a||b|} b ^ a on homogeneous elements
    a = _gen((1,), (2,))     # degree 2 (even)
    b = _gen((3,), ())       # degree 1 (odd)
    c = _gen((2,), ())
    assert a * b == b * a
    assert (b * c) + (c * b) == GradedElement.zero()


def test_mixed_factor_sign():
    # (1 (x) h) * (e (x) 1) = - e (x) h
    left = _gen((), (1,))
    right = _gen((2,), ())
    want = GradedElement({((2,), (1,)): Polynomial({(0, 0): -1})})
    assert left * right == want


def test_berezin_projects_top_hatted_degree():
    n = 3
    full = _gen((1, 2, 3), (1, 2, 3))
    partial = _gen((1, 2, 3), (1, 2))
    out = berezin(full, n)
    assert berezin(partial, n).is_zero()
    coeff = out.coefficient((1, 2, 3), ())
    # normalization (-1)^(n(n+1)/2) pi^(-n/2), scale power -n/2
    assert coeff == Polynomial({(-n, -n): berezin_constant(n)})
    assert berezin_constant(3) == 1 and berezin_constant(5) == -1


def test_s_dot_shapes():
    assert s_dot(CollarMetric(3, F(1), F(0))).is_zero()
    one = s_dot(CollarMetric(1, F(0), F(-2)))
    assert one.coefficient((1,), (1,)) == Polynomial({(0, 1): F(-1, 2)})
    assert len(one.terms) == 1


def test_r_dot_shapes():
    assert r_dot(CollarMetric(3, F(0), F(-2))).is_zero()
    assert r_dot(CollarMetric(1, F(1), F(-2))).is_zero()
    r3 = r_dot(CollarMetric(3, F(1), F(-2)))
    assert len(r3.terms) == 3
    coeffs = set(tuple(sorted(c.coeffs.items())) for c in r3.terms.values())
    assert len(coeffs) == 1  # pairwise equal coefficients


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
    b1, be = anomaly_sides(3, 1, F(1, 2))
    assert b1.coefficient == be.coefficient.scale(-1)
    b1b, beb = anomaly_sides(3, 1, F(1, 4))
    assert be.coefficient == beb.coefficient
    # torus base: computed, and nonzero for n = 3
    t1, te = anomaly_sides(3, 0, F(1, 2))
    assert t1.coefficient.coeffs
    assert t1.coefficient == te.coefficient.scale(-1)


def test_cone_collars_data():
    outer, inner = cone_collars(3, 1, F(1, 4))
    assert outer.fprime0 == -2 and inner.fprime0 == 2
    assert inner.scale == F(1, 16)
    with pytest.raises(DomainError):
        cone_collars(3, 1, F(3, 2))


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


def test_sign_rules_randomized():
    """Graded-commutativity of random monomials, hypothesis-driven."""
    from hypothesis import given, settings, strategies as st

    idx = st.lists(st.integers(min_value=1, max_value=6), max_size=4, unique=True)

    @settings(max_examples=60, deadline=None)
    @given(idx, idx, idx, idx)
    def inner(u1, h1, u2, h2):
        a = _gen(tuple(sorted(u1)), tuple(sorted(h1)))
        b = _gen(tuple(sorted(u2)), tuple(sorted(h2)))
        da, db = len(u1) + len(h1), len(u2) + len(h2)
        lhs = a * b
        rhs = (b * a).scale(Fraction((-1) ** (da * db)))
        assert lhs == rhs

    inner()
