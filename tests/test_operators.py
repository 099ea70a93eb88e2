"""Model operators: normalized solutions, determinant ratios, oracles."""

import math
from fractions import Fraction

import mpmath as mp
import numpy as np
import pytest

from conetorsion import operators
from conetorsion.operators import (
    ModelOperator,
    RootIsolationError,
    ab_coefficients,
    det_ratio_oracle,
    det_ratio_truncated,
    eigenvalues_oracle,
    h_det,
    harmonic_operator,
    normalized_solution,
    t_function,
    zeta_det_oracle,
)
from conetorsion.precision import DomainError, context, to_complex
from oracles import det_ratio_full_cone, det_ratio_truncated_displayed

F = Fraction


def test_normalization_at_one():
    P = 40
    ctx = context(P)
    for family in ("psi", "phi"):
        for nu, A, z in ((F(3, 2), F(1), 1), (F(5, 2), F(1, 2), ctx.mpc(1, 1)), (2, 0, 3)):
            assert abs(normalized_solution(family, nu, A, 1, z, P) - 1) < ctx.mpf("1e-44")


def test_zero_frequency_closed_form():
    P = 40
    ctx = context(P)
    got = normalized_solution("psi", 1, 0, F(1, 4), 0, P)
    want = (ctx.mpf(1) / 4 ** ctx.mpf("1.5") + 4 ** ctx.mpf("0.5")) / 2
    assert abs(got - want) < ctx.mpf("1e-44")


def test_small_z_limit_matches_closed_form():
    P = 60
    ctx = context(P)
    closed = normalized_solution("psi", F(3, 2), 1, F(1, 2), 0, P)
    small = normalized_solution("psi", F(3, 2), 1, F(1, 2), ctx.mpf("1e-14"), P)
    assert abs(small - closed) < ctx.mpf("1e-25")


def test_full_cone_ratios_small_z_and_psi0_phi0_equal():
    P = 40
    ctx = context(P)
    assert det_ratio_full_cone("psi2", F(3, 2), F(1), 0, P) == 1
    for z in (F(1, 2), 2):
        a = det_ratio_full_cone("psi0", F(3, 2), F(1), z, P)
        b = det_ratio_full_cone("phi0", F(3, 2), F(1), z, P)
        assert a == b
    # small-argument limit approaches 1
    v = det_ratio_full_cone("phi2", F(3, 2), F(1), ctx.mpf("1e-8"), P)
    assert abs(v - 1) < ctx.mpf("1e-14")


@pytest.mark.parametrize("variant", ["psi2", "phi2", "psi0", "phi0"])
def test_truncated_ratio_matches_displayed_form(variant):
    P = 50
    ctx = context(P)
    for nu, A, eps, z in ((F(3, 2), F(1, 2), F(1, 3), 1),
                          (F(5, 2), F(1), F(1, 2), F(1, 2)),
                          (2, 0, F(1, 4), 2)):
        quotient = det_ratio_truncated(variant, nu, A, z, eps, P)
        displayed = det_ratio_truncated_displayed(variant, nu, A, z, eps, P)
        assert abs(quotient - displayed) < ctx.mpf(10) ** -40 * abs(displayed)


def test_truncated_ratio_guards():
    assert det_ratio_truncated("psi2", F(3, 2), F(1), 0, F(1, 3), 30) == 1
    with pytest.raises(DomainError):
        det_ratio_truncated("psi2", F(3, 2), F(1), 1, F(1), 30)  # empty interval
    with pytest.raises(DomainError):
        det_ratio_truncated("psi2", F(3, 2), F(1), 1, F(3, 2), 30)


def _t_from_determinant_ratios(k, n, nu, eps, lam, P):
    """t(lam) assembled from the eight determinant ratios at z = sqrt(-lam)."""
    ctx = context(P)
    A = F(n - 1, 2) - k
    z = ctx.sqrt(-to_complex(lam, P, ctx))
    t = -ctx.log(det_ratio_truncated("psi2", nu, A, z, eps, P))
    t -= ctx.log(det_ratio_truncated("phi2", nu, A, z, eps, P))
    t += ctx.log(det_ratio_truncated("psi0", nu, A, z, eps, P))
    t += ctx.log(det_ratio_truncated("phi0", nu, A, z, eps, P))
    t += ctx.log(det_ratio_full_cone("psi2", nu, A, z, P))
    t += ctx.log(det_ratio_full_cone("phi2", nu, A, z, P))
    t -= ctx.log(det_ratio_full_cone("psi0", nu, A, z, P))
    t -= ctx.log(det_ratio_full_cone("phi0", nu, A, z, P))
    return t


def test_t_function_forms_agree():
    P = 40
    ctx = context(P)
    for lam in (-1, (-2, 1), F(-1, 100)):
        lam_v = ctx.mpc(*lam) if isinstance(lam, tuple) else lam
        a = t_function(0, 3, F(5, 2), F(1, 3), lam_v, P)
        b = _t_from_determinant_ratios(0, 3, F(5, 2), F(1, 3), lam_v, P)
        assert abs(a - b) < ctx.mpf(10) ** -20


def test_t_function_zero_argument():
    P = 50
    ctx = context(P)
    assert abs(t_function(0, 3, F(5, 2), F(1, 3), 0, P)) < ctx.mpf(10) ** -40
    # continuity toward the limit
    assert abs(t_function(0, 3, F(5, 2), F(1, 3), ctx.mpf("-1e-20"), P)) < ctx.mpf("1e-19")


def test_t_function_branch_guard():
    with pytest.raises(DomainError):
        t_function(0, 3, F(5, 2), F(1, 3), 4, 30)


def test_ab_large_argument_constant():
    P = 40
    ctx = context(P)
    k, n, nu, eps = 0, 3, F(5, 2), F(1, 3)
    a, b = ab_coefficients(k, n, nu, eps, P)
    assert a == 1
    resid = [abs(t_function(k, n, nu, eps, -(10 ** e), P) - ctx.log(10 ** e) - b)
             for e in (3, 5)]
    # O((-lam)^(-1/2)) decay of the residual
    assert resid[1] < resid[0] / 5


def test_eigenvalues_oracle_harmonic_dirichlet():
    # Dirichlet at eps and the Robin condition N(3/2) at 1 (psi2 with A = 2)
    op = ModelOperator("psi2", 1.0, F(2), F(1, 3))
    lam = eigenvalues_oracle(op, 120)
    assert all(l2 > l1 for l1, l2 in zip(lam, lam[1:]))
    # Weyl law within 5 percent by i = 100
    i = 100
    want = (math.pi * i / (1 - 1 / 3)) ** 2
    assert abs(lam[i - 1] / want - 1) < 0.05


def test_eigenvalues_oracle_full_cone_bessel_zeros():
    import scipy.special as sp
    op = ModelOperator("psi0", 2.0, F(0), None)  # Dirichlet branch: zeros of J_2
    lam = eigenvalues_oracle(op, 10, verify_winding=False)
    zeros = sp.jn_zeros(2, 10)
    assert np.allclose(np.sqrt(lam), zeros, rtol=1e-10)


def test_det_ratio_oracle_full_cone_example():
    P = 40
    op = ModelOperator("psi2", 1.0, F(0), None)
    closed = det_ratio_full_cone("psi2", 1, 0, 2, P)
    oracle = det_ratio_oracle(op, 2.0, count=240)
    assert abs(float(closed) - oracle) / abs(float(closed)) < 1e-6


def test_det_ratio_oracle_truncated_example():
    op = ModelOperator("psi2", 1.5, F(1, 2), F(1, 3))
    closed = det_ratio_truncated("psi2", F(3, 2), F(1, 2), 1, F(1, 3), 40)
    oracle = det_ratio_oracle(op, 1.0, count=240)
    assert abs(float(closed) - oracle) / abs(float(closed)) < 1e-6


def test_h_det_values_and_guards():
    ctx = context(30)
    assert abs(h_det(0, 1, F(1, 4), 30) - 4) < ctx.mpf("1e-30")
    assert abs(h_det(2, 3, F(1, 2), 30) - 2 * ctx.mpf(2) ** -ctx.mpf("0.5")) < ctx.mpf("1e-30")
    with pytest.raises(DomainError):
        h_det(1, 2, F(1, 2), 30)
    with pytest.raises(DomainError):
        h_det(0, 3, F(3, 2), 30)
    with pytest.raises(ValueError):
        h_det(5, 3, F(1, 2), 30)


def test_h_det_log_derivative_in_eps():
    # d/d(eps) log h = (k - n/2)/eps, from the closed form
    P = 40
    ctx = context(P)
    k, n = 0, 3
    eps = ctx.mpf(1) / 3
    h = ctx.mpf("1e-12")
    lhs = (ctx.log(h_det(k, n, Fraction(1, 3) + Fraction(1, 10 ** 12), P))
           - ctx.log(h_det(k, n, Fraction(1, 3) - Fraction(1, 10 ** 12), P))) / (2 * h)
    assert abs(lhs - (k - ctx.mpf(n) / 2) / eps) < ctx.mpf("1e-8")


def test_zeta_det_oracle_free_dirichlet_normalization():
    # exact free eigenvalues mu_i = pi i / L: the determinant must be 2L
    op = ModelOperator("psi2", 0.5, F(0), F(1, 3))
    L = 2.0 / 3.0
    eigs = [(math.pi * i / L) ** 2 for i in range(1, 301)]
    det = zeta_det_oracle(op, eigenvalues=eigs)
    assert abs(det - 2 * L) < 1e-10


def test_zeta_det_oracle_matches_harmonic_closed_form():
    op = harmonic_operator(0, 3, F(1, 2))
    oracle = zeta_det_oracle(op, count=320)
    closed = float(h_det(0, 3, F(1, 2), 30))
    assert abs(oracle - closed) / closed < 1e-8


def test_oracle_count_guard():
    with pytest.raises(ValueError):
        eigenvalues_oracle(ModelOperator("h0", 1.0, F(1), F(1, 2)), 10000)


def test_boundary_condition_table():
    op = ModelOperator("psi2", 1.5, F(1), F(1, 2))
    (left, right) = op.boundary_conditions()
    assert left == ("eps", "D", None)
    assert right == ("1", "N", F(1, 2))  # beta = A - 1/2
    op0 = ModelOperator("psi0", 1.5, F(1), F(1, 2))
    assert op0.boundary_conditions()[0] == ("eps", "N", F(-3, 2))  # beta = -A - 1/2


def _two_sided_condition(op, mu):
    """The eigencondition at one mu with derivatives from scipy's jvp/yvp."""
    import scipy.special as sp
    values = []
    for side, kind, beta in op.boundary_conditions():
        x0 = float(op.eps) if side == "eps" else 1.0
        for C, Cp in ((sp.jv, sp.jvp), (sp.yv, sp.yvp)):
            c = C(op.nu, mu * x0)
            if kind == "D":
                values.append(math.sqrt(x0) * c)
            else:
                shift = float(beta + F(1, 2))
                values.append((mu * x0 * Cp(op.nu, mu * x0) + shift * c) / math.sqrt(x0))
    ULJ, ULY, URJ, URY = values
    return ULJ * URY - ULY * URJ


WINDING_OPERATORS = [ModelOperator(v, 1.5, F(1, 2), F(1, 3)) for v in ("psi2", "phi2", "psi0", "phi0")]
WINDING_OPERATORS.append(harmonic_operator(0, 3, F(1, 2)))


@pytest.mark.parametrize("op", WINDING_OPERATORS, ids=lambda op: op.variant)
def test_winding_count_certifies_bracketed_roots(op):
    count = 220
    roots = np.sqrt(eigenvalues_oracle(op, count + 5, verify_winding=False))
    spacing = math.pi / op.length
    lo = roots[0] * 0.5
    for hi in (roots[count - 1] + 0.45 * spacing, (roots[100] + roots[101]) / 2):
        bracketed = int(np.count_nonzero((roots > lo) & (roots < hi)))
        assert operators._winding_count(op, lo, hi, samples=max(400, count * 24)) == bracketed
    assert bracketed == 101
    # the array evaluation on complex mu is the scalar one, point by point
    F_op = operators._eigen_condition(op)
    path = np.linspace(lo, roots[-1], 257) + 1j * np.linspace(-0.3, 0.3, 257)
    at_once = F_op(path)
    one_by_one = np.array([F_op(complex(mu)) for mu in path])
    np.testing.assert_allclose(at_once, one_by_one, rtol=1e-12, atol=0)
    two_sided = np.array([_two_sided_condition(op, complex(mu)) for mu in path])
    np.testing.assert_allclose(at_once, two_sided, rtol=1e-10, atol=0)


@pytest.mark.parametrize("nu", [F(1, 2), F(3, 2), 20, 80])
def test_bessel_pack_recurrence_derivatives(nu):
    P = 50
    ctx = context(P)
    nu_m = ctx.mpf(nu.numerator) / nu.denominator if isinstance(nu, F) else ctx.mpf(nu)
    for w in (ctx.mpf(1) / 3, ctx.mpf(7), ctx.mpc(2, 3), ctx.mpc(40, -25)):
        I, Ip, K, Kp = operators._bessel_pack(ctx, nu_m, w)
        two_sided_I = (ctx.besseli(nu_m - 1, w) + ctx.besseli(nu_m + 1, w)) / 2
        two_sided_K = -(ctx.besselk(nu_m - 1, w) + ctx.besselk(nu_m + 1, w)) / 2
        assert abs(Ip - two_sided_I) <= ctx.mpf(10) ** (5 - P) * abs(two_sided_I)
        assert abs(Kp - two_sided_K) <= ctx.mpf(10) ** (5 - P) * abs(two_sided_K)
        assert I == ctx.besseli(nu_m, w) and K == ctx.besselk(nu_m, w)
