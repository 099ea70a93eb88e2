"""Model operators: boundary conditions, determinant ratios, oracles."""

import functools
import math
from collections import Counter
from fractions import Fraction
from pathlib import Path

import mpmath as mp
import numpy as np
import pytest

from conetorsion import operators, verify
from conetorsion.operators import (
    ModelOperator,
    RootIsolationError,
    det_ratio_oracle,
    det_ratio_truncated,
    eigenvalues_oracle,
    end_conditions,
    h_det,
    harmonic_operator,
    large_argument_constant,
    t_function,
    zeta_det_oracle,
)
from conetorsion.precision import DomainError, context, to_complex, to_real
from oracles import det_ratio_full_cone, det_ratio_truncated_displayed, eigen_condition_jy

F = Fraction


def test_small_z_limit_matches_closed_form():
    # the Bessel determinant tends to the power-basis one over 2 nu
    P = 60
    ctx = context(P)
    for variant in operators.VARIANTS:
        small = det_ratio_truncated(ModelOperator(variant, F(3, 2), 1, F(1, 2)), ctx.mpf("1e-14"), P)
        assert abs(small - 1) < ctx.mpf("1e-25"), variant


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


@pytest.mark.parametrize("variant", operators.VARIANTS)
def test_truncated_ratio_matches_displayed_form(variant):
    P = 50
    ctx = context(P)
    for nu, A, eps, z in ((F(3, 2), F(1, 2), F(1, 3), 1),
                          (F(5, 2), F(1), F(1, 2), F(1, 2)),
                          (2, 0, F(1, 4), 2),
                          (20, F(1), F(1, 2), 1)):     # integer order, K pair from CF2
        quotient = det_ratio_truncated(ModelOperator(variant, nu, A, eps), z, P)
        displayed = det_ratio_truncated_displayed(variant, nu, A, z, eps, P)
        assert abs(quotient - displayed) < ctx.mpf(10) ** -40 * abs(displayed)


# the full-cone closed forms read mpmath's besseli alone, not the Bessel pack; the gap falls
# like eps^2: 4.7e-19 at eps = 1e-10, 1.4e-58 at 1e-30 and 5.6e-61 at 1e-40
FULL_CONE_POINTS = [(F(3, 2), F(1), F(1, 2)), (F(3, 2), F(1), 2), (1, 0, 2), (F(5, 2), F(1, 2), 1),
                    (20, F(1), 1)]


def test_truncated_ratio_tends_to_the_full_cone_closed_form():
    P = 50
    ctx = context(P)
    for variant in operators.VARIANTS:
        for nu, A, z in FULL_CONE_POINTS:
            truncated = det_ratio_truncated(ModelOperator(variant, nu, A, F(1, 10 ** 40)), z, P)
            full = det_ratio_full_cone(variant, nu, A, z, P)
            assert abs(truncated - full) <= ctx.mpf(10) ** -58 * abs(full), (variant, nu, A, z)


def test_truncated_ratio_guards():
    assert det_ratio_truncated(ModelOperator("psi2", F(3, 2), F(1), F(1, 3)), 0, 30) == 1
    # the harmonic middle degree has order 0, where the power basis x^(+-nu) degenerates
    with pytest.raises(DomainError):
        det_ratio_truncated(harmonic_operator(1, 3, F(1, 2)), 1, 30)


def _t_from_determinant_ratios(k, n, nu, eps, lam, P):
    """t(lam) assembled from the eight determinant ratios at z = sqrt(-lam)."""
    ctx = context(P)
    A = F(n - 1, 2) - k
    z = ctx.sqrt(-to_complex(lam, ctx))
    t = -ctx.log(det_ratio_truncated(ModelOperator("psi2", nu, A, eps), z, P))
    t -= ctx.log(det_ratio_truncated(ModelOperator("phi2", nu, A, eps), z, P))
    t += ctx.log(det_ratio_truncated(ModelOperator("psi0", nu, A, eps), z, P))
    t += ctx.log(det_ratio_truncated(ModelOperator("phi0", nu, A, eps), z, P))
    t += ctx.log(det_ratio_full_cone("psi2", nu, A, z, P))
    t += ctx.log(det_ratio_full_cone("phi2", nu, A, z, P))
    t -= ctx.log(det_ratio_full_cone("psi0", nu, A, z, P))
    t -= ctx.log(det_ratio_full_cone("phi0", nu, A, z, P))
    return t


def test_t_function_forms_agree():
    P = 40
    ctx = context(P)
    # nu = 5/2 takes CF2, which ends at once at half-integer order; nu = 20 at lam = -1
    # (w = 20 and 20/3), nu = 4 and nu = 2 take the series.  t is a sum of logs of boundary
    # determinants, so like them it does not see K -> K + alpha I (a wrong Gamma term at
    # integer order): the K-pair tests below do
    for nu, lam in ((F(5, 2), -1), (F(5, 2), (-2, 1)), (F(5, 2), F(-1, 100)), (20, -1),
                    (4, -1), (2, (-2, 1))):
        lam_v = ctx.mpc(*lam) if isinstance(lam, tuple) else lam
        a = t_function(0, 3, nu, F(1, 3), lam_v, P)
        b = _t_from_determinant_ratios(0, 3, nu, F(1, 3), lam_v, P)
        assert abs(a - b) < ctx.mpf(10) ** -20


def test_t_function_zero_argument():
    """t(lam) -> 0 linearly as lam -> 0-, through the general formula; lam = 0 raises."""
    P = 50
    ctx = context(P)
    with pytest.raises(DomainError):
        t_function(0, 3, F(5, 2), F(1, 3), 0, P)
    # continuity toward the limit
    assert abs(t_function(0, 3, F(5, 2), F(1, 3), ctx.mpf("-1e-20"), P)) < ctx.mpf("1e-19")
    # t(lam) / lam is the same at lam = -1e-30 and -1e-40
    slopes = [t_function(0, 3, F(5, 2), F(1, 3), F(-1, 10 ** e), P) * 10 ** e for e in (30, 40)]
    assert abs(slopes[0] - slopes[1]) < ctx.mpf(10) ** -12


def test_t_function_branch_guard():
    with pytest.raises(DomainError):
        t_function(0, 3, F(5, 2), F(1, 3), 4, 30)


def test_ab_large_argument_constant():
    P = 40
    ctx = context(P)
    k, n, nu, eps = 0, 3, F(5, 2), F(1, 3)
    b = large_argument_constant(k, n, nu, eps, P)
    resid = [abs(t_function(k, n, nu, eps, -(10 ** e), P) - ctx.log(10 ** e) - b)
             for e in (3, 5)]
    # O((-lam)^(-1/2)) decay of the residual
    assert resid[1] < resid[0] / 5


def test_eigenvalues_oracle_harmonic_dirichlet():
    # Dirichlet at eps and the Robin condition N(3/2) at 1 (psi2 with A = 2)
    op = ModelOperator("psi2", 1, F(2), F(1, 3))
    lam = eigenvalues_oracle(op, 120)
    assert all(l2 > l1 for l1, l2 in zip(lam, lam[1:]))
    # Weyl law within 5 percent by i = 100
    i = 100
    want = (math.pi * i / (1 - 1 / 3)) ** 2
    assert abs(lam[i - 1] / want - 1) < 0.05


def test_det_ratio_oracle_truncated_example():
    op = ModelOperator("psi2", F(3, 2), F(1, 2), F(1, 3))
    closed = det_ratio_truncated(op, 1, 40)
    oracle = det_ratio_oracle(op, 1.0, eigenvalues_oracle(op, 240))
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
    op = ModelOperator("psi2", F(1, 2), F(0), F(1, 3))
    L = 2.0 / 3.0
    eigs = [(math.pi * i / L) ** 2 for i in range(1, 301)]
    det = zeta_det_oracle(op, eigs)
    assert abs(det - 2 * L) < 1e-10


def test_zeta_det_oracle_matches_harmonic_closed_form():
    op = harmonic_operator(0, 3, F(1, 2))
    oracle = zeta_det_oracle(op, eigenvalues_oracle(op, 320))
    closed = float(h_det(0, 3, F(1, 2), 30))
    assert abs(oracle - closed) / closed < 1e-8


def test_zeta_det_oracle_ignores_the_global_mpmath_precision(monkeypatch):
    # its continuation runs at 53 bits in a context of its own; at the global
    # mp.dps = 4 it would give 2.8936 here, against 2 sqrt 2 = 2.8284
    op = harmonic_operator(1, 3, F(1, 2))
    lam = eigenvalues_oracle(op, 320)
    det = zeta_det_oracle(op, lam)
    monkeypatch.setattr(mp.mp, "dps", 4)
    assert zeta_det_oracle(op, lam) == det
    assert abs(det - 2 * math.sqrt(2)) < 1e-8


def test_largenu_orders_ignore_the_global_mpmath_precision(monkeypatch):
    # at the global mp.dps = 3, the R = 3 order would read 4.013 instead of 4.012
    expected = verify.check_large_order_decay()
    monkeypatch.setattr(mp.mp, "dps", 3)
    assert verify.check_large_order_decay() == expected


def test_oracle_count_guard():
    for count in (10000, 0, -1):
        with pytest.raises(ValueError, match="1 <= count <= 500"):
            eigenvalues_oracle(ModelOperator("psi0", 1, F(1), F(1, 2)), count)


def test_boundary_condition_table():
    (left, right) = end_conditions("psi2", F(1))
    assert left == ("eps", "D", None)
    assert right == ("1", "N", F(1, 2))  # beta = A - 1/2
    assert end_conditions("psi0", F(1))[0] == ("eps", "N", F(-3, 2))  # beta = -A - 1/2
    # the harmonic sector is psi0 at order |A|
    assert harmonic_operator(0, 3, F(1, 2)) == ModelOperator("psi0", 1, F(1), F(1, 2))


def _two_sided_condition(op, mu):
    """The eigencondition at one mu with derivatives from scipy's jvp/yvp."""
    import scipy.special as sp
    values = []
    nu = float(op.nu)
    for side, kind, beta in end_conditions(op.variant, op.A):
        x0 = float(op.eps) if side == "eps" else 1.0
        for C, Cp in ((sp.jv, sp.jvp), (sp.yv, sp.yvp)):
            c = C(nu, mu * x0)
            if kind == "D":
                values.append(math.sqrt(x0) * c)
            else:
                shift = float(beta + F(1, 2))
                values.append((mu * x0 * Cp(nu, mu * x0) + shift * c) / math.sqrt(x0))
    ULJ, ULY, URJ, URY = values
    return ULJ * URY - ULY * URJ


def _label(op):
    """The variant, or h0 for the harmonic sector: psi0 at order |A|."""
    return "h0" if op.variant == "psi0" and op.nu == abs(op.A) else op.variant


WINDING_OPERATORS = [ModelOperator(v, F(3, 2), F(1, 2), F(1, 3)) for v in operators.VARIANTS]
WINDING_OPERATORS.append(harmonic_operator(0, 3, F(1, 2)))


@pytest.mark.parametrize("op", WINDING_OPERATORS, ids=_label)
def test_winding_count_certifies_bracketed_roots(op):
    count = 220
    roots = np.sqrt(eigenvalues_oracle(op, count + 5))
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


HTRUNC_OPERATORS = sorted({harmonic_operator(k, n, eps) for n in (1, 3) for k in range(n + 1)
                           for eps in (F(1, 2), F(1, 4))}, key=repr)
BRENT_OPERATORS = WINDING_OPERATORS + [op for op in HTRUNC_OPERATORS
                                       if op not in WINDING_OPERATORS]


DETRATIO_TINY_OPERATORS = WINDING_OPERATORS[:4]


@pytest.mark.parametrize("op", HTRUNC_OPERATORS + DETRATIO_TINY_OPERATORS,
                         ids=lambda op: f"{_label(op)}-{op.A}-{op.eps}")
def test_winding_count_in_the_hankel_basis_is_the_jy_count(monkeypatch, op):
    # the contour of eigenvalues_oracle, in the J, H2 basis, at the htrunc and detratio counts
    count = 320 if op in HTRUNC_OPERATORS else 220
    lam = eigenvalues_oracle(op, count)
    roots = np.sqrt(lam)
    lo, hi = roots[0] * 0.5, roots[-1] + 0.45 * math.pi / op.length
    samples = max(400, count * 24)
    j_h2 = operators._winding_count(op, lo, hi, samples)
    monkeypatch.setattr(operators, "_eigen_condition", eigen_condition_jy)
    assert j_h2 == operators._winding_count(op, lo, hi, samples) == count
    # scipy's jv and yv, which share no code with the oracle's kernel, give the same eigenvalues
    np.testing.assert_allclose(eigenvalues_oracle(op, count), lam, rtol=1e-13, atol=0)


# the kernel's switches: J's power series below 4 (nu + 1 = 9/2 at nu = 7/2), the K
# pair's Temme series below 6 and CF2 from there, Hankel's expansion from 25
KERNEL_NUS = [F(0), F(1, 3), F(1, 2), F(1), F(3, 2), F(2), F(7, 2)]
KERNEL_SWITCHES = [4.0, 4.5, 6.0, 25.0]


def _kernel_points(im):
    """Arguments of the kernel test on the line Im w = im: |w| from 1e-3 (real) or
    Re w from 0.3 (complex) to 2100, and |w| on both sides of every switch."""
    if im == 0:
        spread = np.geomspace(1e-3, 2100, 25)
        radii = [r * f for r in KERNEL_SWITCHES for f in (1 - 1e-9, 1, 1 + 1e-9)]
        return np.concatenate([spread, radii])
    re = np.geomspace(0.3, 2100, 15).tolist()
    re += [math.sqrt(r * r - im * im) * f for r in KERNEL_SWITCHES for f in (1 - 1e-9, 1 + 1e-9)]
    return np.array(re) + 1j * im


@pytest.mark.parametrize("nu", KERNEL_NUS, ids=str)
def test_cylinder_pairs_match_mpmath(nu):
    # (J, Y) on the real axis and (J, H2) below it, to Im w = -1.6, about the lowest the
    # winding contour reaches, against mpmath at 30 digits, both orders of each pair.
    # The bound is 5e-14 of |J| + |C|, and for J of |J| + I_a(|w|) where that is smaller:
    # at small w, where |J| << |C|, J keeps its own digits, or the winding count can fail
    for im in (0, -1.6, -0.3, -1e-3):
        w = _kernel_points(im)
        (j_prev, j), (c_prev, c) = got = operators._cylinder_pairs(float(nu), w)
        # each point's value depends on that point alone
        for i, v in enumerate(w):
            assert (operators._cylinder_pairs(float(nu), v) == got[..., i]).all()
        with mp.workdps(30):
            for i, v in enumerate(w):
                arg = mp.mpf(v) if im == 0 else mp.mpc(v)
                for order, jv, cv in ((nu - 1, j_prev[i], c_prev[i]), (nu, j[i], c[i])):
                    a = mp.mpf(order.numerator) / order.denominator
                    j_ref = mp.besselj(a, arg)
                    c_ref = mp.bessely(a, arg) if im == 0 else mp.hankel2(a, arg)
                    tol = 5e-14 * (abs(j_ref) + abs(c_ref))
                    tol_j = min(tol, 5e-14 * (abs(j_ref) + mp.besseli(a, abs(arg))))
                    assert abs(complex(jv) - j_ref) <= tol_j, (str(order), v)
                    assert abs(complex(cv) - c_ref) <= tol, (str(order), v)


def _scan_brackets(op, count):
    """The sign-change brackets of the oracle's scan and F at their ends."""
    F_op = operators._eigen_condition(op)
    spacing = math.pi / op.length
    grid = np.linspace(spacing * 1e-3, spacing * (count + 3) + 2.0 * float(op.nu) + 10.0,
                       (count + 5) * 16 + 200)
    vals = F_op(grid)
    idx = np.nonzero(np.sign(vals[:-1]) * np.sign(vals[1:]) < 0)[0][:count + 2]
    return F_op, grid[idx], grid[idx + 1], vals[idx], vals[idx + 1]


def _brentq(F_op, xa, xb):
    """scipy's scalar brentq, bracket by bracket, at the oracle's tolerances."""
    from scipy.optimize import brentq
    return [brentq(F_op, a, b, xtol=1e-13, rtol=8.9e-16, maxiter=200) for a, b in zip(xa, xb)]


@pytest.mark.parametrize("op", BRENT_OPERATORS, ids=lambda op: f"{_label(op)}-{op.A}-{op.eps}")
def test_brent_pass_matches_scipy_brentq(op):
    count = 320
    F_op, xa, xb, fa, fb = _scan_brackets(op, count)
    assert len(xa) == count + 2
    want = _brentq(F_op, xa, xb)
    assert operators._brent_roots(F_op, xa, xb, fa, fb).tolist() == want
    assert eigenvalues_oracle(op, count) == [r * r for r in sorted(want)[:count]]


# a triple root, an infinite slope, a steep and a wiggly one: each takes every branch
HARD_FUNCTIONS = [lambda x: np.sin(x) ** 3, lambda x: np.cbrt(np.sin(x)),
                  lambda x: np.sin(x) * np.exp(3 * np.cos(x)),
                  lambda x: np.sin(x) + 0.9 * np.sin(3 * x) ** 5]


@pytest.mark.parametrize("f", HARD_FUNCTIONS)
def test_brent_pass_matches_scipy_brentq_on_hard_brackets(f):
    rng = np.random.default_rng(1)
    k = np.arange(1, 41)
    xa = k * np.pi - rng.uniform(0.01, 1.5, k.size)
    xb = k * np.pi + rng.uniform(0.01, 1.5, k.size)
    assert operators._brent_roots(f, xa, xb, f(xa), f(xb)).tolist() == _brentq(f, xa, xb)


def test_brent_pass_raises_when_a_bracket_does_not_converge(monkeypatch):
    F_op, xa, xb, fa, fb = _scan_brackets(WINDING_OPERATORS[0], 10)
    monkeypatch.setattr(operators, "_BRENT_MAXITER", 2)
    with pytest.raises(RootIsolationError, match="not refined in 2 iterations"):
        operators._brent_roots(F_op, xa, xb, fa, fb)


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
        assert I == ctx.besseli(nu_m, w)
        K_mp = ctx.besselk(nu_m, w)
        assert abs(K - K_mp) <= ctx.mpf(10) ** -P * abs(K_mp)


@pytest.fixture
def pack_counts(monkeypatch):
    """An empty pack memo, and counts of pack lookups, K pairs, besseli and besselk calls."""
    counts = Counter(besselk=0)

    def counted(name, f):
        def call(*args):
            counts[name] += 1
            return f(*args)
        return call

    def counting_context(P):
        ctx = context(P)
        ctx.besseli = counted("besseli", ctx.besseli)
        ctx.besselk = counted("besselk", ctx.besselk)
        return ctx

    monkeypatch.setattr(operators, "_PACKS", {})
    monkeypatch.setattr(operators, "_bessel_pack", counted("lookups", operators._bessel_pack))
    monkeypatch.setattr(operators, "_besselk_pair", counted("kpairs", operators._besselk_pair))
    monkeypatch.setattr(operators, "context", counting_context)
    monkeypatch.setattr(verify, "context", counting_context)
    return counts


def test_detratio_tiny_computes_each_pack_once(pack_counts):
    assert verify.check_det_ratios("tiny")["passed"]
    # four variants, one z, two ends: w = 3/2 at 1 and 1/2 at eps = 1/3
    assert pack_counts == {"lookups": 8, "kpairs": 2, "besseli": 4, "besselk": 0}
    assert len(operators._PACKS) == 2


def test_detratio_small_closed_forms_compute_each_pack_once(pack_counts):
    g = verify.DETRATIO_GRID["small"]
    for variant in operators.VARIANTS:
        for nu in g["nu"]:
            for A in g["A"]:
                for eps in g["eps"]:
                    for z in g["z"]:
                        det_ratio_truncated(ModelOperator(variant, nu, A, eps), z, 40)
    # a pack depends on (nu, w = nu z x0) alone: 3 nu, and z x0 for z = 1/2, 1 and
    # x0 = 1, 1/2, 1/3, 1/4 takes 6 values, since 1/2 and 1/4 occur twice
    assert pack_counts == {"lookups": 432, "kpairs": 18, "besseli": 36, "besselk": 0}


def test_largenu_computes_each_pack_once(pack_counts):
    assert verify.check_large_order_decay()["passed"]
    # t at lam = -1 for R = 1..4 and nu = 20, 40, 80: packs at w = nu and nu / 2
    assert pack_counts == {"lookups": 24, "kpairs": 6, "besseli": 12, "besselk": 0}


def test_wronskian_checks_the_pack_the_ratios_read(pack_counts):
    assert verify.check_wronskian()["passed"]
    # one pack per grid point, through the K-pair kernel that det_ratio_truncated reaches
    assert pack_counts["lookups"] == 12 and pack_counts["kpairs"] == 12
    assert pack_counts["besselk"] == 0
    assert len(operators._PACKS) == 12


def test_wronskian_fails_on_a_wrong_k_pair(monkeypatch):
    kernel = operators._besselk_pair

    def flipped(ctx, nu, w):
        K_prev, K = kernel(ctx, nu, w)
        return -K_prev, K

    monkeypatch.setattr(operators, "_PACKS", {})
    monkeypatch.setattr(operators, "_besselk_pair", flipped)
    assert verify.check_wronskian()["passed"] is False


def test_a_pack_is_memoised_per_precision_not_per_context(pack_counts):
    for P in (40, 40, 50, 50):
        ctx = context(P)
        operators._bessel_pack(ctx, ctx.mpf(20), ctx.mpf(10))
    assert pack_counts["kpairs"] == 2


def test_the_pack_memo_drops_its_oldest_entry_when_full(pack_counts, monkeypatch):
    monkeypatch.setattr(operators, "_PACKS_HELD", 2)
    ctx = context(40)
    for x in (3, 4, 5, 4, 3):
        operators._bessel_pack(ctx, ctx.mpf(2), ctx.mpf(x))
    # 3, 4, 5 fill the memo past its size and push 3 out; 4 is a hit, 3 is computed again
    assert pack_counts["kpairs"] == 4
    assert len(operators._PACKS) == 2


PACK_ARGUMENTS = [(F(3, 2), F(1, 3)), (F(3, 2), 7), (20, 10), (20, (2, 3)), (80, (40, -25))]


def test_a_memoised_pack_equals_a_fresh_one(pack_counts, monkeypatch):
    P = 50
    for nu, w in PACK_ARGUMENTS:
        ctx = context(P)
        operators._bessel_pack(ctx, to_real(nu, ctx), to_complex(w, ctx))
    ctx = context(P)
    memoised = [operators._bessel_pack(ctx, to_real(nu, ctx), to_complex(w, ctx))
                for nu, w in PACK_ARGUMENTS]
    assert pack_counts["kpairs"] == len(PACK_ARGUMENTS)
    monkeypatch.setattr(operators, "_PACKS", {})
    fresh = [operators._bessel_pack(ctx, to_real(nu, ctx), to_complex(w, ctx))
             for nu, w in PACK_ARGUMENTS]
    assert memoised == fresh
    # a memoised pack comes back as values of the caller's context
    assert all(type(v) in ctx.types for pack in memoised for v in pack)


SWITCH = F(operators._CF2_SWITCH)


@pytest.mark.parametrize("nu", [F(1, 2), F(3, 2), F(1), F(20)], ids=str)
def test_a_real_argument_gives_a_real_pack(monkeypatch, nu):
    P = 50
    ctx = context(P)
    nu_m = to_real(nu, ctx)
    for x in (SWITCH / 2, SWITCH, 3 * SWITCH):     # the series, then CF2
        monkeypatch.setattr(operators, "_PACKS", {})
        as_complex = operators._bessel_pack(ctx, nu_m, ctx.mpc(to_real(x, ctx), 0))
        monkeypatch.setattr(operators, "_PACKS", {})
        as_real = operators._bessel_pack(ctx, nu_m, to_real(x, ctx))
        assert all(type(v) is ctx.mpf for v in as_complex)
        assert as_complex == as_real


# the series is least accurate just below the switch, on the real and the imaginary
# axis and at arg pi/4 (|w| = 0.99999 SWITCH), and at |w| = 1e-30
KPAIR_ARGUMENTS = [(F(1, 3), 0), (SWITCH - F(1, 1000), 0), (SWITCH, 0), (7, 0), (80, 0),
                   (2500, 0), (0, 5), (0, 40), (F(1, 100), 30), (40, -25), (3, -300),
                   (0, SWITCH - F(1, 1000)), (SWITCH * F(7071, 10000), SWITCH * F(7071, 10000)),
                   (F(1, 10 ** 30), 0)]


# nu = 1e-20: the series' Gamma difference cancels 20 digits
KPAIR_NUS = [F(1, 10 ** 20), F(1, 10), F(1, 2), F(1), F(3, 2), F(7, 3), F(20), F(79), F(80)]
KPAIR_ORDERS = sorted({order for nu in KPAIR_NUS for order in (nu - 1, nu)})
# written by make_kpair_references.py: mpmath's besselk at the integer orders costs 46 s
K_REFERENCES = Path(__file__).with_name("kpair_references.txt")


def reference_k(order, arg):
    """mpmath's K_order(arg) at 120 digits: 2P at P = 50 and P + 20 at P = 100."""
    ref = context(110)
    return ref.besselk(to_complex(order, ref).real, to_complex(arg, ref))


def reference_key(order, arg):
    """(order, Re arg, Im arg) as the reference file writes them."""
    return tuple(str(F(x)) for x in (order, *arg))


@functools.lru_cache(maxsize=None)
def _k_references():
    """The reference file's K_order(arg) by reference_key, as 120-digit values."""
    ref = context(110)
    table = {}
    for line in K_REFERENCES.read_text().splitlines():
        if not line.startswith("#"):
            *key, re, im = line.split()
            table[tuple(key)] = ref.mpc(re, im)
    return table


@pytest.mark.parametrize("nu", KPAIR_NUS, ids=str)
def test_besselk_pair_matches_mpmath(nu):
    references = _k_references()
    for P in (50, 100):
        ctx = context(P)
        nu_m = to_complex(nu, ctx).real
        for arg in KPAIR_ARGUMENTS:
            got = operators._besselk_pair(ctx, nu_m, to_complex(arg, ctx))
            for value, order in zip(got, (nu - 1, nu)):
                want = references[reference_key(order, arg)]
                assert abs(value - want) <= ctx.mpf(10) ** -P * abs(want), (P, str(nu), arg)


def test_the_k_references_are_mpmath_besselk():
    # every order and argument of the K-pair test has its line; the non-integer orders,
    # 2 s of mpmath's besselk, are computed again here
    references = _k_references()
    assert sorted(references) == sorted(reference_key(order, arg) for order in KPAIR_ORDERS
                                        for arg in KPAIR_ARGUMENTS)
    ref = context(110)
    for order in KPAIR_ORDERS:
        if order.denominator > 1:
            for arg in KPAIR_ARGUMENTS:
                want = references[reference_key(order, arg)]
                assert abs(reference_k(order, arg) - want) <= ref.mpf(10) ** -118 * abs(want)


def test_the_two_k_pair_sources_agree_where_both_converge():
    # K -> K + alpha I, the error a wrong Gamma term makes at integer order, passes the
    # Wronskian suite and every determinant, and t(lam) with them; CF2, which shares no
    # code with the series, does not have it
    for P in (50, 100):
        ctx = context(P)
        for mu in (F(0), F(1, 3), F(-1, 10), F(1, 10 ** 20)):
            mu_m = to_real(mu, ctx)
            for w in ((8, 0), (0, 20), (SWITCH - 1, 0), (14, 14), (20, -8)):
                w_m = to_complex(w, ctx)
                series = operators._temme_series(ctx, mu_m, mu_m, w_m)
                cf2 = operators._temme_cf2(ctx, mu_m, mu_m, w_m)
                for a, b in zip(series, cf2):
                    assert abs(a - b) <= ctx.mpf(10) ** -P * abs(b), (P, str(mu), w)


def test_besselk_pair_guards(monkeypatch):
    ctx = context(50)
    with pytest.raises(DomainError):
        operators._besselk_pair(ctx, ctx.mpf(20), ctx.mpc(-1, 40))
    with pytest.raises(DomainError):
        operators._besselk_pair(ctx, -ctx.mpf(20), ctx.mpf(10))
    # on the imaginary axis above the switch CF2 converges: K_nu(conj w) = conj K_nu(w)
    up = operators._besselk_pair(ctx, ctx.mpf(20), ctx.mpc(0, 40))
    down = operators._besselk_pair(ctx, ctx.mpf(20), ctx.mpc(0, -40))
    assert all(abs(u - d.conjugate()) <= ctx.mpf(10) ** -50 * abs(u) for u, d in zip(up, down))
    # |w| = 1/100 needs about 2.3e5 CF2 terms, far past the cap of dps^2 = 3600
    monkeypatch.setattr(operators, "_CF2_SWITCH", 0)
    with pytest.raises(ArithmeticError, match=r"nu = 20.*w = .*3600 iterations"):
        operators._besselk_pair(ctx, ctx.mpf(20), ctx.mpf(1) / 100)
    # |w| = 1000 needs about 1400 series terms, past the cap of dps^2 = 900 at P = 20
    monkeypatch.setattr(operators, "_CF2_SWITCH", 10 ** 6)
    ctx = context(20)
    with pytest.raises(ArithmeticError, match=r"nu = 20.*w = .*900 terms"):
        operators._besselk_pair(ctx, ctx.mpf(20), ctx.mpf(1000))
