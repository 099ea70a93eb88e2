"""Zeta continuations: values, residues, base torsion, and the topological
identities that check the Hurwitz continuation without sharing its code."""

import math
from fractions import Fraction

import mpmath as mp
import pytest

from conetorsion.precision import context, to_real
from conetorsion.spectrum import (
    DegreeData, betti, sphere, torus, write_spectrum_file, read_spectrum_file)
from conetorsion.torsion import volume
from conetorsion.zeta import (
    ApproximateOnlyError,
    PoleError,
    base_torsion,
    direct_sum_with_tail,
    shifted_zeta_representation,
    zeta_ccl_at_zero,
    zeta_shifted_residue,
)
from oracles import zeta_shifted

F = Fraction
S1, S3, S5 = sphere(1), sphere(3), sphere(5)


def test_circle_values():
    ctx = context(40)
    assert abs(zeta_shifted(S1, 0, 2, 40) - 2 * ctx.pi ** 2 / 6) < ctx.mpf("1e-45")
    assert zeta_shifted(S1, 0, 0, 40) == -1
    with pytest.raises(PoleError) as exc:
        zeta_shifted(S1, 0, 1, 40)
    assert exc.value.residue == 2


def test_direct_sum_agreement():
    # continuation vs brute-force summation with its tail bound, Re(s) = n + 5
    for M in (S1, S3, S5):
        s = M.n + 5
        partial, tail = direct_sum_with_tail(M, 0, s, P=40, cutoff=200)
        cont = zeta_shifted(M, 0, s, 40)
        assert abs(cont - partial) <= tail


# residue_at(2r + 1) of zeta_{k,N} on the unit sphere S^n, r = 1..(n-1)/2, k = 0..n-1;
# the binomial re-expansion of zeta(s, ccl_k) around eta = w (w + 2A) gives the same
SPHERE_RESIDUES = {
    3: [(1,), (2,), (1,)],
    5: [(F(-1, 12), F(1, 12)), (F(-4, 3), F(1, 3)), (F(-5, 2), F(1, 2)),
        (F(-4, 3), F(1, 3)), (F(-1, 12), F(1, 12))],
    7: [(F(1, 90), F(-1, 72), F(1, 360)), (F(3, 20), F(-1, 6), F(1, 60)),
        (F(3, 2), F(-13, 24), F(1, 24)), (F(49, 18), F(-7, 9), F(1, 18)),
        (F(3, 2), F(-13, 24), F(1, 24)), (F(3, 20), F(-1, 6), F(1, 60)),
        (F(1, 90), F(-1, 72), F(1, 360))],
}


def test_sphere3_residues():
    """The S³ residues as points; then every residue on S³, S⁵ and S⁷, pinned,
    and the one at s = n against Weyl's law."""
    P = 40
    ctx = context(P)
    p0 = zeta_shifted_residue(S3, 0, 1, P)
    p1 = zeta_shifted_residue(S3, 1, 1, P)
    assert p0.residue == 1 and p1.residue == 2 and p0.exact and p1.exact
    assert p0.location == 3
    for n, rows in SPHERE_RESIDUES.items():
        assert len(rows) == n
        for k, row in enumerate(rows):
            assert len(row) == (n - 1) // 2
            rep = shifted_zeta_representation(sphere(n), k)
            assert tuple(rep.residue_at(2 * r + 1) for r in range(1, len(row) + 1)) == row, (n, k)
        # Weyl's law for the residue at s = n:
        #   n rank C(n-1, k) vol(S^n) / ((4 pi)^(n/2) Gamma(n/2 + 1))
        half = ctx.mpf(n) / 2
        for rank in (1, 2):
            M = sphere(n, rank)
            weyl = n * rank * volume(M, P) / ((4 * ctx.pi) ** half * ctx.gamma(half + 1))
            for k in range(n):
                got = to_real(shifted_zeta_representation(M, k).residue_at(n), P, ctx)
                assert abs(got - math.comb(n - 1, k) * weyl) < ctx.mpf(10) ** (5 - P), (n, rank, k)


def test_residue_numerical_limit_oracle():
    # (s - 3) zeta(s) along s = 3 + 10^-j must converge to the residue
    P = 50
    ctx = context(P)
    point = zeta_shifted_residue(S3, 0, 1, P)
    for j in (8, 12):
        s = 3 + ctx.mpf(10) ** -j
        val = zeta_shifted(S3, 0, s, P)
        assert abs((s - 3) * val - point.residue) < ctx.mpf(10) ** (-j + 1)


def test_out_of_range_residue():
    with pytest.raises(ValueError):
        zeta_shifted_residue(S3, 0, 2, 30)  # s = 5 > n = 3


def test_pole_parity():
    # regular at 0 and at even integers below n
    for M, k in ((S3, 0), (S5, 1)):
        for s in (0, 2):
            zeta_shifted(M, k, s, 30)
        rep = shifted_zeta_representation(M, k)
        # zeta_H(s - p, x0) has its pole at s = p + 1
        assert all((p + 1) % 2 == 1 for (p,) in rep.weights.coeffs)


def test_zeta_zero_betti():
    # no constant heat coefficient on a closed odd-dimensional manifold, so
    # zeta(0, Delta_k) = -b_k; the nonzero spectrum of Delta_k is ccl_k + ccl_{k-1}
    P = 40
    ctx = context(P)
    for n in (1, 3, 5, 7):
        for rank in (1, 2):
            M = sphere(n, rank)
            for k in range(n):
                expected = -sum((-1) ** (k - j) * betti(M, j) for j in range(k + 1))
                got = shifted_zeta_representation(M, k).value(0, P)
                assert abs(got - expected) < ctx.mpf(10) ** (5 - P), (n, rank, k)


def test_circle_ccl_at_zero():
    ctx = context(40)
    z0, z0p = zeta_ccl_at_zero(S1, 0, 40)
    assert z0 == -1
    assert abs(z0p + 2 * ctx.log(2 * ctx.pi)) < ctx.mpf("1e-45")


def _series_ccl_prime(M, k, P):
    """zeta'(0, ccl_k) = 2 zeta_N'(0) + sum_{i>=1} (A^(2i)/i) zeta_N(2i), summed term by term.

    The binomial series that the Hurwitz closed form replaced, kept as a
    reference: it reaches the same value through zeta_N at positive even
    integers instead of zeta_H' at the shifts 1 + k and n - k.
    """
    ctx = context(P)
    rep = shifted_zeta_representation(M, k)
    x0 = ctx.mpf(rep.shift.numerator) / rep.shift.denominator
    acc = ctx.mpf(0)
    for (p,), c in rep.weights.coeffs.items():
        acc += 2 * ctx.mpf(c.numerator) / c.denominator * ctx.zeta(-p, x0, 1)
    A = DegreeData(k, M.n).A
    if A == 0 or not rep.weights.coeffs:
        return acc
    A2 = ctx.mpf(A.numerator) ** 2 / A.denominator ** 2
    tol = ctx.mpf(10) ** (-(P + 5))
    for i in range(1, 2000):
        term = A2 ** i / i * rep.value(2 * i, P)
        acc += term
        if abs(term) < tol and i > 2:
            return acc
    pytest.fail(f"binomial series for {M.name}, k = {k} did not reach 1e-{P + 5}")


@pytest.mark.parametrize("n", [1, 3, 5, 7])
def test_ccl_closed_form_matches_series(n):
    M = sphere(n)
    P = 60
    for k in range(n + 1):
        _z0, z0p = zeta_ccl_at_zero(M, k, P)
        assert abs(z0p - _series_ccl_prime(M, k, P)) < mp.mpf(10) ** -55, (n, k)


def test_ccl_precision_doubling():
    for M, k in ((S3, 1), (S3, 0)):
        z0a, z0pa = zeta_ccl_at_zero(M, k, 40)
        z0b, z0pb = zeta_ccl_at_zero(M, k, 80)
        assert abs(mp.mpmathify(z0a) - mp.mpmathify(z0b)) < mp.mpf(10) ** -35
        assert abs(mp.mpmathify(z0pa) - mp.mpmathify(z0pb)) < mp.mpf(10) ** -35


def test_base_torsion_circle():
    ctx = context(40)
    assert abs(base_torsion(S1, 40) - ctx.log(2 * ctx.pi)) < ctx.mpf("1e-44")


def test_base_torsion_guards():
    with pytest.raises(ApproximateOnlyError):
        base_torsion(torus(3), 40)


def test_torus_residues_exact():
    ctx = context(40)
    T3 = torus(3)
    assert abs(zeta_shifted_residue(T3, 0, 1, 40).residue - 4 * ctx.pi) < ctx.mpf("1e-44")
    assert abs(zeta_shifted_residue(T3, 1, 1, 40).residue - 8 * ctx.pi) < ctx.mpf("1e-44")
    T5 = torus(5)
    assert abs(zeta_shifted_residue(T5, 0, 2, 40).residue
               - ctx.mpf(8) / 3 * ctx.pi ** 2) < ctx.mpf("1e-43")
    assert abs(zeta_shifted_residue(T5, 0, 1, 40).residue + 16 * ctx.pi ** 2) < ctx.mpf("1e-43")
    # middle degree has A = 0: no lower pole
    assert zeta_shifted_residue(T5, 2, 1, 40).residue == 0


def test_torus_values_need_large_re():
    T3 = torus(3)
    partial, tail = direct_sum_with_tail(T3, 0, 10, P=40, cutoff=60)
    assert partial > 0 and 0 < tail < partial
    with pytest.raises(ApproximateOnlyError):
        direct_sum_with_tail(T3, 0, 2, P=40, cutoff=60)
    # no exact continuation: zeta_shifted refuses the torus at any s
    for s in (10, 2):
        with pytest.raises(ApproximateOnlyError, match="direct_sum_with_tail"):
            zeta_shifted(T3, 0, s, 40)


def test_file_leading_residue_estimate(tmp_path):
    path = tmp_path / "s3.spec"
    write_spectrum_file(sphere(3), path, 80)
    M = read_spectrum_file(path)
    pt = zeta_shifted_residue(M, 0, 1, 30)
    assert not pt.exact
    assert abs(float(pt.residue) - 1.0) < 0.15


def test_file_subleading_residue_unavailable(tmp_path):
    path = tmp_path / "s5.spec"
    write_spectrum_file(sphere(5), path, 30)
    M = read_spectrum_file(path)
    with pytest.raises(ApproximateOnlyError):
        zeta_shifted_residue(M, 0, 1, 30)  # s = 3 < n = 5: only the leading pole is estimable
