"""Zeta continuations: values, residues, base torsion, and the topological
identities that check the integer-shift continuation without sharing its code;
mpmath's Hurwitz zeta, zeta' and digamma (tests/oracles.py) are its numeric
reference."""

import math
from fractions import Fraction

import mpmath as mp
import pytest

from conetorsion.precision import context, to_real
from conetorsion.spectrum import (
    DegreeData, UnsupportedManifoldError, betti, sphere, sphere_multiplicity_polynomial, torus,
    spectrum_text, read_spectrum_file)
from conetorsion.torsion import residual_inner_sum, torsion_breakdown, volume
from conetorsion.zeta import (
    ApproximateOnlyError,
    base_torsion,
    direct_sum_with_tail,
    _estimated_leading_residue,
    log_form_value,
    zeta_shifted_residue,
)
from oracles import (
    PoleError,
    ccl,
    hurwitz_value,
    residual_inner_sum_digamma,
    residues,
    weyl_fit_per_copy,
    zeta_ccl_at_zero_hurwitz,
    zeta_primes,
    zeta_shifted,
)

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


# the residue at 2r + 1 of zeta_{k,N} on the unit sphere S^n, r = 1..(n-1)/2, k = 0..n-1;
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
    """The S³ residues at s = 3; then every residue on S³, S⁵ and S⁷, pinned,
    and the one at s = n against Weyl's law."""
    P = 40
    ctx = context(P)
    p0 = zeta_shifted_residue(S3, 0, 1, P)
    p1 = zeta_shifted_residue(S3, 1, 1, P)
    assert p0 == 1 and p1 == 2
    for n, rows in SPHERE_RESIDUES.items():
        assert len(rows) == n
        for k, row in enumerate(rows):
            assert len(row) == (n - 1) // 2
            assert tuple(residues(sphere(n), k)) == row, (n, k)
        # Weyl's law for the residue at s = n:
        #   n rank C(n-1, k) vol(S^n) / ((4 pi)^(n/2) Gamma(n/2 + 1))
        half = ctx.mpf(n) / 2
        for rank in (1, 2):
            M = sphere(n, rank)
            weyl = n * rank * volume(M, P) / ((4 * ctx.pi) ** half * ctx.gamma(half + 1))
            for k in range(n):
                got = to_real(zeta_shifted_residue(M, k, (n - 1) // 2), ctx)
                assert abs(got - math.comb(n - 1, k) * weyl) < ctx.mpf(10) ** (5 - P), (n, rank, k)


def test_residue_numerical_limit_oracle():
    # (s - 3) zeta(s) along s = 3 + 10^-j must converge to the residue
    P = 50
    ctx = context(P)
    residue = zeta_shifted_residue(S3, 0, 1, P)
    for j in (8, 12):
        s = 3 + ctx.mpf(10) ** -j
        val = zeta_shifted(S3, 0, s, P)
        assert abs((s - 3) * val - residue) < ctx.mpf(10) ** (-j + 1)


def test_out_of_range_residue():
    with pytest.raises(ValueError):
        zeta_shifted_residue(S3, 0, 2, 30)  # s = 5 > n = 3


def test_pole_parity():
    # regular at 0 and at even integers below n
    for M, k in ((S3, 0), (S5, 1)):
        for s in (0, 2):
            zeta_shifted(M, k, s, 30)
        # zeta_H(s - p, x0) has its pole at s = p + 1
        assert all((p + 1) % 2 == 1 for (p,) in sphere_multiplicity_polynomial(M, k).coeffs)


def test_zeta_zero_betti():
    # no constant heat coefficient on a closed odd-dimensional manifold, so
    # zeta(0, Delta_k) = -b_k; the nonzero spectrum of Delta_k is ccl_k + ccl_{k-1}
    for n in (1, 3, 5, 7):
        for rank in (1, 2):
            M = sphere(n, rank)
            for k in range(n):
                expected = -sum((-1) ** (k - j) * betti(M, j) for j in range(k + 1))
                assert ccl(M, k)[0] == expected, (n, rank, k)


def test_circle_ccl_at_zero():
    ctx = context(40)
    z0, z0p = ccl(S1, 0)
    assert z0 == -1
    assert z0p == {("zeta'", 0): 4}
    assert abs(log_form_value(z0p, 40) + 2 * ctx.log(2 * ctx.pi)) < ctx.mpf("1e-45")


def test_log_form_atoms():
    # zeta'(0) = -log(2 pi)/2, zeta'(-1) = 1/12 - log A (Glaisher), and zero terms are skipped
    P = 40
    ctx = context(P)
    assert abs(log_form_value({("zeta'", 0): 1}, P) + ctx.log(2 * ctx.pi) / 2) < ctx.mpf("1e-45")
    assert abs(log_form_value({("zeta'", 1): 1}, P) - (ctx.mpf(1) / 12 - ctx.log(ctx.glaisher))
               ) < ctx.mpf("1e-45")
    assert abs(log_form_value({("log", 4): 1, ("log", 2): -2, ("log", 3): 0}, P)) < ctx.mpf("1e-45")


def _series_ccl_prime(M, k, P):
    """zeta'(0, ccl_k) = 2 zeta_N'(0) + sum_{i>=1} (A^(2i)/i) zeta_N(2i), summed term by term.

    The binomial series that the Hurwitz closed form replaced, kept as a
    reference: it reaches the same value through zeta_N at positive even
    integers instead of zeta_H' at the shifts 1 + k and n - k.
    """
    ctx = context(P)
    mult, shift = sphere_multiplicity_polynomial(M, k), Fraction(M.n + 1, 2)
    x0 = ctx.mpf(shift.numerator) / shift.denominator
    acc = ctx.mpf(0)
    for (p,), c in mult.coeffs.items():
        acc += 2 * ctx.mpf(c.numerator) / c.denominator * ctx.zeta(-p, x0, 1)
    A = DegreeData(k, M.n).A
    if A == 0 or not mult.coeffs:
        return acc
    A2 = ctx.mpf(A.numerator) ** 2 / A.denominator ** 2
    tol = ctx.mpf(10) ** (-(P + 5))
    for i in range(1, 2000):
        term = A2 ** i / i * hurwitz_value(mult, shift, 2 * i, P)
        acc += term
        if abs(term) < tol and i > 2:
            return acc
    pytest.fail(f"binomial series for {M.name}, k = {k} did not reach 1e-{P + 5}")


@pytest.mark.parametrize("n", [1, 3, 5, 7])
def test_ccl_closed_form_matches_series(n):
    M = sphere(n)
    P = 60
    for k in range(n + 1):
        _z0, z0p = ccl(M, k)
        assert abs(log_form_value(z0p, P) - _series_ccl_prime(M, k, P)) < mp.mpf(10) ** -55, (n, k)


def test_ccl_precision_doubling():
    # the pair is exact and takes no precision: P only fixes where the log form is rounded
    for M, k in ((S3, 1), (S3, 0)):
        _z0, z0p = ccl(M, k)
        assert abs(log_form_value(z0p, 40) - log_form_value(z0p, 80)) < mp.mpf(10) ** -35


@pytest.mark.parametrize("P", [50, 100])
def test_exact_sphere_data_matches_the_hurwitz_reference(P):
    """zeta(0), zeta'(0) and the residual inner sum of every degree against
    mpmath's Hurwitz zeta, zeta' and digamma, to 10^(5-P) relative to max(1, |reference|)."""
    ctx = context(P)
    for n in (1, 3, 5, 7):
        for rank in (1, 2):
            M = sphere(n, rank)
            for k in range(n):
                z0, z0p = ccl(M, k)
                ref0, ref0p = zeta_ccl_at_zero_hurwitz(M, k, P)
                pairs = [(z0, ref0), (log_form_value(z0p, P), ref0p),
                         (residual_inner_sum(M, k, residues(M, k, P)),
                          residual_inner_sum_digamma(M, k, P))]
                for got, ref in pairs:
                    assert abs(ref - to_real(got, ctx)) <= mp.mpf(10) ** (5 - P) * max(1, abs(ref)), (n, rank, k)


def test_base_torsion_circle():
    ctx = context(40)
    assert abs(base_torsion(S1, zeta_primes(S1), 40) - ctx.log(2 * ctx.pi)) < ctx.mpf("1e-44")


def test_base_torsion_guards():
    # a torus has no multiplicity polynomial, so no zeta'(0) forms to sum, and its
    # breakdown carries no base torsion
    with pytest.raises(UnsupportedManifoldError):
        zeta_primes(torus(3))
    assert torsion_breakdown(torus(3), 40).tors is None


def test_torus_residues_exact():
    ctx = context(40)
    T3 = torus(3)
    assert abs(zeta_shifted_residue(T3, 0, 1, 40) - 4 * ctx.pi) < ctx.mpf("1e-44")
    assert abs(zeta_shifted_residue(T3, 1, 1, 40) - 8 * ctx.pi) < ctx.mpf("1e-44")
    T5 = torus(5)
    assert abs(zeta_shifted_residue(T5, 0, 2, 40)
               - ctx.mpf(8) / 3 * ctx.pi ** 2) < ctx.mpf("1e-43")
    assert abs(zeta_shifted_residue(T5, 0, 1, 40) + 16 * ctx.pi ** 2) < ctx.mpf("1e-43")
    # middle degree has A = 0: no lower pole
    assert zeta_shifted_residue(T5, 2, 1, 40) == 0


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
    path.write_text(spectrum_text(sphere(3), 80))
    M = read_spectrum_file(path)
    assert abs(float(zeta_shifted_residue(M, 0, 1, 30)) - 1.0) < 0.15


# Degree 0 (A = 1) and degree 1 (A = 0) both reach nu = 25, 20 and 16: the
# largest frequency and exactly its 0.8 and 0.64 fractions, the fit's two lower cuts.
TIED_SPECTRUM = """dim=3 rank=1
betti=1,0,0,1
0,624,3
0,399,2
0,255,5
0,99,4
1,625,2
1,400,7
1,256,1
1,9,3
"""


@pytest.mark.parametrize("text", [
    lambda: spectrum_text(torus(3), 20), lambda: spectrum_text(sphere(3), 80),
    lambda: TIED_SPECTRUM,
], ids=["torus3-cutoff20", "sphere3-cutoff80", "tied-at-the-cuts"])
def test_leading_residue_fit_equals_the_per_copy_reference(tmp_path, text):
    """One float per line weighted by its multiplicity gives the per-copy fit exactly."""
    assert (25 * 0.8, 25 * 0.64) == (20.0, 16.0)
    path = tmp_path / "base.spec"
    path.write_text(text())
    M = read_spectrum_file(path)
    for k in range(M.n):
        assert _estimated_leading_residue(M, k, 30) == weyl_fit_per_copy(M, k, 30)


def test_file_subleading_residue_unavailable(tmp_path):
    path = tmp_path / "s5.spec"
    path.write_text(spectrum_text(sphere(5), 30))
    M = read_spectrum_file(path)
    with pytest.raises(ApproximateOnlyError):
        zeta_shifted_residue(M, 0, 1, 30)  # s = 3 < n = 5: only the leading pole is estimable
