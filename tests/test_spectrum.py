"""Base spectra: closed families, duality, growth, file round trips."""

import itertools
import math
from collections import Counter
from decimal import Context
from fractions import Fraction

import pytest

from conetorsion import spectrum, verify
from conetorsion.spectrum import (
    BaseManifold,
    DegreeData,
    MalformedSpectrumFile,
    SpectralLine,
    UnsupportedManifoldError,
    betti,
    coclosed_spectrum,
    nu_stream,
    read_spectrum_file,
    sphere,
    sphere_multiplicity_polynomial,
    spectrum_text,
    torus,
)
from oracles import sphere_multiplicity

F = Fraction


def test_circle_functions():
    S1 = sphere(1)
    lines = coclosed_spectrum(S1, (0,), 10)
    assert [(ln.eta, ln.mult) for ln in lines] == [(F(j * j), 2) for j in range(1, 11)]
    assert nu_stream(S1, 0, 10) == [(F(j), 2) for j in range(1, 11)]
    assert coclosed_spectrum(S1, (1,), 10) == []


def test_sphere3_functions_and_coexact_one_forms():
    S3 = sphere(3)
    lines = coclosed_spectrum(S3, (0,), 6)
    assert lines[0].eta == 3  # lowest nonzero eigenvalue of the function Laplacian
    assert [(ln.eta, ln.mult) for ln in lines] == [
        (F(j * (j + 2)), (j + 1) ** 2) for j in range(1, 6)]
    ones = coclosed_spectrum(S3, (1,), 6)
    assert [(ln.eta, ln.mult) for ln in ones] == [
        (F((j + 1) ** 2), 2 * j * (j + 2)) for j in range(1, 6)]


def test_sphere5_killing_fields():
    # lowest coexact one-form eigenvalue 2(n-1) = 8 with multiplicity dim so(6) = 15
    S5 = sphere(5)
    ln = coclosed_spectrum(S5, (1,), 4)[0]
    assert ln.eta == 8 and ln.mult == 15


def test_nu_completes_the_square_on_spheres():
    for n in (3, 5, 7):
        M = sphere(n)
        for k in range(n):
            for nu, _m in nu_stream(M, k, F(n + 7, 2)):
                assert isinstance(nu, Fraction) and nu.denominator == 1


def test_multiplicity_polynomial_matches_pointwise():
    for n in (3, 5, 7):
        M = sphere(n)
        for k in range(n):
            poly = sphere_multiplicity_polynomial(M, k)
            for j in (1, 2, 5):
                x = F(j) + F(n - 1, 2)
                assert poly.substitute(0, x) == sphere_multiplicity(n, k, j)


@pytest.mark.parametrize("M", [sphere(1), sphere(3), sphere(5), torus(3), torus(5)])
def test_duality_multisets(M):
    for k in range(M.n):
        a = sorted((ln.eta, ln.mult) for ln in coclosed_spectrum(M, (k,), 20))
        b = sorted((ln.eta, ln.mult) for ln in coclosed_spectrum(M, (M.n - 1 - k,), 20))
        assert a == b


def test_zero_exclusion_and_positive_mults():
    with pytest.raises(ValueError):
        SpectralLine(0, F(0), 2)
    with pytest.raises(ValueError):
        SpectralLine(0, F(1), 0)


@pytest.mark.parametrize("M", [sphere(3), torus(3)])
def test_weyl_growth(M):
    def count(cut):
        return sum(ln.mult for ln in coclosed_spectrum(M, (0,), cut))
    c20 = count(20) / 20 ** M.n
    c50 = count(50) / 50 ** M.n
    assert 0.5 < c20 / c50 < 2.0


def test_degree_data():
    dd = DegreeData(0, 3)
    assert dd.A == 1 and dd.delta == 1
    assert DegreeData(1, 3).A == 0 and DegreeData(1, 3).delta == F(1, 2)
    for n in (3, 5, 7):
        for k in range(n):
            assert DegreeData(n - 1 - k, n).A == -DegreeData(k, n).A


def test_betti_numbers():
    S3 = sphere(3)
    assert [betti(S3, k) for k in range(4)] == [1, 0, 0, 1]
    T3 = torus(3)
    assert [betti(T3, k) for k in range(4)] == [1, 3, 3, 1]
    for M in (S3, T3, sphere(5)):
        for k in range(M.n + 1):
            assert betti(M, k) == betti(M, M.n - k)
        assert sum((-1) ** k * betti(M, k) for k in range(M.n + 1)) == 0


def test_rank_scaling():
    S3 = sphere(3, rank=2)
    assert betti(S3, 0) == 2
    assert coclosed_spectrum(S3, (0,), 4)[0].mult == 8


def test_torus_counts():
    T3 = torus(3)
    lines = {ln.eta: ln.mult for ln in coclosed_spectrum(T3, (0,), 3)}
    # r_3(1), r_3(2), r_3(3) = 6, 12, 8 lattice points
    assert lines[F(1)] == 6 and lines[F(2)] == 12 and lines[F(3)] == 8
    # coclosed k-forms carry binom(n-1,k) copies per lattice point
    ones = {ln.eta: ln.mult for ln in coclosed_spectrum(T3, (1,), 3)}
    assert ones[F(1)] == 12


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_sum_of_squares_counts_match_enumeration(n):
    qmax = 60
    side = range(-math.isqrt(qmax), math.isqrt(qmax) + 1)
    brute = Counter(sum(c * c for c in m) for m in itertools.product(side, repeat=n))
    assert spectrum._sum_of_squares_counts(n, qmax) == [brute[q] for q in range(qmax + 1)]


def test_torus_spectrum_counts_the_lattice_once(monkeypatch):
    calls = []
    count = spectrum._sum_of_squares_counts

    def counting(n, qmax):
        calls.append(qmax)
        return count(n, qmax)

    monkeypatch.setattr(spectrum, "_sum_of_squares_counts", counting)
    spectrum_text(torus(7), 118)
    assert calls == [118 ** 2]      # the middle degree's bound (A = 0), once
    calls.clear()
    with pytest.raises(UnsupportedManifoldError):
        spectrum_text(torus(7), 1000)
    assert calls == []              # the step budget refuses before any count
    # each degree reads its own slice of the one count
    T = torus(5, 2, F(1, 3))
    body = [f"{ln.k},{spectrum._format_rational(ln.eta)},{ln.mult}"
            for k in range(T.n + 1) for ln in coclosed_spectrum(T, (k,), 9)]
    assert spectrum_text(T, 9).splitlines()[2:] == body


def test_duality_suite_counts_each_torus_lattice_once(monkeypatch):
    calls = []
    count = spectrum._sum_of_squares_counts

    def counting(n, qmax):
        calls.append(n)
        return count(n, qmax)

    monkeypatch.setattr(spectrum, "_sum_of_squares_counts", counting)
    assert verify.check_spectrum_duality()["passed"]
    assert calls == [3]             # the suite's one torus, T^3, counted once for all degrees


def test_torus_scale():
    T = torus(3, scale=F(4))
    assert coclosed_spectrum(T, (0,), 3)[0].eta == F(4)


@pytest.mark.parametrize("scale", [F("1e-300"), F(3, 7) * F("1e-5000"), F(1, 2 ** 20000),
                                   F(10 ** 4301 + 1)], ids=["1e-300", "3/7e-5000", "2^-20000",
                                                            "10^4301+1"])
def test_a_long_scale_is_named_as_decimal_rounds_it(scale):
    # integer rounding to 17 digits, byte for byte the Decimal division it replaced
    decimal = Context(prec=17).divide(scale.numerator, scale.denominator).normalize()
    assert torus(3, scale=scale).name == f"torus:3:1:{str(decimal).lower()}"


def test_file_round_trip(tmp_path):
    for M in (sphere(3), torus(3, scale=F(1, 4))):
        path = tmp_path / "spec.txt"
        path.write_text(spectrum_text(M, 12))
        back = read_spectrum_file(path)
        assert back.n == M.n and back.rank == M.rank
        assert tuple(betti(back, k) for k in range(M.n + 1)) == tuple(
            betti(M, k) for k in range(M.n + 1))
        for k in range(M.n + 1):
            orig = sorted((ln.eta, ln.mult) for ln in coclosed_spectrum(M, (k,), 12))
            got = sorted((ln.eta, ln.mult) for ln in coclosed_spectrum(back, (k,), 12))
            assert orig == got
        # byte-exact second generation
        text1 = (tmp_path / "spec.txt").read_text()
        (tmp_path / "spec2.txt").write_text(spectrum_text(back, 12))
        assert (tmp_path / "spec2.txt").read_text() == text1


def test_malformed_files(tmp_path):
    bad = tmp_path / "bad.txt"
    bad.write_text("dim=3 rank=1\n0,1.5\n")
    with pytest.raises(MalformedSpectrumFile):
        read_spectrum_file(bad)
    bad.write_text("0,1.5,2\n")
    with pytest.raises(MalformedSpectrumFile):
        read_spectrum_file(bad)
    with pytest.raises(MalformedSpectrumFile):
        read_spectrum_file(tmp_path / "missing.txt")


def test_unsupported_manifolds():
    with pytest.raises(UnsupportedManifoldError):
        sphere(2)
    with pytest.raises(UnsupportedManifoldError):
        sphere(9)
    with pytest.raises(UnsupportedManifoldError):
        torus(3, scale=F(-1))
    with pytest.raises(UnsupportedManifoldError):
        BaseManifold("mystery", 3)
