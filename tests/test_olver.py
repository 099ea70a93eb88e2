"""Expansion-coefficient polynomials: recursion, log families, exact identities.

The recursion generating u_r, v_r is validated against a numerical oracle
before anything else: the 1/nu coefficient of I_nu(nu z) (resp. I'_nu(nu z))
divided by its leading uniform factor is fitted at two large orders and must
reproduce u_1(t) (resp. v_1(t)).  Everything downstream is exact arithmetic.
"""

from fractions import Fraction

import mpmath as mp
import pytest

from conetorsion import olver
from conetorsion.olver import (
    Polynomial,
    StructureError,
    d_poly,
    large_nu_term,
    m_poly,
    residual_bracket,
    u_poly,
    v_poly,
)
from oracles import naive_product, reference_families, substitute_per_term

F = Fraction


def test_recursion_base_and_first_terms():
    assert u_poly(0) == Polynomial({(0,): 1})
    assert v_poly(0) == Polynomial({(0,): 1})
    assert u_poly(1) == Polynomial({(1,): F(1, 8), (3,): F(-5, 24)})
    assert v_poly(1) == Polynomial({(1,): F(-3, 8), (3,): F(7, 24)})


def test_uniform_expansion_fit_oracle():
    """Fit the 1/nu coefficients of I and I' at nu in {50, 100} and match u_1, v_1."""
    mp.mp.dps = 40
    z = mp.mpf("0.7")
    t = 1 / mp.sqrt(1 + z ** 2)
    xi = 1 / t + mp.log(z / (1 + 1 / t))

    def ratio_I(nu):
        lead = mp.exp(nu * xi) / (mp.sqrt(2 * mp.pi * nu) * (1 + z ** 2) ** mp.mpf("0.25"))
        return (mp.besseli(nu, nu * z) / lead - 1) * nu

    def ratio_Ip(nu):
        lead = mp.exp(nu * xi) * (1 + z ** 2) ** mp.mpf("0.25") / (mp.sqrt(2 * mp.pi * nu) * z)
        dI = (mp.besseli(nu - 1, nu * z) + mp.besseli(nu + 1, nu * z)) / 2
        return (dI / lead - 1) * nu

    # Richardson in 1/nu removes the u_2 contamination
    for fitfn, poly in ((ratio_I, u_poly(1)), (ratio_Ip, v_poly(1))):
        r50, r100 = fitfn(50), fitfn(100)
        extrap = 2 * r100 - r50
        want = sum(mp.mpf(c.numerator) / c.denominator * t ** e for (e,), c in poly.coeffs.items())
        assert abs(extrap - want) < 1e-4 * max(1, abs(want))


@pytest.mark.parametrize("N", [1, 2, 3])
def test_uniform_expansion_remainder_ratio(N):
    """Truncation after N terms: remainder ratio between nu and 2nu in [2^-N-2, 2^-N]."""
    mp.mp.dps = 50
    z = mp.mpf("0.9")
    t = 1 / mp.sqrt(1 + z ** 2)
    xi = 1 / t + mp.log(z / (1 + 1 / t))

    def remainder(nu):
        lead = mp.exp(nu * xi) / (mp.sqrt(2 * mp.pi * nu) * (1 + z ** 2) ** mp.mpf("0.25"))
        acc = mp.mpf(1)
        for r in range(1, N + 1):
            acc += sum(mp.mpf(c.numerator) / c.denominator * t ** e
                       for (e,), c in u_poly(r).coeffs.items()) / nu ** r
        return abs(mp.besseli(nu, nu * z) / lead - acc)

    for nu in (20, 40):
        ratio = remainder(2 * nu) / remainder(nu)
        assert 2.0 ** (-N - 2) <= ratio <= 2.0 ** (-N)


def test_log_family_symbolic():
    assert d_poly(1) == u_poly(1)
    assert d_poly(2) == u_poly(2) + (u_poly(1) * u_poly(1)).scale(F(-1, 2))
    m1 = m_poly(1)
    want = (Polynomial({(e, 0): c for (e,), c in v_poly(1).coeffs.items()})
            + Polynomial({(1, 1): 1}))
    assert m1 == want
    assert m1.substitute(1, 0) == v_poly(1)


@pytest.mark.parametrize("A", [F(0), F(1), F(-1), F(2), F(-2), F(7, 2)])
def test_dm_identity_exact(A):
    for r in range(1, 10):
        lhs = m_poly(r).substitute(1, A).substitute(0, 1)
        rhs = d_poly(r).substitute(0, 1) - (-A) ** r / F(r)
        assert lhs == rhs


def test_support_ladder():
    for r in range(1, 10):
        ladder = {r + 2 * b for b in range(r + 1)}
        assert {e for (e,) in d_poly(r).coeffs} <= ladder
        assert {e for e, _a in m_poly(r).coeffs} <= ladder
        # parity structure of the generators themselves
        assert all(e % 2 == r % 2 for (e,) in u_poly(r).coeffs)
        assert max(e for (e,) in u_poly(r).coeffs) <= 3 * r


def test_xz_first_index():
    # x_{1,b} on t^1, t^3; z_{1,0}(A) = -3/8 + A and z_{1,1} = 7/24
    assert d_poly(1) == Polynomial({(1,): F(1, 8), (3,): F(-5, 24)})
    assert m_poly(1) == Polynomial({(1, 0): F(-3, 8), (1, 1): F(1), (3, 0): F(7, 24)})


@pytest.mark.parametrize("A", [F(0), F(1), F(-2), F(7, 2)])
def test_odd_sum_rule(A):
    for r in range(1, 5):
        assert sum(residual_bracket(r, A)) == 0


@pytest.mark.parametrize("A", [F(0), F(1), F(-2), F(7, 2)])
def test_residual_bracket_from_d_and_m_coefficients(A):
    """2 x_{R,b} - z_{R,b}(-A) - z_{R,b}(A), R = 2r+1, read off the D_R and M_R coefficient dicts."""
    for r in range(1, 5):
        R = 2 * r + 1
        d, m = d_poly(R).coeffs, m_poly(R).coeffs

        def z(e, a):
            return sum(c * a ** k for (t, k), c in m.items() if t == e)

        want = [2 * d.get((R + 2 * b,), 0) - z(R + 2 * b, -A) - z(R + 2 * b, A)
                for b in range(R + 1)]
        assert residual_bracket(r, A) == want


@pytest.fixture
def cleared_caches():
    """Empty the generated families down to index 0 before and after the test."""
    def clear():
        for family in (olver._u, olver._v, olver._d, olver._m, olver._wm):
            del family[1:]
    clear()
    yield
    clear()


@pytest.mark.parametrize("stray_u, stray_v, message", [
    (Polynomial({(0,): 1}), Polynomial({}, 1), r"D_1 has exponents \[0\] off the ladder"),
    (Polynomial({}, 1), Polynomial({(2,): 1}), r"M_1 has exponents \[2\] off the ladder"),
], ids=["D", "M"])
def test_structure_error_when_a_family_leaves_its_ladder(
        monkeypatch, cleared_caches, stray_u, stray_v, message):
    real = olver._next_uv

    def broken(u):
        nxt_u, nxt_v = real(u)
        return nxt_u + stray_u, nxt_v + stray_v

    monkeypatch.setattr(olver, "_next_uv", broken)
    with pytest.raises(StructureError, match=message):
        u_poly(1)
    # nothing of the failed index is stored
    assert [len(f) for f in (olver._u, olver._v, olver._d, olver._m, olver._wm)] == [1] * 5


def test_large_nu_term_constant_part():
    # the shift contributes (A^r + (-A)^r)/r to the constant coefficient
    p = large_nu_term(2, F(2))
    assert p.coeffs[(0,)] == F(2 ** 2 + 2 ** 2, 2)
    assert (0,) not in large_nu_term(1, F(2)).coeffs


@pytest.mark.parametrize("nvars", [1, 2])
def test_ring_laws_randomized(nvars):
    """Ring laws, zero pruning and substitution homomorphism, hypothesis-driven."""
    from hypothesis import given, settings, strategies as st

    poly = st.dictionaries(st.tuples(*[st.integers(min_value=-2, max_value=4)] * nvars),
                           st.fractions(min_value=-3, max_value=3, max_denominator=6),
                           max_size=5).map(lambda d: Polynomial(d, nvars))
    # nonzero, since exponents may be negative
    value = st.fractions(min_value=-3, max_value=3, max_denominator=4).filter(bool)

    @settings(max_examples=60, deadline=None)
    @given(poly, poly, poly, value)
    def inner(a, b, c, x):
        assert a + b == b + a and a * b == b * a
        assert (a + b) + c == a + (b + c) and (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c
        assert (a + a.scale(-1)).coeffs == {}
        for p in (a + b, a * b, a.scale(x)):
            assert all(p.coeffs.values())
        for i in range(nvars):
            assert (a + b).substitute(i, x) == a.substitute(i, x) + b.substitute(i, x)
            assert (a * b).substitute(i, x) == a.substitute(i, x) * b.substitute(i, x)

    inner()


@pytest.mark.parametrize("nvars", [1, 2])
def test_product_matches_the_naive_product(nvars):
    """The common-denominator product equals the term-by-term Fraction product,
    keys in the same order: negative exponents, zero polynomials, denominators to 10^6."""
    from hypothesis import example, given, settings, strategies as st

    poly = st.dictionaries(st.tuples(*[st.integers(min_value=-3, max_value=5)] * nvars),
                           st.fractions(min_value=-10 ** 6, max_value=10 ** 6,
                                        max_denominator=10 ** 6),
                           max_size=8).map(lambda d: Polynomial(d, nvars))
    zero = Polynomial({}, nvars)
    # (t - 1/3)(t + 1/3) = t^2 - 1/9: the middle terms cancel
    minus, plus = ({(1,) * nvars: 1, (0,) * nvars: F(s, 3)} for s in (-1, 1))

    @settings(max_examples=300, deadline=None)
    @given(poly, poly)
    @example(zero, zero)
    @example(zero, Polynomial({(-2,) * nvars: F(7, 999983)}))
    @example(Polynomial(minus), Polynomial(plus))
    def inner(a, b):
        got, want = a * b, naive_product(a, b)
        assert got.nvars == want.nvars == nvars
        assert list(got.coeffs.items()) == list(want.coeffs.items())
        assert all(type(c) is Fraction and c for c in got.coeffs.values())

    inner()


def test_memo_families_match_the_fraction_reference():
    """u, v, D, M and w to r = 12 equal the one-Fraction-per-term build, keys in the same order."""
    u_poly(12)
    memo = (olver._u, olver._v, olver._d, olver._m, olver._wm)
    for name, family, want in zip("uvDMw", memo, reference_families(12)):
        got = family[:13]
        assert got == want, name
        assert [list(p.coeffs.items()) for p in got] == [list(p.coeffs.items()) for p in want], name


@pytest.mark.parametrize("nvars", [1, 2])
def test_substitute_matches_the_per_term_reference(nvars):
    """The one integer pass over a common denominator equals one Fraction power per term,
    keys in the same order: negative exponents, the zero polynomial, the value 0, which
    raises ZeroDivisionError exactly when the variable has a negative exponent."""
    from hypothesis import example, given, settings, strategies as st

    poly = st.dictionaries(st.tuples(*[st.integers(min_value=-3, max_value=5)] * nvars),
                           st.fractions(min_value=-10 ** 6, max_value=10 ** 6,
                                        max_denominator=10 ** 6),
                           max_size=8).map(lambda d: Polynomial(d, nvars))
    value = st.just(F(0)) | st.fractions(min_value=-7, max_value=7, max_denominator=12)
    index = st.integers(min_value=0, max_value=nvars - 1)

    @settings(max_examples=300, deadline=None)
    @given(poly, index, value)
    @example(Polynomial({}, nvars), 0, F(0))
    @example(Polynomial({(0,) * nvars: 1, (-1,) * nvars: 2}), 0, F(0))
    @example(Polynomial({(2,) * nvars: F(1, 3), (1,) * nvars: -1}), nvars - 1, F(0))
    def inner(p, i, x):
        if x == 0 and any(k[i] < 0 for k in p.coeffs):
            with pytest.raises(ZeroDivisionError):
                p.substitute(i, x)
            with pytest.raises(ZeroDivisionError):
                substitute_per_term(p, i, x)
            return
        got, want = p.substitute(i, x), substitute_per_term(p, i, x)
        if nvars == 1:
            assert type(got) is Fraction and got == want
        else:
            assert got.nvars == want.nvars == nvars - 1
            assert list(got.coeffs.items()) == list(want.coeffs.items())
            assert all(type(c) is Fraction and c for c in got.coeffs.values())

    inner()


def test_equal_keys_with_other_coefficients_never_share_an_integer_form():
    keys = [(3, 0), (1, 1), (-2, 4)]
    polys = [Polynomial(dict(zip(keys, cs)), 2)
             for cs in ((1, F(1, 2), -3), (1, F(1, 3), -3), (2, F(1, 2), -3))]
    other = Polynomial({(1, 0): F(2, 7), (0, 1): 5})
    for p in polys:
        assert p * other == naive_product(p, other)
        assert p.substitute(1, F(3, 2)) == substitute_per_term(p, 1, F(3, 2))
    forms = [p._form() for p in polys]
    assert all(list(nums) == [olver._pack(k) for k in keys] for nums, _den, _reach in forms)
    assert len({(tuple(nums.values()), den) for nums, den, _reach in forms}) == 3


def test_the_memo_rebuilds_after_the_caches_are_cleared(cleared_caches):
    assert [len(f) for f in (olver._u, olver._v, olver._d, olver._m, olver._wm)] == [1] * 5
    _u, _v, d, m, _w = reference_families(8)
    for r in range(1, 9):
        assert list(d_poly(r).coeffs.items()) == list(d[r].coeffs.items())
        assert list(m_poly(r).coeffs.items()) == list(m[r].coeffs.items())


def test_packed_exponents_stay_within_reach():
    huge = 2 ** 70
    # one variable, or the last of several: any size
    assert Polynomial({(huge,): 1}) * Polynomial({(huge,): 1}) == Polynomial({(2 * huge,): 1})
    assert Polynomial({(1, -huge): 1}) * Polynomial({(1, huge): 2}) == Polynomial({(2, 0): 2})
    assert Polynomial({(3, -huge): 1}).substitute(0, 2) == Polynomial({(-huge,): 8})
    # the others are refused before their sum could spill into the next field
    with pytest.raises(OverflowError):
        Polynomial({(huge, 0): 1}) * Polynomial({(0, 0): 1})
    with pytest.raises(OverflowError):
        Polynomial({(-huge, 3): 1}).substitute(1, 2)
    with pytest.raises(OverflowError):
        Polynomial({(2 ** 61, 0): 1}) * Polynomial({(2 ** 61, 0): 1})


def test_ring_rejects_mixed_arity():
    t = Polynomial({(1,): 1})
    ta = Polynomial({(1, 0): 1})
    with pytest.raises(ValueError):
        t * ta
    with pytest.raises(ValueError):
        t + ta
    with pytest.raises(ValueError):
        Polynomial({(1,): 1, (1, 1): 1})


def test_cache_thread_safety(cleared_caches):
    import threading
    results = []

    def work():
        results.append(d_poly(7).substitute(0, 1))

    threads = [threading.Thread(target=work) for _ in range(8)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert len(set(results)) == 1
