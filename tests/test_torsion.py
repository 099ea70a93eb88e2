"""Torsion assembly: closed values, epsilon cancellation, headline identity."""

import json
import sys
from fractions import Fraction

import mpmath as mp
import pytest

from conetorsion import precision, spectrum, torsion, zeta
from conetorsion.cli import parse_base
from conetorsion.precision import context
from conetorsion.spectrum import betti, sphere, torus, spectrum_text, read_spectrum_file
from conetorsion.torsion import (
    cone_torsion,
    top_term,
    torsion_breakdown,
    torsion_difference,
    torsion_report,
    truncated_cone_torsion,
)
from conetorsion.zeta import ApproximateOnlyError, log_form_value
from oracles import ccl, residues, zeta_primes

F = Fraction
S1, S3 = sphere(1), sphere(3)


def test_top_term_values():
    ctx = context(40)
    assert abs(top_term(S3, 40) - ctx.log(2)) < ctx.mpf("1e-44")
    assert abs(top_term(S1, 40) - ctx.log(2) / 2) < ctx.mpf("1e-44")
    # all Betti numbers zero in range: rank-1 torus has b_0 = 1, so fabricate
    # the empty case via a degree check instead: S^3 in degree 1 contributes 0
    assert abs(top_term(sphere(3, rank=3), 40) - 3 * ctx.log(2)) < ctx.mpf("1e-43")


@pytest.mark.parametrize("M", [S1, S3])
def test_difference_eps_independent(M):
    P = 50
    r1 = torsion_difference(M, F(1, 2), P)
    r2 = torsion_difference(M, F(1, 4), P)
    assert r1 == r2
    assert torsion_breakdown(M, P).log_eps == 0


@pytest.mark.parametrize("spec", ["sphere:1", "sphere:3", "sphere:5:2"])
def test_difference_matches_degree_by_degree_assembly(spec):
    # the reference assembles the difference degree by degree: each degree's
    # zeta_k'(0, eps) = -zeta'(0, ccl_k) - 2 log(eps) zeta(0, ccl_k) + inner_k / 2
    # with weight (-1)^k delta_k / 2, plus the harmonic sector
    # (1/2) sum_k (-1)^k k b_k log(eps) - top
    P = 50
    ctx = context(P)
    M = parse_base(spec)
    weight = sum((-1) ** k * k * betti(M, k) for k in range(M.n + 1))
    for eps in (F(1, 2), F(1, 3), F(1, 7)):
        log_eps = ctx.log(ctx.mpf(eps.numerator) / eps.denominator)
        want = ctx.mpf(weight) / 2 * log_eps - top_term(M, P)
        for k in range((M.n - 1) // 2 + 1):
            z0, z0p = ccl(M, k)
            inner = torsion.residual_inner_sum(M, k, residues(M, k, P))
            delta = M.degree(k).delta
            w = ctx.mpf((-1) ** k) / 2 * ctx.mpf(delta.numerator) / delta.denominator
            want += w * (-log_form_value(z0p, P) - 2 * log_eps * z0 + inner / 2)
        assert abs(torsion_difference(M, eps, P) - want) < ctx.mpf(10) ** -40, (spec, eps)


def test_difference_circle_value():
    P = 40
    ctx = context(P)
    diff = torsion_difference(S1, F(1, 3), P)
    want = zeta.base_torsion(S1, zeta_primes(S1), P) / 2 - ctx.log(2) / 2
    assert abs(diff - want) < ctx.mpf(10) ** -40


def test_difference_base_torsion_share():
    # the first combinatorial identity: -(sum (-1)^k delta_k zeta'(0,ccl))/2
    # equals half the base torsion by construction of base_torsion; the forms
    # are summed exactly, and halving every coefficient halves the rounded value
    P = 40
    share = zeta.base_torsion(S3, zeta_primes(S3), P) / 2
    form = {}
    for k in range(2):
        _z0, z0p = ccl(S3, k)
        for atom, c in z0p.items():
            form[atom] = form.get(atom, 0) - Fraction((-1) ** k, 2) * S3.degree(k).delta * c
    assert abs(log_form_value(form, P) - share) == 0


def test_truncated_cone_torsion_values():
    P = 50
    ctx = context(P)
    spec1, anom1, gap1 = truncated_cone_torsion(S1, P)
    assert spec1 == 0 and anom1 == 0 and gap1 == 0
    spec3, anom3, gap3 = truncated_cone_torsion(S3, P)
    assert spec3 == F(-1, 3)
    assert gap3 < ctx.mpf(10) ** -45
    # torus: both sides exact as well, equal to -4 pi / 3
    specT, anomT, gapT = truncated_cone_torsion(torus(3), P)
    assert abs(specT + 4 * ctx.pi / 3) < ctx.mpf(10) ** -45
    assert gapT < ctx.mpf(10) ** -44


def test_truncated_cone_torsion_sphere5_and_torus5():
    P = 50
    ctx = context(P)
    spec, anom, gap = truncated_cone_torsion(sphere(5), P)
    assert spec == F(-8, 15)
    assert gap < ctx.mpf(10) ** -44
    specT, anomT, gapT = truncated_cone_torsion(torus(5), P)
    assert abs(specT - 48 * ctx.pi ** 2 / 5) < ctx.mpf(10) ** -42
    assert gapT < ctx.mpf(10) ** -42


def test_cone_torsion_circle():
    P = 50
    ctx = context(P)
    bd = cone_torsion(S1, P)
    assert abs(bd.total + ctx.log(ctx.pi) / 2) < ctx.mpf(10) ** -45
    assert bd.res_spectral == 0 and bd.res_anomaly == 0


def test_cone_torsion_sphere3():
    P = 50
    ctx = context(P)
    bd = cone_torsion(S3, P)
    want = ctx.log(2) - ctx.log(2 * ctx.pi ** 2) / 2 - ctx.mpf(1) / 6
    assert abs(bd.total - want) < ctx.mpf(10) ** -44
    assert abs(bd.total - (bd.top + bd.tors + bd.res_anomaly)) < ctx.mpf(10) ** -45
    assert bd.headline_gap < ctx.mpf(10) ** -44


@pytest.mark.parametrize("M", [S1, S3])
def test_cone_equals_truncated_minus_difference(M):
    P = 50
    bd = cone_torsion(M, P)
    spec, _anom, _gap = truncated_cone_torsion(M, P)
    diff = torsion_difference(M, F(1, 2), P)
    assert abs(bd.total - spec + diff) < mp.mpf(10) ** -40


def test_cone_torsion_torus_unsupported():
    with pytest.raises(ApproximateOnlyError):
        cone_torsion(torus(3), 40)


def test_report_structure_and_determinism():
    r1 = torsion_report(S3, 40)
    r2 = torsion_report(S3, 40)
    assert json.dumps(r1, sort_keys=True) == json.dumps(r2, sort_keys=True)
    assert set(r1["breakdown"]) == {"top", "tors", "res_spectral", "res_anomaly", "total"}
    assert float(r1["audits"]["headline_gap"]) < 1e-40
    assert float(r1["audits"]["eps_cancel"]) < 1e-38
    assert r1["approximate"] is False


@pytest.mark.parametrize("entry", [
    lambda M: torsion_report(M, 50), lambda M: cone_torsion(M, 50),
    lambda M: truncated_cone_torsion(M, 50), lambda M: torsion_difference(M, F(1, 2), 50),
], ids=["torsion_report", "cone_torsion", "truncated_cone_torsion", "torsion_difference"])
def test_report_computes_each_degree_once(monkeypatch, entry):
    # one breakdown: each of the four degrees of S^7 is evaluated once, from one
    # multiplicity polynomial per degree, whichever entry point reads it
    calls = {"zeta_ccl_at_zero": 0, "residual_inner_sum": 0, "sphere_multiplicity_polynomial": 0}

    def counting(name, fn):
        def wrapped(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapped

    monkeypatch.setattr(zeta, "zeta_ccl_at_zero",
                        counting("zeta_ccl_at_zero", zeta.zeta_ccl_at_zero))
    monkeypatch.setattr(torsion, "residual_inner_sum",
                        counting("residual_inner_sum", torsion.residual_inner_sum))
    # counted under every module name that binds it
    build = spectrum.sphere_multiplicity_polynomial
    counted = counting("sphere_multiplicity_polynomial", build)
    for name, module in list(sys.modules.items()):
        bound = getattr(module, "sphere_multiplicity_polynomial", None)
        if name.startswith("conetorsion") and bound is build:
            monkeypatch.setattr(module, "sphere_multiplicity_polynomial", counted)
    entry(sphere(7))
    assert calls == {"zeta_ccl_at_zero": 4, "residual_inner_sum": 4, "sphere_multiplicity_polynomial": 4}


@pytest.mark.parametrize("spec", ["sphere:1", "sphere:3", "sphere:5", "sphere:7",
                                  "sphere:3:2", "sphere:7:2"])
def test_sphere_reports_call_no_hurwitz_zeta_or_digamma(monkeypatch, spec):
    # every context that precision.context hands out counts its zeta and digamma calls
    calls = []
    make_context = precision.context

    def counting_context(*args, **kwargs):
        ctx = make_context(*args, **kwargs)
        for name in ("zeta", "digamma"):
            method = getattr(ctx, name)
            setattr(ctx, name, lambda *a, _m=method, _n=name, **kw: calls.append(_n) or _m(*a, **kw))
        return ctx

    for name, module in list(sys.modules.items()):
        if name.startswith("conetorsion") and getattr(module, "context", None) is make_context:
            monkeypatch.setattr(module, "context", counting_context)
    r = torsion_report(parse_base(spec), 50)
    assert calls == [] and r["approximate"] is False
    # so every zeta(0, ccl_k) is exact, and log(eps) has coefficient exactly 0
    assert r["audits"]["eps_cancel"] == r["audits"]["logeps_audit"] == "0.0"
    # the counter sees the one zeta call left in the package: a zeta'(-q) atom, q >= 1
    log_form_value({("zeta'", 1): 1}, 50)
    assert calls == ["zeta"]


# residual_inner_sum per degree k = 0..(n-1)/2; rank 2 doubles each
INNER_SUMS = {
    3: (F(-214, 315), F(-8, 315)),
    5: (F(-215042, 675675), F(73846, 96525), F(7496, 225225)),
}


def test_residual_inner_sums_are_exact():
    for n, row in INNER_SUMS.items():
        for rank in (1, 2):
            M = sphere(n, rank)
            got = tuple(torsion.residual_inner_sum(M, k, residues(M, k))
                        for k in range((n - 1) // 2 + 1))
            assert got == tuple(rank * v for v in row), (n, rank)


def test_report_torus_mode():
    r = torsion_report(torus(3), 40)
    assert r["approximate"] is True
    assert r["breakdown"]["tors"] is None
    assert r["breakdown"]["res_spectral"] is not None
    assert float(r["audits"]["headline_gap"]) < 1e-40


def test_report_file_mode(tmp_path):
    path = tmp_path / "s3.spec"
    path.write_text(spectrum_text(sphere(3), 80))
    M = read_spectrum_file(path)
    r = torsion_report(M, 30)
    assert r["approximate"] is True
    assert r["breakdown"]["res_anomaly"] is None  # no curvature data for a file base
    assert r["breakdown"]["res_spectral"] is not None


def test_truncated_cone_torsion_sphere7_and_torus7():
    # dimension 7 exercises anomaly coefficient slots (curvature squared,
    # fifth and seventh powers) that played no role in fixing conventions
    P = 45
    ctx = context(P)
    spec, anom, gap = truncated_cone_torsion(sphere(7), P)
    assert spec == F(-71, 105)
    assert gap < ctx.mpf(10) ** -40
    _specT, _anomT, gapT = truncated_cone_torsion(torus(7), P)
    assert gapT < ctx.mpf(10) ** -38


def test_base_torsion_classical_sphere_values():
    # Cheeger-Mueller on closed odd unit spheres: log T = rank log vol(S^n)
    P = 45
    ctx = context(P)
    from conetorsion.torsion import volume
    for n in (1, 3, 5, 7):
        for rank in (1, 2):
            M = sphere(n, rank)
            got = zeta.base_torsion(M, zeta_primes(M), P)
            assert abs(got - rank * ctx.log(volume(sphere(n), P))) < ctx.mpf(10) ** -40, (n, rank)


def test_residual_is_half_the_truncated_torsion():
    # the quarter-weighted residual summand vs the half-weighted truncated value
    P = 40
    for M in (S3, sphere(5)):
        spec, _anom, _gap = truncated_cone_torsion(M, P)
        bd = cone_torsion(M, P)
        assert abs(spec - 2 * bd.res_spectral) == 0


# torsion_report(M, 30) as JSON, byte for byte; the file base is S^3 cut off at 40.
# On spheres res_spectral is exact, so headline_gap is the anomaly side's rounding alone.
REPORTS_AT_30 = {
    "sphere:3": (
        '{"approximate": false, '
        '"audits": {"eps_cancel": "0.0", '
        '"headline_gap": "2.86985925493722536125179818658e-42", "logeps_audit": "0.0"}, '
        '"base": "sphere:3", '
        '"breakdown": {"res_anomaly": "-0.166666666666666666666666666667", '
        '"res_spectral": "-0.166666666666666666666666666667", '
        '"top": "0.693147180559945309417232121458", '
        '"tors": "-1.49130347612937282885204341208", '
        '"total": "-0.964822962236094186101477957291"}, "n": 3, "precision": 30, "rank": 1}'),
    "sphere:5:2": (
        '{"approximate": false, "audits": {"eps_cancel": "0.0", '
        '"headline_gap": "1.14794370197489014450071927463e-41", "logeps_audit": "0.0"}, '
        '"base": "sphere:5:2", '
        '"breakdown": {"res_anomaly": "-0.533333333333333333333333333333", '
        '"res_spectral": "-0.533333333333333333333333333333", '
        '"top": "1.79175946922805500081247735838", '
        '"tors": "-3.43418965754820052243028205406", '
        '"total": "-2.17576352165347885495113802901"}, "n": 5, "precision": 30, "rank": 2}'),
    "torus:3": (
        '{"approximate": true, "audits": {"eps_cancel": null, '
        '"headline_gap": "0.0"}, "base": "torus:3", '
        '"breakdown": {"res_anomaly": "-2.09439510239319549230842892219", '
        '"res_spectral": "-2.09439510239319549230842892219", '
        '"top": "-0.346573590279972654708616060729", "tors": null, "total": null}, "n": 3, '
        '"precision": 30, "rank": 1}'),
    "file:s3.spec": (
        '{"approximate": true, "audits": {"eps_cancel": null, "headline_gap": null}, '
        '"base": "file:s3.spec", "breakdown": {"res_anomaly": null, '
        '"res_spectral": "-0.119028147379557065688700168678", '
        '"top": "0.693147180559945309417232121458", "tors": null, "total": null}, "n": 3, '
        '"precision": 30, "rank": 1}'),
}


@pytest.mark.parametrize("name", list(REPORTS_AT_30))
def test_report_json_is_pinned(name, tmp_path):
    if name.startswith("file:"):
        path = tmp_path / "s3.spec"
        path.write_text(spectrum_text(sphere(3), 40))
        M = read_spectrum_file(path)
    else:
        M = parse_base(name)
    r = torsion_report(M, 30)
    assert json.dumps(r, sort_keys=True) == REPORTS_AT_30[name]
    # only spheres have an exact continuation, and their residues are exact
    assert r["approximate"] == (M.kind != "sphere")
