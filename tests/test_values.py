"""The value types: immutable, equal and hashed by value, checked at construction."""

from fractions import Fraction as F

import pytest

from conetorsion import berezin, torsion
from conetorsion.berezin import AnomalyClass, CollarMetric
from conetorsion.operators import ModelOperator
from conetorsion.precision import DomainError
from conetorsion.spectrum import (
    BaseManifold,
    DegreeData,
    SpectralLine,
    UnsupportedManifoldError,
    sphere,
    torus,
)


def _values():
    """One instance of each value type, with the name of one of its fields."""
    cm = CollarMetric(3, F(1), F(-2))
    return [
        (SpectralLine(0, F(1), 6), "eta"),
        (DegreeData(1, 3), "k"),
        (sphere(3), "rank"),
        (ModelOperator("psi2", F(3, 2), F(1, 2), F(1, 3)), "eps"),
        (cm, "scale"),
        (berezin.b_class(cm), "coefficient"),
        (torsion.torsion_breakdown(sphere(1), 30), "total"),
    ]


@pytest.mark.parametrize("value, field", _values(),
                         ids=lambda v: v if isinstance(v, str) else type(v).__name__)
def test_fields_cannot_be_assigned(value, field):
    with pytest.raises(AttributeError):
        setattr(value, field, getattr(value, field))
    with pytest.raises(AttributeError):
        value.extra = 1


def test_equality_and_hash_go_by_value():
    op = ModelOperator("psi2", F(3, 2), F(1, 2), F(1, 3))
    twin = ModelOperator("psi2", F(3, 2), F(1, 2), F(1, 3))
    assert op == twin and hash(op) == hash(twin)
    # verify.check_harmonic_determinants keys its oracle values by operator
    assert {op: 1}[twin] == 1
    assert op != ModelOperator("psi2", F(3, 2), F(1, 2), F(1, 4))
    assert sphere(3) == BaseManifold("sphere", 3) and hash(sphere(3)) == hash(BaseManifold("sphere", 3))
    assert sphere(3) != sphere(3, 2) and torus(3) != torus(3, 1, F(4))
    assert len({SpectralLine(0, F(1), 6), SpectralLine(0, F(1), 6), SpectralLine(0, F(2), 6)}) == 2
    assert DegreeData(1, 3) == DegreeData(1, 3) and DegreeData(1, 3) != DegreeData(0, 3)
    cm = CollarMetric(3, F(1), F(-2))
    assert berezin.b_class(cm) == berezin.b_class(CollarMetric(3, F(1), F(-2)))


def test_keyword_construction_and_defaults():
    M = BaseManifold(kind="torus", n=3)
    assert (M.rank, M.scale, M.lines, M.betti_raw, M.label) == (1, F(1), (), (), "")
    assert M == torus(3) and M.name == "torus:3"
    op = ModelOperator(variant="psi0", nu=0, A=F(0), eps=F(1, 4))
    assert op.eps == F(1, 4) and op.length == 0.75
    with pytest.raises(TypeError):  # no operator without an inner radius
        ModelOperator(variant="psi0", nu=0, A=F(0))
    assert CollarMetric(n=3, kappa=F(1), fprime0=F(-2)).scale == 1
    line = SpectralLine(k=1, eta=F(3), mult=4)
    assert (line.k, line.eta, line.mult) == (1, F(3), 4)
    dd = DegreeData(k=0, n=3)
    assert dd.A == 1 and dd.delta == 1
    assert AnomalyClass(n=3, coefficient=berezin.b_class(CollarMetric(3, F(1), F(-2))).coefficient).n == 3


@pytest.mark.parametrize("kwargs, error", [
    ({"variant": "psi3"}, ValueError),
    ({"eps": F(0)}, DomainError),
    ({"eps": F(1)}, DomainError),
    ({"eps": F(-1, 2)}, DomainError),
    ({"eps": F(3, 2)}, DomainError),
    ({"nu": F(-1, 2)}, DomainError),
    # the harmonic sector is psi0 at order |A|, not a variant of its own
    ({"variant": "h0"}, ValueError),
])
def test_model_operator_checks(kwargs, error):
    with pytest.raises(error):
        ModelOperator(**{"variant": "psi2", "nu": F(3, 2), "A": F(1, 2), "eps": F(1, 3), **kwargs})


@pytest.mark.parametrize("kwargs", [{"n": 2}, {"n": 0}, {"n": -1}, {"scale": F(0)}, {"scale": F(-1)}])
def test_collar_metric_checks(kwargs):
    with pytest.raises(DomainError):
        CollarMetric(**{"n": 3, "kappa": F(1), "fprime0": F(-2), **kwargs})


@pytest.mark.parametrize("kwargs", [{"eta": F(0)}, {"eta": F(-1)}, {"mult": 0}, {"mult": -2}])
def test_spectral_line_checks(kwargs):
    with pytest.raises(ValueError):
        SpectralLine(**{"k": 0, "eta": F(1), "mult": 6, **kwargs})


@pytest.mark.parametrize("kwargs", [
    {"n": 4}, {"n": 0}, {"rank": 0}, {"kind": "klein"}, {"kind": "sphere", "n": 9},
])
def test_base_manifold_checks(kwargs):
    with pytest.raises(UnsupportedManifoldError):
        BaseManifold(**{"kind": "torus", "n": 3, **kwargs})


def test_scaled_keeps_the_scale_check():
    cm = CollarMetric(3, F(1), F(-2), F(3))
    assert berezin.scaled(cm, 2) == CollarMetric(3, F(1), F(-2), F(6))
    for s in (-1, 0):
        with pytest.raises(DomainError):
            berezin.scaled(cm, s)
