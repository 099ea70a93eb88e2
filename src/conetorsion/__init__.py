"""Analytic torsion of even-dimensional bounded cones over closed odd bases.

The package evaluates the cone torsion's decomposition into a Betti-number
term, a base-torsion term, and a residual term, and cross-validates the
identity between the residual term and the boundary metric-anomaly class of
the truncated cone, at arbitrary working precision.

Modules: precision (special functions), olver (exact expansion
coefficients), spectrum (base spectra), zeta (continuations), operators
(one-dimensional model problems and oracles), berezin (the anomaly class),
torsion (assembly), verify (quantitative suites), cli (driver).
"""

from .spectrum import BaseManifold, SpectralLine, sphere, torus, read_spectrum_file
from .torsion import TorsionBreakdown, EpsilonReport, cone_torsion, truncated_cone_torsion
from .zeta import MeromorphicPoint, base_torsion, zeta_shifted_residue

__all__ = [
    "BaseManifold", "SpectralLine", "sphere", "torus", "read_spectrum_file",
    "TorsionBreakdown", "EpsilonReport", "cone_torsion", "truncated_cone_torsion",
    "MeromorphicPoint", "base_torsion", "zeta_shifted_residue",
]

__version__ = "0.1.0"
