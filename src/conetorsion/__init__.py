"""Analytic torsion of even-dimensional bounded cones over closed odd bases.

The package evaluates the cone torsion's decomposition into a Betti-number
term, a base-torsion term, and a residual term, and cross-validates the
identity between the residual term and the boundary metric-anomaly class of
the truncated cone, at arbitrary working precision.

Modules: precision (working-precision contexts), olver (exact expansion
coefficients), spectrum (base spectra), zeta (continuations), operators
(one-dimensional model problems and oracles), berezin (the anomaly class),
torsion (assembly), verify (quantitative suites), cli (driver).

The package import registers every module but `cli` in `sys.modules` and as
a package attribute, unrun: a module's code runs at the first read of any of
its attributes, so a command runs only the modules it reads.  The exports in
`__all__` are read from their modules on first use (PEP 562).
"""

import sys
import threading
import types
from importlib.util import find_spec, module_from_spec

_EXPORTS = {
    "BaseManifold": "spectrum", "SpectralLine": "spectrum", "sphere": "spectrum",
    "torus": "spectrum", "read_spectrum_file": "spectrum",
    "TorsionBreakdown": "torsion", "cone_torsion": "torsion", "truncated_cone_torsion": "torsion",
    "base_torsion": "zeta", "zeta_shifted_residue": "zeta",
}
__all__ = list(_EXPORTS)

__version__ = "0.1.0"

# One lock around every first run.  importlib.util.LazyLoader switches the
# class before the module's code has run, so a second thread that reads at
# the same moment finds an empty module; here the class switches after.
_FIRST_RUN = threading.RLock()
_running = set()


class _Unrun(types.ModuleType):
    """A registered module whose code has not run yet."""

    def __getattribute__(self, name):
        spec = types.ModuleType.__getattribute__(self, "__spec__")
        with _FIRST_RUN:
            # while its code runs, this thread reads the module as it stands
            if type(self) is _Unrun and spec.name not in _running:
                _running.add(spec.name)
                try:
                    spec.loader.exec_module(self)
                finally:
                    _running.discard(spec.name)
                types.ModuleType.__setattr__(self, "__class__", types.ModuleType)
        return types.ModuleType.__getattribute__(self, name)

    def __setattr__(self, name, value):
        getattr(self, "__dict__")   # run the code first, so that it does not overwrite the value
        types.ModuleType.__setattr__(self, name, value)


for _name in ("precision", "olver", "spectrum", "zeta", "operators", "berezin", "torsion",
              "verify"):
    _spec = find_spec(f"{__name__}.{_name}")
    sys.modules[_spec.name] = globals()[_name] = module_from_spec(_spec)
    globals()[_name].__class__ = _Unrun
del _name, _spec


def __getattr__(name):
    if name not in _EXPORTS:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(globals()[_EXPORTS[name]], name)


def __dir__():
    return sorted({*globals(), *__all__})
