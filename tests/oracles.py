"""Test-only oracles: closed forms that no CLI command reaches.

The tests compare the package's routes against them: the full-cone
determinant ratios and the displayed Bessel-quotient forms of the truncated
ratios check operators.det_ratio_truncated and t_function, and zeta_shifted
evaluates the exact Hurwitz continuation at any s.
"""

from fractions import Fraction

from conetorsion.operators import _bessel_pack
from conetorsion.precision import DEFAULT_DPS, DomainError, context, to_complex, to_real
from conetorsion.spectrum import BaseManifold
from conetorsion.zeta import shifted_zeta_representation


def det_ratio_full_cone(variant: str, nu, A, z, P: int = DEFAULT_DPS):
    """det(L + nu^2 z^2)/det(L) for the four operators on (0,1] (closed forms)."""
    if variant not in ("psi2", "phi2", "psi0", "phi0"):
        raise ValueError("full-cone ratios exist for psi2/phi2/psi0/phi0")
    ctx = context(P)
    nu_m = to_real(nu, P, ctx)
    if nu_m <= 0:
        raise DomainError("full-cone closed forms require nu > 0")
    A_m = to_real(A, P, ctx)
    if z == 0:
        return ctx.mpf(1)
    z_m = to_complex(z, P, ctx)
    w = nu_m * z_m
    I, Ip, K, Kp = _bessel_pack(ctx, nu_m, w)
    if variant in ("psi0", "phi0"):
        val = 2 ** nu_m * ctx.gamma(nu_m + 1) / w ** nu_m * I
        return val.real if val.imag == 0 else val
    s = 1 if variant == "psi2" else -1
    if nu_m + s * A_m == 0:
        raise DomainError("degenerate normalization: nu = -(sigma A)")
    val = (2 ** nu_m * ctx.gamma(nu_m) / (w ** nu_m * (1 + s * A_m / nu_m))
           * (w * Ip + s * A_m * I))
    return val.real if val.imag == 0 else val


def det_ratio_truncated_displayed(variant: str, nu, A, z, eps, P: int = DEFAULT_DPS):
    """The equivalent displayed Bessel-quotient closed forms (cross-check only)."""
    ctx = context(P)
    nu_m = to_real(nu, P, ctx)
    A_m = to_real(A, P, ctx)
    eps_m = to_real(Fraction(eps), P, ctx)
    z_m = to_complex(z, P, ctx)
    w = nu_m * z_m
    I, Ip, K, Kp = _bessel_pack(ctx, nu_m, w)
    Ie, Ipe, Ke, Kpe = _bessel_pack(ctx, nu_m, w * eps_m)
    if variant == "psi2":
        den = (nu_m + A_m) * eps_m ** -nu_m + (nu_m - A_m) * eps_m ** nu_m
        val = (2 * nu_m * (w * Ip + A_m * I) * Ke / den
               * (1 - (w * Kp + A_m * K) / (w * Ip + A_m * I) * Ie / Ke))
    elif variant == "phi2":
        den = (nu_m - A_m) * eps_m ** -nu_m + (nu_m + A_m) * eps_m ** nu_m
        val = (2 * nu_m * (w * Ip - A_m * I) * Ke / den
               * (1 - (w * Kp - A_m * K) / (w * Ip - A_m * I) * Ie / Ke))
    elif variant == "psi0":
        den = (nu_m + A_m) * eps_m ** -nu_m + (nu_m - A_m) * eps_m ** nu_m
        val = (2 * nu_m * (-w * eps_m * Kpe + A_m * Ke) * I / den
               * (1 - K / I * (w * eps_m * Ipe - A_m * Ie) / (w * eps_m * Kpe - A_m * Ke)))
    elif variant == "phi0":
        den = (nu_m - A_m) * eps_m ** -nu_m + (nu_m + A_m) * eps_m ** nu_m
        val = (2 * nu_m * (-w * eps_m * Kpe - A_m * Ke) * I / den
               * (1 - K / I * (w * eps_m * Ipe + A_m * Ie) / (w * eps_m * Kpe + A_m * Ke)))
    else:
        raise ValueError(f"no displayed form for {variant!r}")
    return val.real if val.imag == 0 else val


def zeta_shifted(M: BaseManifold, k: int, s, P: int = DEFAULT_DPS):
    """zeta_{k,N}(s) by the exact continuation (spheres only).

    Other bases raise ApproximateOnlyError; direct_sum_with_tail is their
    partial sum with its tail bound.
    """
    return shifted_zeta_representation(M, k).value(s, P)
