"""Assembly of the cone torsion from base spectral data and the anomaly class.

For an even-dimensional bounded cone over a closed odd-dimensional base N the
log of the scalar analytic torsion (relative boundary conditions) splits into

    top   : sum_{k<=(n-1)/2} ((-1)^k / 2) b_k log(n - 2k + 1),
    tors  : -(1/2) log T(N),
    res   : a residue/digamma combination over the shifted zeta functions,

and the residual term equals (rank/2) times the integral over N of the
boundary anomaly class of the cone collar; the truncated cone's torsion is
twice the residual term and likewise equals rank * integral of the class.
Both routes are computed and their agreement is recorded, never assumed.

Both spectral summands read the same per-degree data of the base (zeta(0)
and zeta'(0) of the coclosed Laplacian, the residual inner sum); a report
computes it once, in `spectral_pass`, from one multiplicity polynomial per
degree, and every assembly step reads it.  On spheres that data is exact:
zeta(0) and the inner sums are Fractions and zeta'(0) a log form (see
`zeta`), so res_spectral and the log(eps) coefficient below are exact, and
tors is rounded once; elsewhere every summand is a plain number.  A report
is approximate exactly when the pass is incomplete: only spheres have a
complete pass, so nothing else can make a report approximate.

With those three numbers the truncated-vs-full difference is an identity,

    log T(trunc, eps) - log T(cone) = res_spectral - top - tors + c log(eps),
    c = -sum_k (-1)^k delta_k zeta(0, ccl_k) + (1/2) sum_k (-1)^k k b_k,

and c, the zeta(0)-against-Betti defect, must vanish; a report prints |c| as
its log(eps) audit and the spread of the difference over the radii.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from . import olver, zeta
from .berezin import CollarMetric, b_class
from .precision import DEFAULT_DPS, context, to_real
from .spectrum import BaseManifold, betti
from .zeta import ApproximateOnlyError


@dataclass(frozen=True)
class TorsionBreakdown:
    """The three named summands of the cone torsion plus bookkeeping.

    total = top + tors + res_anomaly; res_spectral is the independent
    residue-route value of the same term (a Fraction on spheres) and
    headline_gap their distance.
    Inside a report a piece the base lacks is None; cone_torsion raises
    instead of returning such a breakdown.
    """

    top: object
    tors: object
    res_spectral: object
    res_anomaly: object
    total: object
    headline_gap: object


@dataclass(frozen=True)
class SpectralPass:
    """The base's per-degree spectral data for k = 0..(n-1)/2.

    ccl[k] = (zeta(0, ccl_k), zeta'(0, ccl_k)) and inner[k] =
    residual_inner_sum(M, k); either is None when the base has no exact
    continuation (ccl) or no residues (inner) for them.
    """

    ccl: tuple | None
    inner: tuple | None

    @property
    def complete(self) -> bool:
        return self.ccl is not None and self.inner is not None


def top_term(M: BaseManifold, P: int = DEFAULT_DPS):
    """The Betti-number combination sum_{k<=(n-1)/2} ((-1)^k/2) b_k log(n-2k+1)."""
    ctx = context(P)
    acc = ctx.mpf(0)
    for k in range((M.n - 1) // 2 + 1):
        b = betti(M, k)
        if b:
            acc += ctx.mpf((-1) ** k) / 2 * b * ctx.log(M.n - 2 * k + 1)
    return acc


def _odd_harmonic(m: int) -> Fraction:
    """sum_{j<=m} 1/(2j-1): psi(m + 1/2) = -gamma - 2 log 2 + 2 * this (A&S 6.3.4)."""
    return sum((Fraction(1, 2 * j - 1) for j in range(1, m + 1)), Fraction(0))


def residual_inner_sum(M: BaseManifold, k: int, P: int = DEFAULT_DPS,
                       rep: zeta.ZetaRepresentation | None = None):
    """sum_r Res(2r+1) * sum_b g_b psi(b + r + 1/2) for one degree, g = residual_bracket(r, A_k).

    At half-integers psi(m + 1/2) = -gamma - 2 log 2 + 2 sum_{j<=m} 1/(2j-1)
    (Abramowitz-Stegun 6.3.4), so each psi sum is an exact rational plus
    (sum_b g_b)(-gamma - 2 log 2).  The bracket sums to 0 (a tested fact of
    `olver`), and the constant is evaluated only where a residue-weighted sum
    of it is not 0.  On spheres the residues are Fractions, read off `rep`
    (shifted_zeta_representation(M, k), when the caller has it), and so is the
    value; on other bases it is their numeric residues times exact rationals.
    """
    A = M.degree(k).A
    acc = constant = 0
    for r in range(1, (M.n - 1) // 2 + 1):
        residue = zeta.zeta_shifted_residue(M, k, r, P) if rep is None else rep.residue_at(2 * r + 1)
        bracket = olver.residual_bracket(r, A)
        rational = sum(g * _odd_harmonic(b + r) for b, g in enumerate(bracket))
        acc += residue * (2 * rational)
        constant += residue * sum(bracket)
    if constant:
        ctx = context(P)
        acc += constant * (-ctx.euler - 2 * ctx.log(2))
    return acc


def spectral_pass(M: BaseManifold, P: int = DEFAULT_DPS) -> SpectralPass:
    """Compute each degree's zeta_ccl_at_zero and residual_inner_sum once, on
    spheres from one multiplicity polynomial per degree."""
    degrees = range((M.n - 1) // 2 + 1)
    try:
        reps = [zeta.shifted_zeta_representation(M, k) for k in degrees]
        ccl = tuple(zeta.zeta_ccl_at_zero(M, k, P, reps[k]) for k in degrees)
    except ApproximateOnlyError:
        reps, ccl = [None] * len(degrees), None
    try:
        inner = tuple(residual_inner_sum(M, k, P, reps[k]) for k in degrees)
    except ApproximateOnlyError:
        inner = None
    return SpectralPass(ccl, inner)


def residual_term(M: BaseManifold, inner):
    """The residual summand of the cone torsion (the quarter-weighted form) from
    the per-degree residual_inner_sum values, exact when they are; the
    truncated-cone torsion is twice this."""
    return sum(Fraction((-1) ** k, 4) * M.degree(k).delta * value for k, value in enumerate(inner))


def _check_eps(eps) -> Fraction:
    eps = Fraction(eps)
    if not 0 < eps < 1:
        raise ValueError("eps must lie in (0,1)")
    return eps


def log_eps_coefficient(M: BaseManifold, terms: SpectralPass):
    """c = -sum_k (-1)^k delta_k zeta(0, ccl_k) + (1/2) sum_k (-1)^k k b_k, the
    log(eps) coefficient of the torsion difference (zero when zeta(0) matches the
    Betti numbers), exact when the zeta(0) are."""
    c = sum(-(-1) ** k * M.degree(k).delta * z0 for k, (z0, _z0p) in enumerate(terms.ccl))
    return c + Fraction(sum((-1) ** k * k * betti(M, k) for k in range(M.n + 1)), 2)


def _difference(bd: TorsionBreakdown, c, eps: Fraction, ctx):
    res = to_real(bd.res_spectral, ctx=ctx)
    return res - bd.top - bd.tors + c * ctx.log(to_real(eps, ctx=ctx))


def torsion_difference(M: BaseManifold, eps, P: int = DEFAULT_DPS,
                       terms: SpectralPass | None = None):
    """log T(truncated cone) - log T(cone) = res_spectral - top - tors + c log(eps).

    `terms` is the base's spectral pass when the caller has it already.
    """
    eps = _check_eps(eps)
    if terms is None:
        terms = spectral_pass(M, P)
    if not terms.complete:
        raise ApproximateOnlyError(
            f"{M.name}: the torsion difference needs exact zeta'(0, ccl_k) and residues")
    return _difference(_breakdown(M, terms, P), log_eps_coefficient(M, terms), eps, context(P))


def collar_curvature(M: BaseManifold) -> Fraction:
    if M.kind == "sphere":
        return Fraction(1)
    if M.kind == "torus":
        return Fraction(0)
    raise ApproximateOnlyError("the anomaly side needs a constant-curvature base")


def volume(M: BaseManifold, P: int = DEFAULT_DPS):
    """Riemannian volume of the base: 2 pi^((n+1)/2) / ((n-1)/2)! for unit
    spheres, (2 pi / sqrt(scale))^n for cubic tori."""
    ctx = context(P)
    if M.kind == "sphere":
        half = (M.n + 1) // 2
        return 2 * ctx.pi ** half / ctx.factorial(half - 1)
    if M.kind == "torus":
        return (2 * ctx.pi / ctx.sqrt(to_real(M.scale, P, ctx))) ** M.n
    raise ApproximateOnlyError("file-backed bases carry no metric volume")


def anomaly_integral(M: BaseManifold, P: int = DEFAULT_DPS):
    """rank * integral over N of the boundary anomaly class of the outer cone collar."""
    cm = CollarMetric(M.n, collar_curvature(M), Fraction(-2))
    return M.rank * b_class(cm).value(P) * volume(M, P)


def truncated_cone_torsion(M: BaseManifold, P: int = DEFAULT_DPS):
    """log torsion of the truncated cone, both ways.

    Returns (spectral, anomaly, gap): the half-weighted residue form
    (epsilon-free, a Fraction on spheres), rank * anomaly-class integral, and
    their distance.
    """
    inner = [residual_inner_sum(M, k, P) for k in range((M.n - 1) // 2 + 1)]
    spectral = 2 * residual_term(M, inner)
    anomaly = anomaly_integral(M, P)
    return spectral, anomaly, abs(anomaly - to_real(spectral, P))


def _breakdown(M: BaseManifold, terms: SpectralPass, P: int) -> TorsionBreakdown:
    """The breakdown from one spectral pass; a piece the base lacks is None."""
    top = top_term(M, P)
    tors = None
    if terms.ccl is not None:
        tors = -zeta.base_torsion(M, P, [z0p for _z0, z0p in terms.ccl]) / 2
    res_spec = None if terms.inner is None else residual_term(M, terms.inner)
    try:
        res_anom = anomaly_integral(M, P) / 2
    except ApproximateOnlyError:
        res_anom = None
    return TorsionBreakdown(
        top=top,
        tors=tors,
        res_spectral=res_spec,
        res_anomaly=res_anom,
        total=None if tors is None or res_anom is None else top + tors + res_anom,
        headline_gap=None if res_spec is None or res_anom is None
        else abs(res_anom - to_real(res_spec, P)),
    )


def cone_torsion(M: BaseManifold, P: int = DEFAULT_DPS) -> TorsionBreakdown:
    """Full breakdown of log T(cone) = top + tors + residual.

    The residual enters the total through the anomaly route; the spectral
    route is recorded alongside with the gap (the headline cross-check).
    """
    bd = _breakdown(M, spectral_pass(M, P), P)
    if bd.total is None:
        raise ApproximateOnlyError(f"{M.name}: the cone torsion needs an exact continuation")
    return bd


def torsion_report(M: BaseManifold, P: int = DEFAULT_DPS, eps_list=(Fraction(1, 2), Fraction(1, 4))) -> dict:
    """JSON-ready full report: breakdown plus the epsilon and headline audits."""
    ctx = context(P)

    def fmt(x):
        return None if x is None else ctx.nstr(to_real(x, P, ctx), P, strip_zeros=False)

    out = {"base": M.name, "n": M.n, "rank": M.rank, "precision": P}
    terms = spectral_pass(M, P)
    bd = _breakdown(M, terms, P)
    out["breakdown"] = {key: fmt(getattr(bd, key))
                        for key in ("top", "tors", "res_spectral", "res_anomaly", "total")}
    audits = {"headline_gap": fmt(bd.headline_gap)}
    if not terms.complete:
        audits["eps_cancel"] = None
    else:
        c = log_eps_coefficient(M, terms)
        diffs = [_difference(bd, c, _check_eps(e), ctx) for e in eps_list]
        audits["eps_cancel"] = fmt(max(abs(d - diffs[0]) for d in diffs))
        audits["logeps_audit"] = fmt(abs(c))
    out["audits"] = audits
    out["approximate"] = not terms.complete
    return out
