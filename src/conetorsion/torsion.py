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
and zeta'(0) of the coclosed Laplacian, the residual inner sum).
`torsion_breakdown` computes it once, from one multiplicity polynomial per
degree on spheres, into one `TorsionBreakdown` record, and the report, the
cone and truncated-cone torsions and the difference below all read that
record.  On spheres the data is exact: zeta(0) and the inner sums are
Fractions and zeta'(0) a log form (see `zeta`), so res_spectral and the
log(eps) coefficient below are exact, and tors is rounded once; elsewhere
every summand is a plain number.  A report is approximate exactly when a
piece is missing: only spheres have every piece, so nothing else can make a
report approximate.

With those three numbers the truncated-vs-full difference is an identity,

    log T(trunc, eps) - log T(cone) = res_spectral - top - tors + c log(eps),
    c = -sum_k (-1)^k delta_k zeta(0, ccl_k) + (1/2) sum_k (-1)^k k b_k,

and c, the zeta(0)-against-Betti defect, must vanish; a report prints |c| as
its log(eps) audit and the spread of the difference over the radii.
"""

from __future__ import annotations

from collections import namedtuple
from fractions import Fraction

from . import olver, zeta
from .berezin import CollarMetric, b_class
from .precision import DEFAULT_DPS, context, to_real
from .spectrum import BaseManifold, betti, sphere_multiplicity_polynomial
from .zeta import ApproximateOnlyError


class TorsionBreakdown(namedtuple("TorsionBreakdown", "ctx top tors res_spectral res_anomaly "
                                                      "total headline_gap log_eps")):
    """The three named summands of the cone torsion plus bookkeeping; ctx is the
    working-precision context that the numbers were rounded in.

    total = top + tors + res_anomaly; res_spectral is the independent
    residue-route value of the same term (a Fraction on spheres) and
    headline_gap their distance.  log_eps is c, the log(eps) coefficient of
    the truncated-vs-full difference (a Fraction on spheres).  A piece the
    base lacks is None; c is None unless the base has every spectral piece,
    and only spheres do, so exactly the other bases give approximate reports.
    """

    __slots__ = ()

    @property
    def approximate(self) -> bool:
        return self.log_eps is None

    def difference(self, eps):
        """log T(truncated cone, eps) - log T(cone) = res_spectral - top - tors + c log(eps)."""
        eps = Fraction(eps)
        if not 0 < eps < 1:
            raise ValueError("eps must lie in (0,1)")
        if self.approximate:
            raise ApproximateOnlyError("the torsion difference needs exact zeta'(0, ccl_k) and residues")
        ctx = self.ctx
        res = to_real(self.res_spectral, ctx)
        return res - self.top - self.tors + self.log_eps * ctx.log(to_real(eps, ctx))


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


def residual_inner_sum(M: BaseManifold, k: int, residues):
    """sum_r Res(2r+1) * sum_b g_b psi(b + r + 1/2) for one degree, g = residual_bracket(r, A_k),
    with residues[r - 1] = Res(2r+1) of zeta_{k,N}, r = 1..(n-1)/2.

    At half-integers psi(m + 1/2) = -gamma - 2 log 2 + 2 sum_{j<=m} 1/(2j-1)
    (Abramowitz-Stegun 6.3.4), and the bracket sums to 0 (a tested fact of
    `olver`), so the constant drops out and each psi sum is an exact rational.
    On spheres the residues are Fractions and so is the value; on other bases
    it is their numeric residues times exact rationals.
    """
    A = M.degree(k).A
    acc = 0
    for r, residue in enumerate(residues, 1):
        bracket = olver.residual_bracket(r, A)
        acc += residue * (2 * sum(g * _odd_harmonic(b + r) for b, g in enumerate(bracket)))
    return acc


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
        return (2 * ctx.pi / ctx.sqrt(to_real(M.scale, ctx))) ** M.n
    raise ApproximateOnlyError("file-backed bases carry no metric volume")


def anomaly_integral(M: BaseManifold, P: int = DEFAULT_DPS):
    """rank * integral over N of the boundary anomaly class of the outer cone collar."""
    cm = CollarMetric(M.n, collar_curvature(M), Fraction(-2))
    return M.rank * b_class(cm).value(P) * volume(M, P)


def torsion_breakdown(M: BaseManifold, P: int = DEFAULT_DPS) -> TorsionBreakdown:
    """The breakdown, from each degree's zeta_ccl_at_zero and residual_inner_sum
    computed once, on spheres from one multiplicity polynomial per degree."""
    degrees = range((M.n - 1) // 2 + 1)
    poles = range(1, len(degrees))
    ccl = None
    if M.kind == "sphere":
        mults = [sphere_multiplicity_polynomial(M, k) for k in degrees]
        ccl = [zeta.zeta_ccl_at_zero(M, k, mults[k]) for k in degrees]
        residues = [[zeta.sphere_residue(mult, r) for r in poles] for mult in mults]
    else:
        try:
            residues = [[zeta.zeta_shifted_residue(M, k, r, P) for r in poles] for k in degrees]
        except ApproximateOnlyError:    # a file spectrum has only its leading residue
            residues = None
    inner = None if residues is None else [residual_inner_sum(M, k, residues[k]) for k in degrees]
    top = top_term(M, P)
    tors = None if ccl is None else -zeta.base_torsion(M, [z0p for _z0, z0p in ccl], P) / 2
    # the quarter-weighted residue form; the truncated-cone torsion is twice this
    res_spec = None if inner is None else sum(
        Fraction((-1) ** k, 4) * M.degree(k).delta * value for k, value in enumerate(inner))
    try:
        res_anom = anomaly_integral(M, P) / 2
    except ApproximateOnlyError:
        res_anom = None
    c = None
    if ccl is not None:
        c = sum(-(-1) ** k * M.degree(k).delta * z0 for k, (z0, _z0p) in enumerate(ccl))
        c += Fraction(sum((-1) ** k * k * betti(M, k) for k in range(M.n + 1)), 2)
    ctx = context(P)
    return TorsionBreakdown(
        ctx=ctx,
        top=top,
        tors=tors,
        res_spectral=res_spec,
        res_anomaly=res_anom,
        total=None if tors is None or res_anom is None else top + tors + res_anom,
        headline_gap=None if res_spec is None or res_anom is None
        else abs(res_anom - to_real(res_spec, ctx)),
        log_eps=c,
    )


def cone_torsion(M: BaseManifold, P: int = DEFAULT_DPS) -> TorsionBreakdown:
    """Full breakdown of log T(cone) = top + tors + residual.

    The residual enters the total through the anomaly route; the spectral
    route is recorded alongside with the gap (the headline cross-check).
    """
    bd = torsion_breakdown(M, P)
    if bd.total is None:
        raise ApproximateOnlyError(f"{M.name}: the cone torsion needs an exact continuation")
    return bd


def truncated_cone_torsion(M: BaseManifold, P: int = DEFAULT_DPS):
    """log torsion of the truncated cone, both ways: twice the residual term.

    Returns (spectral, anomaly, gap): the half-weighted residue form
    (epsilon-free, a Fraction on spheres), rank * anomaly-class integral, and
    their distance.
    """
    bd = torsion_breakdown(M, P)
    if bd.headline_gap is None:
        raise ApproximateOnlyError(f"{M.name}: the truncated cone torsion needs residues and a "
                                   "constant-curvature base")
    return 2 * bd.res_spectral, 2 * bd.res_anomaly, 2 * bd.headline_gap


def torsion_difference(M: BaseManifold, eps, P: int = DEFAULT_DPS):
    """log T(truncated cone) - log T(cone) = res_spectral - top - tors + c log(eps)."""
    return torsion_breakdown(M, P).difference(eps)


def torsion_report(M: BaseManifold, P: int = DEFAULT_DPS, eps_list=(Fraction(1, 2), Fraction(1, 4))) -> dict:
    """JSON-ready full report: breakdown plus the epsilon and headline audits."""
    bd = torsion_breakdown(M, P)
    ctx = bd.ctx

    def fmt(x):
        return None if x is None else ctx.nstr(to_real(x, ctx), P, strip_zeros=False)

    out = {"base": M.name, "n": M.n, "rank": M.rank, "precision": P}
    out["breakdown"] = {key: fmt(getattr(bd, key))
                        for key in ("top", "tors", "res_spectral", "res_anomaly", "total")}
    audits = {"headline_gap": fmt(bd.headline_gap)}
    if bd.approximate:
        audits["eps_cancel"] = None
    else:
        diffs = [bd.difference(e) for e in eps_list]
        audits["eps_cancel"] = fmt(max(abs(d - diffs[0]) for d in diffs))
        audits["logeps_audit"] = fmt(abs(bd.log_eps))
    out["audits"] = audits
    out["approximate"] = bd.approximate
    return out
