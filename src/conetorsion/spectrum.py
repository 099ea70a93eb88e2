"""Coclosed form spectra and Betti numbers of the supported base manifolds.

Supported bases: round unit spheres S^n (odd n), flat cubic tori T^n (odd n,
eigenvalue scale c0 = (2*pi/L)^2 rational), and user-supplied spectrum files.
All spectral data is exact: sphere eigenvalues and multiplicities come from
the Weyl dimension formula for the rotation group, torus data from lattice
counting, file data verbatim.

For a base of odd dimension n and form degree k, the shifted frequencies are
nu = sqrt(eta + A_k^2) with A_k = (n-1)/2 - k.  On the round sphere the shift
completes the square: nu = j + (n-1)/2 for every degree, with polynomial
multiplicities, which is what makes the exact zeta continuation downstream
possible.

Sphere multiplicities are not taken from a table: for degree k and twin index
k' = min(k, n-1-k) they are the Weyl dimension of the rotation-group
representation with highest weight (j, 1, ..., 1, 0, ..., 0) (k' ones),
doubled at the middle degree k' = (n-1)/2 where two mirror representations
contribute.  Off-by-one conventions are guarded by the duality, Weyl-count
and classical-function-spectrum checks in the test suite.

Spectrum file format (line oriented, '#' comments allowed):

    dim=n rank=R
    betti=b_0,...,b_n
    k,eta,mult

with eta in decimal or p/q rational text.  Round trips are exact.
"""

from __future__ import annotations

import math
from collections import namedtuple
from decimal import Decimal, InvalidOperation
from fractions import Fraction
from pathlib import Path

from . import olver


class UnsupportedManifoldError(ValueError):
    pass


class MalformedSpectrumFile(ValueError):
    pass


# Fraction(text) builds 10^|e| before any budget can see the number: 1e-9999999
# took 9 s, and the cost grows faster than |e|.  Past this exponent a decimal
# number is refused at once.
MAX_EXPONENT = 10 ** 6


class ExponentOutOfRange(ValueError):
    """A decimal number whose exponent is beyond MAX_EXPONENT in size."""


def parse_fraction(text: str) -> Fraction:
    """Fraction(text), with the exponent of a decimal number read first, from its text."""
    mantissa, e, tail = text.strip().lower().partition("e")
    try:
        exponent = Decimal(mantissa).adjusted() + (int(tail) if e else 0)
    except (InvalidOperation, ValueError):
        exponent = 0    # not a decimal number (p/q, or none at all): Fraction names the fault
    if abs(exponent) > MAX_EXPONENT:
        raise ExponentOutOfRange(f"{text!r} has a decimal exponent beyond 10^6 in size")
    return Fraction(text)


class SpectralLine(namedtuple("SpectralLine", "k eta mult")):
    """One eigenvalue of the coclosed form Laplacian: degree, eigenvalue, multiplicity."""

    __slots__ = ()

    def __new__(cls, k: int, eta: Fraction, mult: int):
        if eta <= 0:
            raise ValueError("coclosed spectral lines carry eta > 0 (zero modes are excluded)")
        if mult <= 0:
            raise ValueError("multiplicity must be a positive integer")
        return tuple.__new__(cls, (k, eta, mult))


class DegreeData(namedtuple("DegreeData", "k n")):
    """Shift and weight data attached to a form degree on an n-dimensional base."""

    __slots__ = ()

    @property
    def A(self) -> Fraction:
        return Fraction(self.n - 1, 2) - self.k

    @property
    def delta(self) -> Fraction:
        return Fraction(1, 2) if 2 * self.k == self.n - 1 else Fraction(1)


class BaseManifold(namedtuple("BaseManifold", "kind n rank scale lines betti_raw label")):
    """Descriptor of a supported base: named family plus parameters.

    kind: 'sphere' | 'torus' | 'file'
    n: odd dimension; rank: rank of the trivial flat bundle (scales
    multiplicities and Betti numbers); scale: torus eigenvalue scale
    c0 = (2*pi/L)^2; lines/betti: file-backed data.
    """

    __slots__ = ()

    def __new__(cls, kind: str, n: int, rank: int = 1, scale: Fraction = Fraction(1),
                lines: tuple = (), betti_raw: tuple = (), label: str = ""):
        if n < 1 or n % 2 == 0:
            raise UnsupportedManifoldError(f"base dimension must be odd and >= 1, got {n}")
        if rank < 1:
            raise UnsupportedManifoldError("bundle rank must be a positive integer")
        if kind not in ("sphere", "torus", "file"):
            raise UnsupportedManifoldError(f"unknown base manifold kind {kind!r}")
        if kind == "sphere" and n > 7:
            raise UnsupportedManifoldError("round spheres are supported for odd n <= 7")
        return tuple.__new__(cls, (kind, n, rank, scale, lines, betti_raw, label))

    @property
    def name(self) -> str:
        """The shortest `--base` spec that reads back to this base, e.g. torus:3:1:4.

        A scale text longer than 20 characters is rounded to 17 digits in float style (1e-300).
        """
        if self.label:
            return self.label
        if self.kind == "file":
            return "file"
        num, den = self.scale.numerator, self.scale.denominator
        # 128 bits of numerator and denominator print as more than 20 characters, so a
        # longer scale is never written out whole (Python refuses past 4300 digits)
        if num.bit_length() + den.bit_length() <= 128 and len(str(self.scale)) <= 20:
            scale = str(self.scale)
        else:
            scale = _float_style(num, den)
        fields = [self.kind, str(self.n), str(self.rank), scale]
        while len(fields) > 2 and fields[-1] == "1":
            fields.pop()
        return ":".join(fields)

    def degree(self, k: int) -> DegreeData:
        return DegreeData(k, self.n)


def _float_style(num: int, den: int) -> str:
    """num/den > 0 rounded half-even to 17 significant digits, as Decimal prints it (1e-300).

    Integer arithmetic: Decimal's own division of a million-digit den takes seconds.
    """
    k = 19 - math.floor((num.bit_length() - den.bit_length()) * math.log10(2))
    q, r = divmod(num * 10 ** k, den) if k >= 0 else divmod(num, den * 10 ** -k)
    drop = len(str(q)) - 17     # q has 19 to 21 digits
    q, tail = divmod(q, 10 ** drop)
    half = 5 * 10 ** (drop - 1)
    if tail > half or tail == half and (r or q % 2):
        q += 1
    exp = drop - k
    while q % 10 == 0:
        q, exp = q // 10, exp + 1
    return str(Decimal(f"{q}e{exp}")).lower()


def sphere(n: int, rank: int = 1) -> BaseManifold:
    return BaseManifold("sphere", n, rank)


def torus(n: int, rank: int = 1, scale=Fraction(1)) -> BaseManifold:
    scale = Fraction(scale)
    if scale <= 0:
        raise UnsupportedManifoldError("torus eigenvalue scale must be positive")
    return BaseManifold("torus", n, rank, scale=scale)


# ---------------------------------------------------------------------------
# Betti numbers


def betti(M: BaseManifold, k: int) -> int:
    """Betti number of degree k, times the bundle rank."""
    if not 0 <= k <= M.n:
        raise ValueError(f"degree k must lie in 0..{M.n}")
    if M.kind == "sphere":
        return M.rank if k in (0, M.n) else 0
    if M.kind == "torus":
        return M.rank * math.comb(M.n, k)
    return M.betti_raw[k]


# ---------------------------------------------------------------------------
# Round spheres: Weyl dimension formula for the coclosed eigenspaces


def sphere_multiplicity_polynomial(M: BaseManifold, k: int) -> olver.Polynomial:
    """Multiplicity as an exact polynomial in x = nu = j + (n-1)/2 (spheres only).

    Even in x; valid for j >= 1, i.e. x >= (n+1)/2.
    """
    if M.kind != "sphere":
        raise UnsupportedManifoldError("multiplicity polynomials exist for spheres only")
    n = M.n
    if k >= n:
        return olver.Polynomial({}, 1)
    if n == 1:
        return olver.Polynomial({(0,): 2 * M.rank})
    m = (n + 1) // 2
    kp = min(k, n - 1 - k)
    lam_tail = [1] * kp + [0] * (m - 1 - kp)
    rho = [m - 1 - i for i in range(m)]
    l_tail = [lam_tail[i - 1] + rho[i] for i in range(1, m)]
    # l_1 = j + m - 1 = x; dimension = prod_i (x^2 - l_i^2) * prod_{i<j tail} (...) / denom
    poly = olver.Polynomial({(0,): 1})
    for li in l_tail:
        poly = poly * olver.Polynomial({(2,): 1, (0,): -(li ** 2)})
    num_tail = Fraction(1)
    den = Fraction(1)
    for i in range(len(l_tail)):
        for jj in range(i + 1, len(l_tail)):
            num_tail *= Fraction(l_tail[i] ** 2 - l_tail[jj] ** 2)
    for i in range(m):
        for jj in range(i + 1, m):
            den *= Fraction(rho[i] ** 2 - rho[jj] ** 2)
    scale = num_tail / den * M.rank
    if kp == (n - 1) // 2:
        scale *= 2
    return poly.scale(scale)


# A line costs about 40 microseconds, so this many take under a minute.
_MAX_SPHERE_LINES = 10 ** 6


def _sphere_lines(M: BaseManifold, k: int, cutoff: Fraction) -> list:
    n = M.n
    if k >= n:
        return []
    mult = sphere_multiplicity_polynomial(M, k)     # carries the rank
    out = []
    c = Fraction(n - 1, 2)
    j = 1
    while j + c <= cutoff:
        eta = Fraction((j + k) * (j + n - 1 - k))
        d = mult.substitute(0, j + c)
        if d.denominator != 1:
            raise RuntimeError(f"non-integer multiplicity for n={n}, k={k}, j={j}: {d}")
        out.append(SpectralLine(k, eta, int(d)))
        j += 1
    return out


# ---------------------------------------------------------------------------
# Flat cubic tori


# The count keeps lists of qmax + 1 entries and takes about (n - 1) qmax^1.5
# steps of 1e-8 to 1e-7 s each; a count past this many steps is refused.  That
# allows qmax = 29,240 at n = 3 and 14,057 at n = 7, under a second each.
_MAX_LATTICE_STEPS = 10 ** 7


def _max_lattice_norm(n: int) -> int:
    """The largest qmax whose count in dimension n fits in _MAX_LATTICE_STEPS steps.

    At n = 1 there is no convolution round, and only the list length is capped.
    """
    return 10 ** 6 if n == 1 else int((_MAX_LATTICE_STEPS / (n - 1)) ** (2 / 3))


def _sum_of_squares_counts(n: int, qmax: int) -> list:
    """counts[q] = #{m in Z^n : |m|^2 = q} for q = 0..qmax, by convolution."""
    squares = [(j * j, 2 if j else 1) for j in range(math.isqrt(qmax) + 1)]
    counts = [0] * (qmax + 1)
    for q, c in squares:
        counts[q] = c
    for _ in range(n - 1):
        nxt = [0] * (qmax + 1)
        for q1, c1 in enumerate(counts):
            if c1 == 0:
                continue
            for q2, c2 in squares:
                if q1 + q2 > qmax:
                    break
                nxt[q1 + q2] += c1 * c2
        counts = nxt
    return counts


def _torus_lines(M: BaseManifold, degrees, cutoff: Fraction) -> list:
    """The lines of each degree in turn.  Degree k needs the norms q = |m|^2 up to
    (cutoff^2 - A_k^2) / scale; one lattice count runs to the largest of these
    (the middle degree's, A = 0, for a whole spectrum) and each degree slices it.
    """
    n = M.n
    qmax = {}
    for k in degrees:
        A2 = DegreeData(k, n).A ** 2
        # coclosed n-forms with positive eigenvalue do not exist
        if k < n and cutoff ** 2 > A2:
            qmax[k] = int((cutoff ** 2 - A2) / M.scale)
    if not qmax:
        return []
    qtop = max(qmax.values())
    limit = _max_lattice_norm(n)
    if qtop > limit:
        raise UnsupportedManifoldError(
            f"{M.name}: the cutoff needs lattice norms |m|^2 up to about 2^{qtop.bit_length()}, "
            f"beyond the {limit} that the lattice count supports in dimension {n}")
    counts = _sum_of_squares_counts(n, qtop)
    out = []
    for k, top in qmax.items():
        per_point = M.rank * math.comb(n - 1, k)
        out += [SpectralLine(k, M.scale * q, counts[q] * per_point)
                for q in range(1, top + 1) if counts[q]]
    return out


# ---------------------------------------------------------------------------
# Public spectral interface


def coclosed_spectrum(M: BaseManifold, degrees, cutoff) -> list:
    """The coclosed spectral lines of each of the given degrees k in turn, those
    with nu = sqrt(eta + A_k^2) <= cutoff, each degree's ordered by eigenvalue.

    Cutoff is inclusive; ties are included.  A torus counts its lattice once.
    """
    if any(not 0 <= k <= M.n for k in degrees):
        raise ValueError(f"degree k must lie in 0..{M.n}")
    cutoff = Fraction(cutoff)
    if cutoff <= 0:
        raise ValueError("cutoff must be positive")
    if M.kind == "torus":
        return _torus_lines(M, degrees, cutoff)
    if M.kind == "sphere":
        count = sum(k < M.n for k in degrees) * max(0, math.floor(cutoff - Fraction(M.n - 1, 2)))
        if count > _MAX_SPHERE_LINES:
            raise UnsupportedManifoldError(
                f"{M.name}: the cutoff gives about 2^{count.bit_length()} spectral lines, "
                f"beyond the {_MAX_SPHERE_LINES} that a sphere spectrum supports")
        return [ln for k in degrees for ln in _sphere_lines(M, k, cutoff)]
    return sorted((ln for ln in M.lines
                   if ln.k in degrees and ln.eta + DegreeData(ln.k, M.n).A ** 2 <= cutoff ** 2),
                  key=lambda ln: (ln.k, ln.eta))


def nu_stream(M: BaseManifold, k: int, cutoff) -> list:
    """(nu, multiplicity) pairs for degree k up to the cutoff.

    nu is exact (Fraction) whenever eta + A_k^2 is a perfect rational square,
    else a float good to double precision (file- and torus-backed bases).
    """
    A2 = DegreeData(k, M.n).A ** 2
    out = []
    for ln in coclosed_spectrum(M, (k,), cutoff):
        s = ln.eta + A2
        rn, rd = math.isqrt(s.numerator), math.isqrt(s.denominator)
        exact = rn * rn == s.numerator and rd * rd == s.denominator
        out.append((Fraction(rn, rd) if exact else math.sqrt(float(s)), ln.mult))
    return out


# ---------------------------------------------------------------------------
# Spectrum files


def spectrum_text(M: BaseManifold, cutoff) -> str:
    lines = [f"dim={M.n} rank={M.rank}"]
    lines.append("betti=" + ",".join(str(betti(M, k)) for k in range(M.n + 1)))
    for ln in coclosed_spectrum(M, range(M.n + 1), cutoff):
        lines.append(f"{ln.k},{_format_rational(ln.eta)},{ln.mult}")
    return "\n".join(lines) + "\n"


def read_spectrum_file(path) -> BaseManifold:
    path = Path(path)
    try:
        text = path.read_text()
    except OSError as exc:
        raise MalformedSpectrumFile(f"cannot read {path}: {exc}") from exc
    n = rank = None
    bett = None
    lines = []
    for lineno, raw in enumerate(text.splitlines(), 1):
        s = raw.split("#", 1)[0].strip()
        if not s:
            continue
        if s.startswith("dim="):
            try:
                head = dict(part.split("=", 1) for part in s.split())
                n = int(head["dim"])
                rank = int(head["rank"])
            except Exception as exc:
                raise MalformedSpectrumFile(f"{path}:{lineno}: bad header {s!r}") from exc
            continue
        if s.startswith("betti="):
            try:
                bett = tuple(int(b) for b in s[len("betti="):].split(","))
            except ValueError as exc:
                raise MalformedSpectrumFile(f"{path}:{lineno}: bad betti line {s!r}") from exc
            if min(bett) < 0:
                raise MalformedSpectrumFile(f"{path}:{lineno}: negative Betti number in {s!r}")
            continue
        parts = s.split(",")
        if len(parts) != 3:
            raise MalformedSpectrumFile(f"{path}:{lineno}: expected 'k,eta,mult', got {s!r}")
        try:
            line = SpectralLine(int(parts[0]), _parse_rational(parts[1]), int(parts[2]))
            float(line.eta)     # the Weyl fit and nu_stream work in floats
        except OverflowError as exc:
            raise MalformedSpectrumFile(
                f"{path}:{lineno}: eta {parts[1].strip()} is too large for a float") from exc
        except ValueError as exc:
            raise MalformedSpectrumFile(f"{path}:{lineno}: {exc}") from exc
        lines.append((lineno, line))
    if n is None or bett is None:
        raise MalformedSpectrumFile(f"{path}: missing 'dim=' header or 'betti=' line")
    if len(bett) != n + 1:
        raise MalformedSpectrumFile(f"{path}: betti line must carry {n + 1} entries")
    for lineno, ln in lines:
        # coclosed n-forms with positive eigenvalue do not exist
        if not 0 <= ln.k < n:
            raise MalformedSpectrumFile(f"{path}:{lineno}: degree {ln.k} outside 0..{n - 1}")
    lines = tuple(ln for _lineno, ln in lines)
    return BaseManifold("file", n, rank, lines=lines, betti_raw=bett,
                        label=f"file:{path.name}")


def _parse_rational(s: str) -> Fraction:
    s = s.strip()
    if "/" in s:
        num, den = s.split("/")
        if int(den) == 0:
            raise ValueError(f"zero denominator in {s!r}")
        return Fraction(int(num), int(den))
    return parse_fraction(s)


def _format_rational(q: Fraction) -> str:
    """Exact decimal text when the denominator is 2^a 5^b, else p/q."""
    den = q.denominator
    d2 = d5 = 0
    while den % 2 == 0:
        den //= 2
        d2 += 1
    while den % 5 == 0:
        den //= 5
        d5 += 1
    if den != 1:
        return f"{q.numerator}/{q.denominator}"
    shift = max(d2, d5)
    scaled = q * 10 ** shift
    assert scaled.denominator == 1
    if shift == 0:
        return str(scaled.numerator)
    digits = str(abs(scaled.numerator)).rjust(shift + 1, "0")
    sign = "-" if scaled.numerator < 0 else ""
    return f"{sign}{digits[:-shift]}.{digits[-shift:]}"
