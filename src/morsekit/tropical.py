"""Support sets, covectors, and the combinatorial data of tropical polynomials.

A covector gamma assigns an exact nonnegative rational coefficient to every
exponent of a support set A, and is read as the tropical polynomial

    F(X) = max_{a in A} (gamma(a) + a*X).

From a sufficiently generic gamma we extract the combinatorial data that
labels the open cone containing it:

  * W    -- the exponents whose monomials attain the maximum somewhere
            (vertices of the upper hull of the lifted points);
  * Z    -- the order of the k tropical roots by the value F takes at them;
  * M^j  -- per root, the remaining exponents ordered by decreasing monomial
            value at that root.

Every comparison is exact rational arithmetic; degeneracies raise typed
errors carrying a witness and are never repaired by perturbation (cones are
open, so interior-point generation belongs to the enumeration layer).
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass, field
from fractions import Fraction
from math import gcd

from .errors import (
    CovectorError,
    DegenerateHull,
    DuplicatePoint,
    MalformedInput,
    NotGenerating,
    RootValueDegenerate,
    SlopeDegenerate,
    TooShort,
    ZeroInSupport,
)
from .rationals import parse_rational, rational_to_json


@dataclass(frozen=True)
class SupportSet:
    """Sorted distinct nonzero integer exponents that affinely generate Z.

    Use :func:`validate_support` to build one from raw input.
    """

    points: tuple[int, ...]
    _position: dict[int, int] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        points = tuple(self.points)
        object.__setattr__(self, "points", points)
        object.__setattr__(self, "_position", {p: i for i, p in enumerate(points)})

    def __len__(self) -> int:
        return len(self.points)

    def __iter__(self):
        return iter(self.points)

    def index(self, p: int) -> int:
        return self._position[p]

    def form(self, terms) -> tuple[int, ...]:
        """Integer linear form on the support from (exponent, coefficient) terms.

        Coefficients of a repeated exponent add up; entries follow the sorted
        support, so the same terms always give the same tuple.
        """
        coeffs = [0] * len(self.points)
        for p, c in terms:
            coeffs[self._position[p]] += c
        return tuple(coeffs)

    @property
    def low(self) -> int:
        return self.points[0]

    @property
    def high(self) -> int:
        return self.points[-1]


def validate_support(raw) -> SupportSet:
    """Check all support-set invariants and return the sorted SupportSet.

    Raises ZeroInSupport, DuplicatePoint, TooShort or NotGenerating.
    """
    points = list(raw)
    if not all(isinstance(p, int) and not isinstance(p, bool) for p in points):
        raise MalformedInput(f"support points must be integers: {points!r}")
    if 0 in points:
        raise ZeroInSupport("0 is not allowed as an exponent")
    if len(set(points)) != len(points):
        dupes = sorted({p for p in points if points.count(p) > 1})
        raise DuplicatePoint(f"repeated exponents: {dupes}")
    points.sort()
    if len(points) < 2 or points[-1] - points[0] < 3:
        raise TooShort(
            f"need at least two exponents spanning a length-3 interval, got {points}"
        )
    g = 0
    for p in points[1:]:
        g = gcd(g, p - points[0])
    if g != 1:
        raise NotGenerating(f"pairwise differences of {points} have gcd {g}")
    return SupportSet(tuple(points))


@dataclass(frozen=True)
class Covector:
    """Exact nonnegative rational coefficients aligned with a support set."""

    support: SupportSet
    values: tuple[Fraction, ...]

    def __post_init__(self):
        vals = tuple(Fraction(v) for v in self.values)
        if len(vals) != len(self.support):
            raise CovectorError(
                f"{len(vals)} values for {len(self.support)} support points"
            )
        if any(v < 0 for v in vals):
            raise CovectorError(f"negative entries not allowed: {vals}")
        object.__setattr__(self, "values", vals)

    def __call__(self, p: int) -> Fraction:
        return self.values[self.support.index(p)]

    def dot(self, coeffs) -> Fraction:
        """Value at this covector of the linear form with these coefficients."""
        return sum((c * v for c, v in zip(coeffs, self.values)), start=Fraction(0))

    def hull_vertices(self) -> list[int]:
        """Strict vertices of the upper hull of the lifted points, left to right.

        Collinear interior points are dropped here; callers that must reject
        them do so with an explicit on-edge check afterwards.
        """
        lifted = zip(reversed(self.support.points), reversed(self.values))
        return [x for x, _ in reversed(_chain(lifted))]

    def scaled(self, factor) -> "Covector":
        factor = Fraction(factor)
        if factor < 0:
            raise CovectorError("scaling factor must be nonnegative")
        return Covector(self.support, tuple(v * factor for v in self.values))

    def is_integral(self) -> bool:
        return all(v.denominator == 1 for v in self.values)

    def to_json(self) -> list:
        return [rational_to_json(v) for v in self.values]


def covector_from_values(support: SupportSet, values) -> Covector:
    """Build a covector from a sequence aligned with the sorted support."""
    return Covector(support, tuple(parse_rational(v) for v in values))


def parse_input_json(obj) -> tuple[SupportSet, Covector | None]:
    """Decode the wire format {"A": [...], "gamma": [...]} exactly.

    "gamma" is optional (enumeration-style commands need only "A"); rational
    entries may be given as "p/q" strings.
    """
    if not isinstance(obj, dict) or "A" not in obj:
        raise MalformedInput('expected a JSON object with an "A" key')
    support = validate_support(obj["A"])
    gamma = None
    if obj.get("gamma") is not None:
        raw = obj["gamma"]
        if not isinstance(raw, list):
            raise MalformedInput('"gamma" must be a list aligned with sorted A')
        gamma = covector_from_values(support, raw)
    return support, gamma


# --- hulls --------------------------------------------------------------------


def _cross(o, a, b):
    return (a[0] - o[0]) * (b[1] - o[1]) - (a[1] - o[1]) * (b[0] - o[0])


def _chain(points) -> list:
    """Monotone chain: the points in the given order that make strict left turns.

    On points sorted by abscissa this is the lower hull, left to right; on
    the reversed order it is the upper hull, right to left.  Collinear points
    are dropped.
    """
    chain: list = []
    for p in points:
        while len(chain) >= 2 and _cross(chain[-2], chain[-1], p) <= 0:
            chain.pop()
        chain.append(p)
    return chain


def convex_hull_2d(points) -> list:
    """Convex hull in counterclockwise order, exact monotone chain.

    Collinear boundary points are dropped from the vertex list.
    """
    pts = sorted(set(map(tuple, points)))
    if len(pts) <= 2:
        return pts
    return _chain(pts)[:-1] + _chain(reversed(pts))[:-1]


def _edge_value(gamma: Covector, u: int, v: int, p: int) -> Fraction:
    """Height of the segment through the lifted points at u and v, at x=p."""
    return (gamma(u) * (v - p) + gamma(v) * (p - u)) / Fraction(v - u)


def upper_hull(support: SupportSet, gamma: Covector) -> list[int]:
    """Exponents whose lifted points are vertices of the upper hull.

    The two base points (a_0, 0) and (a_max, 0) of the Newton polygon cannot
    displace hull membership for nonnegative gamma, so the hull is computed
    over the lifted points alone.  Raises DegenerateHull if some non-vertex
    lifted point lies exactly on a hull edge.
    """
    w = gamma.hull_vertices()
    wset = set(w)
    for p in support.points:
        if p in wset:
            continue
        j = bisect_right(w, p) - 1  # covering edge: w[j] < p < w[j+1]
        u, v = w[j], w[j + 1]
        if gamma(p) == _edge_value(gamma, u, v, p):
            raise DegenerateHull(p, (u, v))
    return w


def roots_and_values(
    support: SupportSet, gamma: Covector, w: list[int]
) -> list[tuple[Fraction, Fraction]]:
    """Tropical roots r_j of consecutive hull edges and the values F(r_j).

    r_j = (gamma(w_j) - gamma(w_{j+1})) / (w_{j+1} - w_j), and the attained
    value is w_j * r_j + gamma(w_j).  Roots come out strictly increasing.
    """
    out = []
    for u, v in zip(w, w[1:]):
        r = (gamma(u) - gamma(v)) / Fraction(v - u)
        out.append((r, u * r + gamma(u)))
    return out


# --- combinatorial data --------------------------------------------------------


@dataclass(frozen=True)
class CombinatorialType:
    """The triple (W, Z, M) naming one full-dimensional cone of covectors."""

    w: tuple[int, ...]
    z: tuple[int, ...]
    m: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        k = len(self.w) - 1
        if k < 1:
            raise ValueError("W needs at least two exponents")
        if sorted(self.z) != list(range(k)):
            raise ValueError(f"Z must be a permutation of 0..{k - 1}: {self.z}")
        if len(self.m) != k:
            raise ValueError(f"expected {k} orderings, got {len(self.m)}")

    @property
    def k(self) -> int:
        return len(self.w) - 1

    def to_json(self) -> dict:
        return {"W": list(self.w), "Z": list(self.z), "M": [list(s) for s in self.m]}


def check_slopes(support: SupportSet, gamma: Covector) -> None:
    """Assert that no two distinct exponent pairs span equal slopes.

    This is the global genericity condition the orderings M^j rely on.  Pairs
    are grouped by exact slope in lexicographic order; the witness is the
    first two pairs of the first group with more than one, which is the first
    tie a scan over all pairs of pairs would meet.
    """
    lifted = list(zip(support.points, gamma.values))
    by_slope: dict[Fraction, list[tuple[int, int]]] = {}
    for i, (p, gp) in enumerate(lifted):
        for q, gq in lifted[i + 1 :]:
            by_slope.setdefault((gq - gp) / (q - p), []).append((p, q))
    for pairs in by_slope.values():
        if len(pairs) > 1:
            raise SlopeDegenerate(pairs[0], pairs[1])


def extract(support: SupportSet, gamma: Covector) -> CombinatorialType:
    """Extract (W, Z, M) from a generic covector.

    Raises DegenerateHull, SlopeDegenerate or RootValueDegenerate when the
    covector sits on a wall between cones.
    """
    w = upper_hull(support, gamma)
    check_slopes(support, gamma)
    rv = roots_and_values(support, gamma, w)
    values = [phi for _, phi in rv]
    for i in range(len(values)):
        for j in range(i + 1, len(values)):
            if values[i] == values[j]:
                raise RootValueDegenerate(i, j, values[i])
    z = tuple(sorted(range(len(values)), key=lambda j: values[j]))
    m = []
    for j, (u, v) in enumerate(zip(w, w[1:])):
        r = rv[j][0]
        others = [p for p in support.points if p != u and p != v]
        # decreasing monomial value at the root; ties are excluded by the
        # slope check above
        others.sort(key=lambda p: gamma(p) + p * r, reverse=True)
        m.append(tuple(others))
    return CombinatorialType(tuple(w), z, tuple(m))


# --- Morse classification ------------------------------------------------------

MORSE = "morse"
MAXWELL = "maxwell"
CAUSTIC = "caustic"
MAXWELL_AND_CAUSTIC = "maxwell_and_caustic"


@dataclass(frozen=True)
class Classification:
    """Outcome of the Morse test, with witnesses for each failing stratum.

    maxwell_witness: (i, j, value) for roots r_i != r_j with F(r_i) = F(r_j).
    caustic_witness: (root, extra_pair) where a second monomial pair ties
    at that root.
    """

    kind: str
    maxwell_witness: tuple | None = None
    caustic_witness: tuple | None = None

    @property
    def is_morse(self) -> bool:
        return self.kind == MORSE

    def to_json(self) -> dict:
        out: dict = {"class": self.kind}
        if self.maxwell_witness is not None:
            i, j, val = self.maxwell_witness
            out["maxwell_witness"] = {
                "roots": [i, j],
                "value": rational_to_json(val),
            }
        if self.caustic_witness is not None:
            root, pair = self.caustic_witness
            out["caustic_witness"] = {
                "root": rational_to_json(root),
                "pair": list(pair),
            }
        return out


def classify(support: SupportSet, gamma: Covector) -> Classification:
    """Sort a covector into Morse / Maxwell / caustic / both.

    Maxwell: two distinct tropical roots share their polynomial value.
    Caustic: at some root, a second pair of monomials (besides the active
    hull pair) attains equal values.  The test is by exhaustive exact
    comparison, so it tolerates covectors on hull walls.
    """
    w = gamma.hull_vertices()
    rv = roots_and_values(support, gamma, w)

    maxwell = None
    for i in range(len(rv)):
        for j in range(i + 1, len(rv)):
            if rv[i][1] == rv[j][1]:
                maxwell = (i, j, rv[i][1])
                break
        if maxwell:
            break

    caustic = None
    pts = support.points
    for j, (r, _) in enumerate(rv):
        active = {w[j], w[j + 1]}
        vals = [(gamma(p) + p * r, p) for p in pts]
        for a in range(len(vals)):
            for b in range(a + 1, len(vals)):
                if vals[a][0] == vals[b][0] and {vals[a][1], vals[b][1]} != active:
                    caustic = (r, (vals[a][1], vals[b][1]))
                    break
            if caustic:
                break
        if caustic:
            break

    if maxwell and caustic:
        return Classification(MAXWELL_AND_CAUSTIC, maxwell, caustic)
    if maxwell:
        return Classification(MAXWELL, maxwell)
    if caustic:
        return Classification(CAUSTIC, caustic_witness=caustic)
    return Classification(MORSE)
