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

import json
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from itertools import combinations
from math import gcd, lcm
from operator import mul

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
from .rationals import common_denominator, parse_rational, rational_to_json


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

    Raises MalformedInput, ZeroInSupport, DuplicatePoint, TooShort or NotGenerating.
    """
    try:
        points = list(raw)
    except TypeError:  # a number, null or a bool
        raise MalformedInput(f"support must be a list, not {type(raw).__name__}") from None
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
    """Exact nonnegative rational coefficients aligned with a support set.

    The one way values reach the kernels, checked once here: CovectorError on
    a bool, a non-integral float, a wrong length or a negative entry.  Each
    value is an int or a Fraction, and an int given stays an int, so an
    integer covector computes in ints (mind that `/` on two ints is a float).
    """

    support: SupportSet
    values: tuple[int | Fraction, ...]

    def __post_init__(self):
        values = self.values
        # a tuple of ints is exact as it is; a bool, whose type is not int,
        # still meets `_exact`, which refuses it
        if type(values) is not tuple or not all(type(v) is int for v in values):
            values = tuple(_exact(v) for v in values)
        if len(values) != len(self.support):
            raise CovectorError(
                f"{len(values)} values for {len(self.support)} support points"
            )
        if any(v < 0 for v in values):
            wire = json.dumps([rational_to_json(v) for v in values])
            raise CovectorError(f"negative entries not allowed: {wire}")
        object.__setattr__(self, "values", values)

    def __call__(self, p: int) -> int | Fraction:
        return self.values[self.support._position[p]]

    @cached_property
    def _cleared(self) -> tuple[tuple[int, ...], int, bool]:
        # the values as integer numerators over one common denominator, and
        # whether every value is an int (then they are their own numerators)
        if all(isinstance(v, int) for v in self.values):
            return self.values, 1, True
        scale = common_denominator(self.values)
        numerators = tuple(v.numerator * (scale // v.denominator) for v in self.values)
        return numerators, scale, False

    def dot(self, coeffs) -> int | Fraction:
        """Value at this covector of the linear form with these coefficients.

        The denominators are cleared once per covector, so integer
        coefficients sum as integers.  On a covector of ints the sum is the
        value, an int for int coefficients; otherwise one Fraction is built
        at the end, even when every denominator is 1.
        """
        return self.from_cleared(sum(map(mul, coeffs, self._cleared[0])))

    def from_cleared(self, total) -> int | Fraction:
        """A linear form's value here, in the type `dot` gives, from `total`,
        its value at this covector times its common denominator."""
        _, scale, ints = self._cleared
        return total if ints else Fraction(total, scale)

    @cached_property
    def _hull_vertices(self) -> tuple[int, ...]:
        lifted = zip(reversed(self.support.points), reversed(self.values))
        return tuple(x for x, _ in reversed(_chain(lifted)))

    def hull_vertices(self) -> list[int]:
        """Strict vertices of the upper hull of the lifted points, left to right.

        Collinear interior points are dropped here; callers that must reject
        them do so with an explicit on-edge check afterwards.  The hull is
        computed once per covector; each call returns a fresh list.
        """
        return list(self._hull_vertices)

    def scaled(self, factor) -> "Covector":
        """This covector times `factor`; an int factor keeps int values ints."""
        factor = _exact(factor)
        if factor < 0:
            raise CovectorError("scaling factor must be nonnegative")
        return Covector(self.support, tuple(v * factor for v in self.values))

    def is_integral(self) -> bool:
        return self._cleared[1] == 1

    def to_json(self) -> list:
        return [rational_to_json(v) for v in self.values]


def _exact(v) -> int | Fraction:
    if isinstance(v, bool) or (isinstance(v, float) and not v.is_integer()):
        raise CovectorError(f"not an exact value: {v!r}")  # as in parse_rational
    return v if isinstance(v, (int, Fraction)) else Fraction(v)


def check_support(support: SupportSet, gamma: Covector) -> None:
    """Raise CovectorError unless `gamma` was built on `support`.

    Each kernel that reads a support next to a covector calls this first;
    the usual caller passes the covector's own support, which costs one `is`.
    """
    if gamma.support is not support and gamma.support != support:
        raise CovectorError(
            f"covector on {list(gamma.support.points)} given with support "
            f"{list(support.points)}"
        )


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


def upper_hull(support: SupportSet, gamma: Covector) -> list[int]:
    """The covector's hull vertices (`Covector.hull_vertices`), left to right;
    DegenerateHull when a non-vertex p over edge (u, v) has g(p)(v - u) ==
    g(u)(v - p) + g(v)(p - u).  The base points (a_0, 0), (a_max, 0) of the
    Newton polygon cannot displace hull membership for nonnegative gamma."""
    check_support(support, gamma)
    w = gamma.hull_vertices()
    hull = [(p, gamma(p)) for p in w]
    edges = zip(hull, hull[1:])
    (u, gu), (v, gv) = next(edges)
    for p, gp in zip(support.points[1:-1], gamma.values[1:-1]):
        if p == v:
            (u, gu), (v, gv) = next(edges)
        elif gp * (v - u) == gu * (v - p) + gv * (p - u):
            raise DegenerateHull(p, (u, v))
    return w


def _root_table(gamma: Covector, w) -> tuple[int, list, list]:
    """The one root formula: L, the lcm of the widths of the edges (u, v) of
    w, then per edge L r_j = (g(u) - g(v)) (L // (v - u)) and L F(r_j) =
    g(u) L + u L r_j; nothing is divided, so ints stay ints."""
    edges = list(zip(w, w[1:]))
    scale = lcm(*(v - u for u, v in edges))
    rises = [(gamma(u) - gamma(v)) * (scale // (v - u)) for u, v in edges]
    return scale, rises, [gamma(u) * scale + r * u for (u, _), r in zip(edges, rises)]


def roots_and_values(
    support: SupportSet, gamma: Covector, w: list[int]
) -> list[tuple[Fraction, Fraction]]:
    """Tropical roots r_j of consecutive hull edges and the values F(r_j).

    r_j = (gamma(w_j) - gamma(w_{j+1})) / (w_{j+1} - w_j), and the attained
    value is w_j * r_j + gamma(w_j), as Fractions from `_root_table`.  Roots
    come out strictly increasing.
    """
    check_support(support, gamma)
    scale, rises, values = _root_table(gamma, w)
    return [(Fraction(r, scale), Fraction(phi, scale)) for r, phi in zip(rises, values)]


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


def slope_groups(points, values) -> list[list[tuple[int, int]]]:
    """The exponent pairs (p, q), p < q, grouped by the slope they span.

    `values` are aligned with the sorted `points`.  Two pairs share a group
    exactly when (g(q) - g(p)) / (q - p) is equal; the key is that slope
    times the lcm L of all exponent gaps, (g(q) - g(p)) (L // (q - p)), so
    integer values are grouped in integers and Fractions as Fractions.
    Groups come in order of first appearance, pairs in lexicographic order.
    """
    pairs = list(combinations(zip(points, values), 2))
    scale = lcm(*(q - p for (p, _), (q, _) in pairs))
    groups: dict = {}
    for (p, gp), (q, gq) in pairs:
        groups.setdefault((gq - gp) * (scale // (q - p)), []).append((p, q))
    return list(groups.values())


def check_slopes(support: SupportSet, gamma: Covector) -> None:
    """Assert that no two distinct exponent pairs span equal slopes.

    This is the global genericity condition the orderings M^j rely on.  The
    witness is the first two pairs of the first group of `slope_groups` with
    more than one, which is the first tie a scan over all pairs of pairs in
    lexicographic order would meet.
    """
    check_support(support, gamma)
    for pairs in slope_groups(support.points, gamma.values):
        if len(pairs) > 1:
            raise SlopeDegenerate(pairs[0], pairs[1])


def _first_equal_pair(values) -> tuple[int, int, Fraction] | None:
    """The first (i, j), i < j lexicographically, with equal values, and the value."""
    for i, j in combinations(range(len(values)), 2):
        if values[i] == values[j]:
            return i, j, values[i]
    return None


def extract(support: SupportSet, gamma: Covector) -> CombinatorialType:
    """Extract (W, Z, M) from a generic covector.

    Nothing is divided, so a covector of ints is worked in ints: root values
    compare by `_root_table`'s L F(r_j), and M^j sorts by g(p) L + p L r_j,
    L times monomial p's value at root j.  Raises DegenerateHull,
    SlopeDegenerate or RootValueDegenerate, in that order.
    """
    w = upper_hull(support, gamma)
    check_slopes(support, gamma)
    scale, rises, keys = _root_table(gamma, w)
    tie = _first_equal_pair(keys)
    if tie is not None:
        raise RootValueDegenerate(*tie[:2], Fraction(tie[2], scale))
    z = tuple(sorted(range(len(keys)), key=keys.__getitem__))
    scaled = {p: gp * scale for p, gp in zip(support.points, gamma.values)}
    m = []
    for u, v, rise in zip(w, w[1:], rises):
        # decreasing monomial value at the root; the slope check excludes ties
        key = {p: gp + rise * p for p, gp in scaled.items() if p != u and p != v}
        m.append(tuple(sorted(key, key=key.__getitem__, reverse=True)))
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
    roots_and_values: the (r_j, F(r_j)) pairs the test read; not compared.
    """

    kind: str
    maxwell_witness: tuple | None = None
    caustic_witness: tuple | None = None
    roots_and_values: tuple = field(default=(), compare=False, repr=False)

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
    hull pair) attains equal values, that is, spans the slope of that root's
    hull edge; the witness is the first other pair in the edge's group of
    `slope_groups`.  The test is exact and tolerates covectors on hull walls.
    The result keeps the `roots_and_values` it read, for a caller that
    prints them too.
    """
    w = gamma.hull_vertices()
    rv = roots_and_values(support, gamma, w)
    maxwell = _first_equal_pair([phi for _, phi in rv])
    groups = slope_groups(support.points, gamma.values)
    group_of = {pair: pairs for pairs in groups for pair in pairs}
    ties = (
        (r, pair)
        for (r, _), edge in zip(rv, zip(w, w[1:]))
        for pair in group_of[edge]
        if pair != edge
    )
    caustic = next(ties, None)

    if maxwell:
        kind = MAXWELL_AND_CAUSTIC if caustic else MAXWELL
    else:
        kind = CAUSTIC if caustic else MORSE
    return Classification(kind, maxwell, caustic, tuple(rv))
