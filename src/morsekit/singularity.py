"""Gcd ladders, fork-sequence Euler characteristics, and correction sums.

Each hull edge j carries a correction term C^j, a linear form in gamma that
accounts for the non-transversal branch crossings sitting over that edge.
Two independent routes compute it:

  * the gcd-ladder route: accumulate gcds along the ordering M^j and weight
    each monomial by the drop in the ladder;
  * the level route: slide the edge's facet hyperplane through the lifted
    support one lattice level at a time, tracking the gcd of the first
    coordinates swept up so far.  The gcd changes only at levels that hold
    a lifted point, so the sequence is kept as runs of equal entries, and
    the scan's cost does not grow with gamma's entries.

The routes must agree exactly; the verify machinery compares them on every
sampled covector and surfaces any discrepancy instead of reconciling it.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd

from .errors import NonIntegerCovector
from .rationals import common_denominator
from .tropical import CombinatorialType, Covector, SupportSet, check_support


def gcd_ladder(w: tuple[int, ...], j: int, m_j: tuple[int, ...]) -> tuple[int, ...]:
    """Ladder b_0 = gcd(w_j, w_{j+1}), b_l = gcd(b_{l-1}, m_l) along M^j.

    Returns all |M^j| + 1 entries; affine generation forces the tail to 1.
    """
    b = gcd(abs(w[j]), abs(w[j + 1]))
    ladder = [b]
    for m in m_j:
        b = gcd(b, abs(m))
        ladder.append(b)
    return tuple(ladder)


def drop_key(ctype: CombinatorialType) -> CombinatorialType:
    """The type with each M^j cut down to the elements its ladder drops at.

    `c_coeffs` weights the other elements by a zero drop, so the key has the
    same vertex as the type; the key of a key is itself.
    """
    m = []
    for j, m_j in enumerate(ctype.m):
        ladder = gcd_ladder(ctype.w, j, m_j)
        m.append(tuple(p for p, b, c in zip(m_j, ladder, ladder[1:]) if b != c))
    return CombinatorialType(ctype.w, ctype.z, tuple(m))


def c_coeffs(
    support: SupportSet, ctype: CombinatorialType, j: int
) -> tuple[int, ...]:
    """Integer coefficients of the linear form C^j on the support.

    Monomial m at ladder step l contributes (b_{l-1} - b_l) times
    (d_j on gamma(m), (m - w_{j+1}) on gamma(w_j), (w_j - m) on gamma(w_{j+1})).
    The vector is zero whenever gcd(w_j, w_{j+1}) = 1.
    """
    w, m_j = ctype.w, ctype.m[j]
    wj, wj1 = w[j], w[j + 1]
    ladder = gcd_ladder(w, j, m_j)
    terms = []
    for l, m in enumerate(m_j, start=1):
        drop = ladder[l - 1] - ladder[l]
        if drop:
            terms += [
                (m, (wj1 - wj) * drop),
                (wj, (m - wj1) * drop),
                (wj1, (wj - m) * drop),
            ]
    return support.form(terms)


def c_value(
    support: SupportSet, gamma: Covector, ctype: CombinatorialType, j: int
) -> int | Fraction:
    """C^j evaluated at gamma (dot product of c_coeffs with the values).

    An int on a covector of ints, otherwise a Fraction, as `Covector.dot`.
    """
    check_support(support, gamma)
    return gamma.dot(c_coeffs(support, ctype, j))


def validate_fork_sequence(entries) -> tuple[int, ...]:
    """Check a fork sequence: positive, divisibility chain, stabilizes at 1."""
    seq = tuple(int(e) for e in entries)
    if not seq or any(e < 1 for e in seq):
        raise ValueError(f"fork sequence entries must be positive: {entries}")
    for a, b in zip(seq, seq[1:]):
        if a % b != 0:
            raise ValueError(f"{b} does not divide {a} in {entries}")
    if seq[-1] != 1:
        raise ValueError(f"fork sequence must stabilize at 1: {entries}")
    return seq


def chi_fork(entries) -> int:
    """Euler characteristic of the Milnor fiber of a fork-path singularity.

    chi(i) = i_1 - i_1 * sum_n (i_n - 1); trailing 1s contribute nothing.
    """
    seq = validate_fork_sequence(entries)
    return seq[0] - seq[0] * sum(e - 1 for e in seq)


@dataclass(frozen=True)
class FacetFunctional:
    """Primitive supporting functional of the facet over hull edge j.

    coeffs is the content-reduced normal; level is the reduced facet height;
    volume is the content itself, which equals the facet's lattice area.
    """

    coeffs: tuple[int, int, int]
    level: int
    volume: int


def facet_functional(
    support: SupportSet, gamma: Covector, ctype: CombinatorialType, j: int
) -> FacetFunctional:
    """Reduced hyperplane functional of the facet spanned by hull edge j.

    The functional `level_scan` computes and checks on its way down.
    """
    return level_scan(support, gamma, ctype, j)[1]


def level_scan(
    support: SupportSet, gamma: Covector, ctype: CombinatorialType, j: int
) -> tuple[tuple[tuple[int, int], ...], FacetFunctional]:
    """Fork sequence of facet j by sweeping its hyperplane down the levels.

    The unreduced normal of the facet is (gamma(w_j) - gamma(w_{j+1}), S_j,
    d_j) at level S_j; dividing by the content yields coprime coefficients,
    and the content is the facet's lattice area.  No lifted-support point
    may lie above the facet.

    Level l of the sweep accumulates every lifted-support point at reduced
    height >= level - (l - 1); the l-th entry is the gcd of the accumulated
    first coordinates.  The scan stops at the first 1.  The sequence has one
    entry per lattice level, so its length grows with gamma's entries; it
    is returned run-length encoded, as ((entry, count), ...), and the scan
    visits only the levels that hold a lifted point.

    The Newton polytope also has the apex (0, 1, 0) and the base points
    (a_0, 0, 0), (a_max, 0, 0); the sweep walks only the lifted points,
    because the others change no entry.  The apex's first coordinate is 0,
    and its level h2 already holds w_j and w_{j+1}.  A base point (x, 0, 0)
    lies at or below its lifted twin (x, 0, gamma(x)), as gamma >= 0 and
    h3 > 0, so x is in the gcd when its level comes.  gcd(A) divides every
    difference of A, so it is 1, and the scan returns before any level that
    only a base point would hold.
    """
    check_support(support, gamma)
    if not gamma.is_integral():
        raise NonIntegerCovector(
            "integer covector required; scale by the lcm of denominators"
        )
    w = ctype.w
    u, v = w[j], w[j + 1]
    gu, gv = int(gamma(u)), int(gamma(v))
    s = v * gu - u * gv
    content = gcd(gcd(abs(gu - gv), abs(s)), v - u)
    # the reduced facet level S_j / content is the middle coefficient h2
    h1, h2, h3 = (gu - gv) // content, s // content, (v - u) // content
    by_level: dict[int, list[int]] = {}
    for x, z in zip(support.points, gamma.values):
        by_level.setdefault(h1 * x + h3 * int(z), []).append(x)
    levels = sorted(by_level, reverse=True)
    if levels[0] > h2:
        raise AssertionError(
            f"lifted points at level {levels[0]} above facet level {h2} (internal bug)"
        )
    ff = FacetFunctional((h1, h2, h3), h2, content)
    # entry -> count; each new entry divides the last, so runs never recur
    runs: dict[int, int] = {}
    g = 0
    for level, below in zip(levels, levels[1:] + [levels[-1] - 1]):
        for x in by_level[level]:
            g = gcd(g, abs(x))
        if g == 1:
            runs[1] = 1
            return tuple(runs.items()), ff
        # the entry holds from this level down to the next one with a point
        runs[g] = runs.get(g, 0) + level - below
    raise AssertionError("level scan ran past the support without reaching gcd 1")


def c_value_via_levels(
    support: SupportSet, gamma: Covector, ctype: CombinatorialType, j: int
) -> int | Fraction:
    """C^j through the level route: -Vol(facet) * sum_l (i_l - 1).

    C^j is linear in gamma, so a rational gamma is scaled to integers by its
    common denominator q, and the value is divided by q; an integral gamma
    is scanned as it is.  The value has the type `c_value` gives.
    """
    q = 1 if gamma.is_integral() else common_denominator(gamma.values)
    runs, ff = level_scan(support, gamma if q == 1 else gamma.scaled(q), ctype, j)
    return gamma.from_cleared(-ff.volume * sum((i - 1) * count for i, count in runs))
