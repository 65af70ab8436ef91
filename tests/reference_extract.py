"""The combinatorial data of a covector by explicit Fraction division, kept
only as a test oracle.

`morsekit.tropical.extract` never divides: it compares cross-multiplied
heights, and root values and monomial values scaled by positive integers,
so integer input stays integer.  This module computes the same data the
direct way, on a Covector's Fractions: the height of a hull edge at p as a
quotient, the tropical roots r_j = (g(u) - g(v)) / (v - u) and their values
u r_j + g(u), and each M^j sorted by g(p) + p r_j.  Both must return the
same type, or raise the same error with the same witness.
"""

from fractions import Fraction

from morsekit.errors import DegenerateHull, RootValueDegenerate
from morsekit.tropical import CombinatorialType

from reference_slopes import reference_check_slopes


def reference_edge_value(gamma, u: int, v: int, p: int) -> Fraction:
    """Height of the segment through the lifted points at u and v, at x = p."""
    return (gamma(u) * (v - p) + gamma(v) * (p - u)) / Fraction(v - u)


def reference_roots_and_values(gamma, w) -> list[tuple[Fraction, Fraction]]:
    """The root r_j of each hull edge (u, v) and the value F(r_j)."""
    out = []
    for u, v in zip(w, w[1:]):
        r = (gamma(u) - gamma(v)) / Fraction(v - u)
        out.append((r, u * r + gamma(u)))
    return out


def reference_extract(support, gamma) -> CombinatorialType:
    """(W, Z, M) of a Covector, raising what `extract` raises, in its order."""
    w = gamma.hull_vertices()
    for p in support.points:
        if p in w:
            continue
        u = max(x for x in w if x < p)
        v = min(x for x in w if x > p)
        if gamma(p) == reference_edge_value(gamma, u, v, p):
            raise DegenerateHull(p, (u, v))
    reference_check_slopes(support, gamma)
    rv = reference_roots_and_values(gamma, w)
    values = [phi for _, phi in rv]
    for i in range(len(values)):
        for j in range(i + 1, len(values)):
            if values[i] == values[j]:
                raise RootValueDegenerate(i, j, values[i])
    z = tuple(sorted(range(len(values)), key=lambda j: values[j]))
    m = []
    for (u, v), (r, _) in zip(zip(w, w[1:]), rv):
        others = [p for p in support.points if p != u and p != v]
        others.sort(key=lambda p: gamma(p) + p * r, reverse=True)
        m.append(tuple(others))
    return CombinatorialType(tuple(w), z, tuple(m))
