"""Independent slope-tie and Morse tests, kept only as test oracles.

Where `morsekit.tropical` reads one table of exponent pairs grouped by an
integer multiple of their slope (`slope_groups`), these group by the slope
itself, a Fraction quotient, and find caustic ties and equal root values by
comparing every pair with every other.  Both must raise the same error with
the same witness pairs and return the same `Classification`.
"""

from fractions import Fraction

from morsekit.errors import SlopeDegenerate
from morsekit.tropical import (
    CAUSTIC,
    MAXWELL,
    MAXWELL_AND_CAUSTIC,
    MORSE,
    Classification,
    roots_and_values,
)


def reference_check_slopes(support, gamma) -> None:
    """Raise SlopeDegenerate on the first two pairs of the first tied slope."""
    lifted = list(zip(support.points, gamma.values))
    by_slope: dict[Fraction, list[tuple[int, int]]] = {}
    for i, (p, gp) in enumerate(lifted):
        for q, gq in lifted[i + 1 :]:
            # a Fraction quotient: on int values `/` would divide in floats
            by_slope.setdefault(Fraction(gq - gp, q - p), []).append((p, q))
    for pairs in by_slope.values():
        if len(pairs) > 1:
            raise SlopeDegenerate(pairs[0], pairs[1])


def reference_classify(support, gamma) -> Classification:
    """Morse / Maxwell / caustic / both by exhaustive exact comparison."""
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
