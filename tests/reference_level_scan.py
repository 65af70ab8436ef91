"""The level scan as it walked the apex and both base points, kept only as a
test oracle.

`morsekit.singularity.level_scan` sweeps the lifted points alone; this sweep
also meets the apex (0, 1, 0) and the base points (a_0, 0, 0) and
(a_max, 0, 0) of the Newton polytope.  Both must give the same runs and the
same `FacetFunctional` on every integer covector.
"""

from math import gcd

from morsekit.singularity import FacetFunctional


def reference_level_scan(support, gamma, ctype, j):
    """Runs ((entry, count), ...) and the facet functional over edge j."""
    u, v = ctype.w[j], ctype.w[j + 1]
    gu, gv = int(gamma(u)), int(gamma(v))
    s = v * gu - u * gv
    content = gcd(gcd(abs(gu - gv), abs(s)), v - u)
    h1, h2, h3 = (gu - gv) // content, s // content, (v - u) // content
    by_level: dict[int, list[int]] = {h2: [0]}
    base = ((support.low, 0), (support.high, 0))
    for x, z in (*base, *zip(support.points, gamma.values)):
        by_level.setdefault(h1 * x + h3 * int(z), []).append(x)
    levels = sorted(by_level, reverse=True)
    assert levels[0] <= h2
    ff = FacetFunctional((h1, h2, h3), h2, content)
    runs: dict[int, int] = {}
    g = 0
    for level, below in zip(levels, levels[1:] + [levels[-1] - 1]):
        for x in by_level[level]:
            g = gcd(g, abs(x))
        if g == 1:
            runs[1] = 1
            return tuple(runs.items()), ff
        runs[g] = runs.get(g, 0) + level - below
    raise AssertionError("level scan ran past the support without reaching gcd 1")
