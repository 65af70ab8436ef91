"""Newton polygon, fiber polygon, lattice areas, and stratum counts.

All areas are lattice-normalized: the unit lattice triangle has area 1, i.e.
twice the Euclidean measure.  Every quantity here comes with two independent
computation routes (shoelace vs. edge sums for the Newton polygon, trapezoid
stack vs. closed form for the fiber polygon) so the verify machinery can
cross-check them exactly.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .errors import DegeneracyError, NonIntegerCovector, NotMorse
from .rationals import rational_to_json
from .support_function import ShiftConfig, mu_coeffs, mu_value
from .tropical import CombinatorialType, Covector, SupportSet, extract


def _edge_areas(gamma: Covector, w: list[int]) -> list[int | Fraction]:
    """Oriented triangle areas S_j = w_{j+1} gamma(w_j) - w_j gamma(w_{j+1})."""
    return [v * gamma(u) - u * gamma(v) for u, v in zip(w, w[1:])]


def newton_polygon_vertices(
    support: SupportSet, gamma: Covector
) -> list[tuple[int, int | Fraction]]:
    """Counterclockwise vertex cycle of the Newton polygon.

    The polygon is the hull of the lifted points together with the two base
    points (a_0, 0) and (a_max, 0); consecutive duplicates (when an endpoint
    value is 0) are merged.
    """
    cycle = [(support.low, 0), (support.high, 0)]
    cycle += [(p, gamma(p)) for p in reversed(gamma.hull_vertices())]
    return [pt for i, pt in enumerate(cycle) if pt != cycle[(i + 1) % len(cycle)]]


def area_newton(support: SupportSet, gamma: Covector) -> int | Fraction:
    """Lattice area of the Newton polygon by the exact shoelace sum."""
    cycle = newton_polygon_vertices(support, gamma)
    total = 0
    for (x0, y0), (x1, y1) in zip(cycle, cycle[1:] + cycle[:1]):
        total += x0 * y1 - x1 * y0
    return total


def area_newton_formula(support: SupportSet, gamma: Covector) -> int | Fraction:
    """Same area through the edge sums: sum S_j + w_k g(w_k) - w_0 g(w_0)."""
    w = gamma.hull_vertices()
    return sum(_edge_areas(gamma, w)) + w[-1] * gamma(w[-1]) - w[0] * gamma(w[0])


def _extract_or_not_morse(support: SupportSet, gamma: Covector) -> CombinatorialType:
    try:
        return extract(support, gamma)
    except DegeneracyError as exc:
        raise NotMorse(f"covector is not Morse: {exc}") from exc


@dataclass(frozen=True)
class FiberPolygon:
    """Stack of rectangular trapezoids: bases bottom-to-top plus heights.

    bases[i] is the width of the i-th horizontal section; heights[i] is the
    gap between bases i and i+1 and equals the hull-edge length d_{z_{i+1}}.
    """

    bases: tuple[int | Fraction, ...]
    heights: tuple[int, ...]

    @property
    def total_height(self) -> int:
        return sum(self.heights)

    def vertices(self) -> list[tuple[Fraction, Fraction]]:
        """Counterclockwise boundary cycle, duplicates merged."""
        pts: list[tuple[Fraction, Fraction]] = [(Fraction(0), Fraction(0))]
        y = Fraction(0)
        pts.append((self.bases[0], y))
        for base, h in zip(self.bases[1:], self.heights):
            y += h
            pts.append((base, y))
        pts.append((Fraction(0), y))
        return [pt for i, pt in enumerate(pts) if pt != pts[(i + 1) % len(pts)]]

    def area(self) -> int | Fraction:
        """Lattice area as the sum of the trapezoid areas."""
        total = 0
        for lo, hi, h in zip(self.bases, self.bases[1:], self.heights):
            total += (lo + hi) * h
        return total

    def to_json(self) -> dict:
        return {
            "bases": [rational_to_json(b) for b in self.bases],
            "heights": list(self.heights),
            "vertices": [
                [rational_to_json(x), rational_to_json(y)] for x, y in self.vertices()
            ],
        }


def fiber_polygon(
    support: SupportSet, gamma: Covector, ctype: CombinatorialType | None = None
) -> FiberPolygon:
    """Fiber polygon of the lifted 3-polytope, as a trapezoid stack.

    The bottom base is the Newton polygon area, enlarged by the endpoint
    triangle when 0 lies outside the support's hull; walking up, each edge of
    the root order peels off (or glues on) its oriented triangle area.
    """
    if ctype is None:
        ctype = _extract_or_not_morse(support, gamma)
    return trapezoid_stack(support, gamma, ctype, area_newton(support, gamma))


def trapezoid_stack(
    support: SupportSet, gamma: Covector, ctype: CombinatorialType, base: int | Fraction
) -> FiberPolygon:
    """`fiber_polygon` read off a type and its Newton area `base`, computed once."""
    w = list(ctype.w)
    s = _edge_areas(gamma, w)
    d = [w[i + 1] - w[i] for i in range(len(w) - 1)]

    if support.low > 0:
        base += support.low * gamma(w[0])
    elif support.high < 0:
        base += -support.high * gamma(w[-1])

    bases = [base]
    for zj in ctype.z:
        base = base - s[zj]
        if base < 0:
            raise AssertionError(f"negative trapezoid base {base} (internal bug)")
        bases.append(base)
    heights = tuple(d[zj] for zj in ctype.z)
    return FiberPolygon(tuple(bases), heights)


def vol_fiber_closed(
    support: SupportSet, gamma: Covector, ctype: CombinatorialType | None = None
) -> int | Fraction:
    """Closed-form lattice area of the fiber polygon.

    sum over root-order positions of S_{z_j} (d_{z_j} + 2 sum of earlier d),
    plus the endpoint terms (|w_0|-w_0)(w_k-w_0) g(w_0) and
    (w_k+|w_k|)(w_k-w_0) g(w_k).
    """
    if ctype is None:
        ctype = _extract_or_not_morse(support, gamma)
    w = ctype.w
    k = ctype.k
    s = _edge_areas(gamma, list(w))
    d = [w[i + 1] - w[i] for i in range(k)]
    total = 0
    run = 0
    for zj in ctype.z:
        total += s[zj] * (d[zj] + run)
        run += 2 * d[zj]
    w0, wk = w[0], w[k]
    total += (abs(w0) - w0) * (wk - w0) * gamma(w0)
    total += (wk + abs(wk)) * (wk - w0) * gamma(wk)
    return total


@dataclass(frozen=True)
class StrataCounts:
    """Counts of the codimension-2 multisingularity strata over one covector.

    n2a1 (two double roots) depends on the chosen shift convention, so the
    convention is carried inside the result.  parity_ok records whether twice
    the count came out even, when n_2a1 is an int; a failure is reported as
    the Fraction p/2, never rounded away.
    """

    chi_a1: int
    n_a2: int
    n_2a1: int | Fraction
    shift: tuple[int, int]
    parity_ok: bool

    def to_json(self) -> dict:
        return {
            "chi_A1": self.chi_a1,
            "A2": self.n_a2,
            "2A1": rational_to_json(self.n_2a1),
            "shift": list(self.shift),
            "parity_ok": self.parity_ok,
        }


def strata_counts(
    support: SupportSet,
    gamma: Covector,
    shift: ShiftConfig = ShiftConfig(),
    ctype: CombinatorialType | None = None,
) -> StrataCounts:
    """Solve the three count relations for an integer Morse covector.

    n_a2   = Area(N) - gamma(w_0) - gamma(w_k)
    2*n_2a1 + n_a2 = mu(gamma) under the given shift
    chi_a1 = -Area(N) - 2*n_2a1 - 2*n_a2
    """
    if not gamma.is_integral():
        raise NonIntegerCovector("strata counts are defined for integer covectors")
    if ctype is None:
        # mu_value extracts once more; bench/test_bench.py pins that count
        ctype = _extract_or_not_morse(support, gamma)
        mu = mu_value(support, gamma, shift)
    else:
        mu = gamma.dot(mu_coeffs(support, ctype, shift))
    return solve_strata(gamma, ctype, shift, area_newton(support, gamma), mu)


def solve_strata(
    gamma: Covector, ctype: CombinatorialType, shift: ShiftConfig, area, mu
) -> StrataCounts:
    """`strata_counts` read off a type, the Newton area and mu, computed once."""
    if not gamma.is_integral():
        raise NonIntegerCovector("strata counts are defined for integer covectors")
    w0, wk = ctype.w[0], ctype.w[-1]
    n_a2 = area - gamma(w0) - gamma(wk)
    doubled = mu - n_a2
    chi_a1 = -area - doubled - 2 * n_a2
    even = doubled % 2 == 0
    return StrataCounts(
        chi_a1=int(chi_a1),
        n_a2=int(n_a2),
        n_2a1=doubled // 2 if even else Fraction(doubled, 2),
        shift=(shift.c1, shift.c2),
        parity_ok=even,
    )
