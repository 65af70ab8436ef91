"""The piecewise-linear support function of the Morse polytope.

On the cone labelled by a combinatorial type (W, Z, M) the function is
linear; its integer coefficient vector is the corresponding polytope vertex
(up to a global shift (c1, c2) acting on the first and last coordinates,
which the underlying geometry leaves free).

The vertex is always assembled symbolically, by accumulating coefficients,
never by finite differences of values.
"""

from __future__ import annotations

from fractions import Fraction
from typing import NamedTuple

from .errors import MalformedInput, NotPositiveSupport
from .singularity import c_coeffs
from .tropical import CombinatorialType, Covector, SupportSet, extract


class ShiftConfig(NamedTuple):
    """Free integer translation constants for the endpoint coordinates."""

    c1: int = 0
    c2: int = 0


def unit_interval_shift(support: SupportSet) -> ShiftConfig:
    """The (4, 6 - 6n) normalization, with n the largest exponent."""
    return ShiftConfig(4, 6 - 6 * support.high)


def parse_shift(text: str, support: SupportSet) -> ShiftConfig:
    """Parse "c1,c2" or the named preset "unit-interval"."""
    if text == "unit-interval":
        return unit_interval_shift(support)
    try:
        c1, c2 = (int(part.strip()) for part in text.split(","))
    except ValueError as exc:
        raise MalformedInput(
            f"shift must be 'c1,c2' integers or 'unit-interval', got {text!r}"
        ) from exc
    return ShiftConfig(c1, c2)


def mu_coeffs(
    support: SupportSet, ctype: CombinatorialType, shift: ShiftConfig = ShiftConfig()
) -> tuple[int, ...]:
    """Vertex of the Morse polytope attached to one combinatorial type.

    Accumulates, per position j of the root order Z, the edge form
    S_{z_j} = w_{z_j+1} gamma(w_{z_j}) - w_{z_j} gamma(w_{z_j}+1) weighted by
    d_{z_j} - 3 + 2 * (sum of earlier d's), then the correction forms C^j,
    then the endpoint terms (|w_0|-w_0)(w_k-w_0)+c1 and
    (w_k+|w_k|)(w_k-w_0)+c2.
    """
    w, z = ctype.w, ctype.z
    k = ctype.k
    d = [w[i + 1] - w[i] for i in range(k)]
    terms = []

    run = 0  # 2 * sum of d_{z_l} for l before the current position
    for zj in z:
        weight = d[zj] - 3 + run
        terms += [(w[zj], w[zj + 1] * weight), (w[zj + 1], -w[zj] * weight)]
        run += 2 * d[zj]

    for j in range(k):
        terms += zip(support.points, c_coeffs(support, ctype, j))

    w0, wk = w[0], w[k]
    terms += [
        (w0, (abs(w0) - w0) * (wk - w0) + shift.c1),
        (wk, (wk + abs(wk)) * (wk - w0) + shift.c2),
    ]
    return support.form(terms)


def mu_value(
    support: SupportSet, gamma: Covector, shift: ShiftConfig = ShiftConfig()
) -> int | Fraction:
    """Support-function value at a Morse covector.

    Equals the dot product of the covector with the vertex of its own cone,
    so an int on a covector of ints and a Fraction otherwise; extraction
    errors propagate.
    """
    return gamma.dot(mu_coeffs(support, extract(support, gamma), shift))


def mu_coeffs_positive(
    support: SupportSet, ctype: CombinatorialType, shift: ShiftConfig = ShiftConfig()
) -> tuple[int, ...]:
    """Closed-form vertex for strictly positive supports (Z forced increasing).

    Must agree with mu_coeffs on every type; kept as an independent route
    for cross-checking.
    """
    if support.low <= 0:
        raise NotPositiveSupport(f"support {support.points} is not positive")
    if ctype.z != tuple(range(ctype.k)):
        raise NotPositiveSupport(
            f"positive supports force the increasing root order, got {ctype.z}"
        )
    w = ctype.w
    k = ctype.k
    w0, wk = w[0], w[k]

    terms = [(w0, w[1] * (w[1] - w0 - 3) + shift.c1)]
    for j in range(1, k):
        terms.append(
            (w[j], (w[j + 1] - w[j - 1]) * (w[j - 1] + w[j] + w[j + 1] - 2 * w0 - 3))
        )
    terms.append(
        (wk, (wk - w[k - 1]) * (2 * wk + w[k - 1] - 2 * w0 - 3) + 3 * wk + shift.c2)
    )

    for j in range(k):
        terms += zip(support.points, c_coeffs(support, ctype, j))
    return support.form(terms)


def a2_coeffs(support: SupportSet, ctype: CombinatorialType) -> tuple[int, ...]:
    """Coefficients of the triple-root stratum count |A2| as a form in gamma.

    |A2| = Area(N) - gamma(w_0) - gamma(w_k), expanded over the edge sums.
    """
    w = ctype.w
    terms = [term for u, v in zip(w, w[1:]) for term in ((u, v), (v, -u))]
    terms += [(w[-1], w[-1] - 1), (w[0], -w[0] - 1)]
    return support.form(terms)


def maxwell_caustic_split(
    support: SupportSet,
    ctype: CombinatorialType,
    weights: tuple[int, int] = (1, 2),
    shift: ShiftConfig = ShiftConfig(),
) -> tuple[Fraction, ...]:
    """Linear form b * |2A1| + a * |A2| on the cone, for weights (a, b).

    (1, 2) recovers the full support function (the Morse discriminant squares
    the Maxwell factor), (1, 0) the triple-root stratum count, (0, 1) the
    double-double stratum count.  Entries are exact rationals: the (0, 1)
    form is half of an integer form and need not be integral.
    """
    a, b = weights
    a2 = a2_coeffs(support, ctype)
    mu = mu_coeffs(support, ctype, shift)
    half = Fraction(1, 2)
    n2a1 = tuple((m - c) * half for m, c in zip(mu, a2))
    return tuple(b * x + a * c for x, c in zip(n2a1, a2))
