"""An elimination oracle for the vertex set, independent of `mu_coeffs`.

f = sum_a c_a x^a is not Morse where it has a degenerate critical point
(the caustic) or two critical points with one critical value (the Maxwell
stratum).  Both conditions come out of elimination (Gelfand, Kapranov and
Zelevinsky, Discriminants, Resultants and Multidimensional Determinants,
1994), computed here by sympy in the coefficients c:

  * on the torus x != 0, f' times x^(1 - a_0) is a polynomial with a
    nonzero constant term, and f - t times x^max(0, -a_0) is a polynomial;
  * g(t) = Res_x(f', f - t) has the critical values as its roots;
  * the caustic is the non-monomial irreducible factors of disc_x(f');
  * the Maxwell stratum is the other non-monomial factors of disc_t(g).

The Morse discriminant is caustic * Maxwell^2, the weights (1, 2) of
`maxwell_caustic_split`.  Monomials are units on the torus, so its Newton
polytope matches `build_polytope` up to a translation t, pinned per support.
Each support's vertex set is checked as `build_polytope` gives it by default
and as the drop-key build that `verify` uses gives it.  The supports are the
ones elimination finishes on in seconds, and [2, 3, 4, 6], which takes
11-13 s and is marked slow (run it with `pytest -m slow`); [-3, -1, 1, 2, 4]
was stopped after 9 minutes.
"""

import random
from fractions import Fraction

import pytest

sp = pytest.importorskip("sympy")

from morsekit import build_polytope, validate_support


def _non_monomial_factors(poly, coeffs) -> set:
    _, factors = sp.factor_list(poly)
    kept = (sp.Poly(factor, *coeffs) for factor, _ in factors)
    return {factor.as_expr() for factor in kept if len(factor.terms()) > 1}


def morse_discriminant_exponents(points) -> set[tuple[int, ...]]:
    """Exponent vectors of caustic * Maxwell^2, one entry per support point."""
    x, t = sp.symbols("x t")
    coeffs = sp.symbols(f"c0:{len(points)}")
    f = sum(c * x**a for c, a in zip(coeffs, points))
    low = points[0]
    derivative = sp.Poly(sp.expand(sp.diff(f, x) * x ** (1 - low)), x)
    # divide out the power of x that the torus makes a unit
    power = min(exponent for (exponent,) in derivative.monoms())
    derivative = sp.Poly(sp.expand(derivative.as_expr() / x**power), x)
    level = sp.Poly(sp.expand((f - t) * x ** max(0, -low)), x)
    g = sp.Poly(sp.resultant(derivative, level, x), t)
    caustic = _non_monomial_factors(sp.discriminant(derivative, x), coeffs)
    maxwell = _non_monomial_factors(sp.discriminant(g, t), coeffs) - caustic
    product = sp.Mul(*caustic) * sp.Mul(*maxwell) ** 2
    return set(sp.Poly(product, *coeffs).monoms())


def _support_value(direction, points) -> Fraction:
    return max(sum(d * p for d, p in zip(direction, point)) for point in points)


@pytest.mark.parametrize(
    "points,translation",
    [
        ([1, 2, 3, 4], (4, 0, 0, -18)),
        ([-1, 1, 2], (-5, 0, -10)),
        ([1, 2, 4], (2, 0, -23)),
        ([1, 3, 4], (3, 0, -18)),
        ([-2, 1, 2], (-16, -4, -12)),
        ([-1, 1, 2, 3], (-7, 0, 0, -16)),
        ([-2, -1, 1, 2], (-12, 0, 0, -12)),
        pytest.param([2, 3, 4, 6], (6, -4, 0, -37), marks=pytest.mark.slow),
    ],
    ids=lambda value: ",".join(map(str, value)),
)
def test_vertices_match_the_elimination_oracle(points, translation):
    exponents = morse_discriminant_exponents(points)
    support = validate_support(points)
    polytope = build_polytope(support)
    assert build_polytope(support, keys=True).vertices == polytope.vertices
    # the lexicographic maximum of a point set is a vertex of its hull
    top, vertex_top = max(exponents), max(polytope.vertices)
    assert tuple(e - v for e, v in zip(top, vertex_top)) == translation
    moved = [
        tuple(v + s for v, s in zip(vertex, translation))
        for vertex in polytope.vertices
    ]
    assert set(moved) <= exponents
    rnd = random.Random(1)
    directions = [record.witness.values for record in polytope.cones] + [
        [rnd.randint(-50, 50) for _ in points] for _ in range(300)
    ]
    for direction in directions:
        assert _support_value(direction, exponents) == _support_value(direction, moved)
