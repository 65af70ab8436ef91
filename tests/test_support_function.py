"""Vertices from the support function: golden values, properties, splits."""

import random
from fractions import Fraction

import pytest

from morsekit import (
    CombinatorialType,
    NotPositiveSupport,
    ShiftConfig,
    covector_from_values,
    enumerate_types,
    extract,
    maxwell_caustic_split,
    mu_coeffs,
    mu_coeffs_positive,
    mu_value,
    parse_shift,
    sample_morse_covector,
    unit_interval_shift,
    validate_support,
)
from morsekit.cones import enumerate_keys
from morsekit.errors import MalformedInput
from morsekit.support_function import a2_coeffs

from conftest import dot


def test_vertex_mixed_example(mixed_support, mixed_gamma):
    t = extract(mixed_support, mixed_gamma)
    assert mu_coeffs(mixed_support, t) == (37, 15, 2, 33, 39)


def test_vertex_trivial_subdivision(mixed_support):
    t = CombinatorialType(
        (-3, 4), (0,), ((-1, 1, 2),)
    )  # the C-term vanishes: gcd(3, 4) = 1, any ordering works
    assert mu_coeffs(mixed_support, t) == (58, 0, 0, 0, 68)


def test_mu_value_mixed_example(mixed_support, mixed_gamma):
    expected = dot((37, 15, 2, 33, 39), mixed_gamma.values)
    assert expected == 394  # frozen dot product
    assert mu_value(mixed_support, mixed_gamma) == expected


def test_vertex_deg4_with_unit_interval_shift(deg4_support, deg4_gamma):
    shift = unit_interval_shift(deg4_support)
    assert shift == ShiftConfig(4, -18)
    t = extract(deg4_support, deg4_gamma)
    assert mu_coeffs(deg4_support, t, shift) == (0, 5, 2, 3)
    expected = dot((0, 5, 2, 3), deg4_gamma.values)
    assert expected == 35
    assert mu_value(deg4_support, deg4_gamma, shift) == expected


def test_mu_homogeneous(mixed_support, mixed_gamma):
    for lam in (2, Fraction(5, 3), Fraction(1, 7)):
        assert mu_value(mixed_support, mixed_gamma.scaled(lam)) == lam * 394


def test_mu_additive_within_cone(mixed_support, mixed_gamma):
    # a second covector in the same cone, found by nudging and re-extracting
    other = covector_from_values(mixed_support, [3, 5, 2, 5, Fraction(9, 8)])
    t = extract(mixed_support, mixed_gamma)
    assert extract(mixed_support, other) == t
    total = covector_from_values(
        mixed_support,
        [a + b for a, b in zip(mixed_gamma.values, other.values)],
    )
    assert extract(mixed_support, total) == t
    assert mu_value(mixed_support, total) == mu_value(
        mixed_support, mixed_gamma
    ) + mu_value(mixed_support, other)


def test_shift_locality(mixed_support, mixed_gamma):
    t = extract(mixed_support, mixed_gamma)
    base = mu_coeffs(mixed_support, t, ShiftConfig(0, 0))
    shifted = mu_coeffs(mixed_support, t, ShiftConfig(5, -7))
    assert shifted[0] - base[0] == 5
    assert shifted[-1] - base[-1] == -7
    assert shifted[1:-1] == base[1:-1]


def test_parse_shift(deg4_support):
    assert parse_shift("0,0", deg4_support) == ShiftConfig(0, 0)
    assert parse_shift("4,-18", deg4_support) == ShiftConfig(4, -18)
    assert parse_shift("unit-interval", deg4_support) == ShiftConfig(4, -18)
    with pytest.raises(MalformedInput):
        parse_shift("banana", deg4_support)


# --- positive-support specialization -----------------------------------------------


def test_positive_closed_form_deg4_vertices(deg4_support):
    shift = ShiftConfig(4, -18)
    full = CombinatorialType((1, 2, 3, 4), (0, 1, 2), ((3, 4), (1, 4), (2, 1)))
    assert mu_coeffs_positive(deg4_support, full, shift) == (0, 2, 8, 0)
    skip2 = CombinatorialType((1, 3, 4), (0, 1), ((2, 4), (2, 1)))
    assert mu_coeffs_positive(deg4_support, skip2, shift) == (1, 0, 9, 0)
    hull_only = CombinatorialType((1, 4), (0,), ((2, 3),))
    assert mu_coeffs_positive(deg4_support, hull_only, shift) == (4, 0, 0, 6)


def test_positive_specialization_matches_general():
    shift = ShiftConfig(4, -18)
    for pts in ([1, 2, 3, 4], [2, 3, 4, 6], [1, 2, 3, 4, 5]):
        support = validate_support(pts)
        for ctype, _ in enumerate_types(support):
            assert mu_coeffs_positive(support, ctype, shift) == mu_coeffs(
                support, ctype, shift
            ), (pts, ctype)


def test_positive_rejects_mixed_support(mixed_support, mixed_gamma):
    t = extract(mixed_support, mixed_gamma)
    with pytest.raises(NotPositiveSupport):
        mu_coeffs_positive(mixed_support, t)


def test_positive_rejects_wrong_root_order():
    support = validate_support([1, 2, 3, 4])
    bad = CombinatorialType((1, 2, 4), (1, 0), ((3, 4), (3, 1)))
    with pytest.raises(NotPositiveSupport):
        mu_coeffs_positive(support, bad)


# --- stratum-count split -------------------------------------------------------------


def test_split_definitional_weights(mixed_support, mixed_gamma):
    t = extract(mixed_support, mixed_gamma)
    assert maxwell_caustic_split(mixed_support, t, (1, 2)) == tuple(
        Fraction(c) for c in mu_coeffs(mixed_support, t)
    )


def test_split_a2_form(mixed_support, mixed_gamma):
    t = extract(mixed_support, mixed_gamma)
    a2 = maxwell_caustic_split(mixed_support, t, (1, 0))
    assert a2 == (1, 5, 0, 5, 1)
    assert dot(a2, mixed_gamma.values) == 54  # Area(N) - g(w_0) - g(w_k)


def test_split_maxwell_form_value(mixed_support, mixed_gamma):
    t = extract(mixed_support, mixed_gamma)
    m = maxwell_caustic_split(mixed_support, t, (0, 1))
    assert dot(m, mixed_gamma.values) == Fraction(394 - 54, 2) == 170


def test_split_linear_in_weights(mixed_support, mixed_gamma):
    t = extract(mixed_support, mixed_gamma)
    a2 = maxwell_caustic_split(mixed_support, t, (1, 0))
    m1 = maxwell_caustic_split(mixed_support, t, (0, 1))
    combo = maxwell_caustic_split(mixed_support, t, (3, 5))
    assert combo == tuple(3 * a + 5 * b for a, b in zip(a2, m1))


def test_exactness_at_large_magnitudes(mixed_support):
    # integer arithmetic never saturates: values far beyond float precision
    big = 10**18
    gamma = covector_from_values(
        mixed_support, [3 * big, 5 * big, 2 * big + 1, 5 * big, big]
    )
    ctype = extract(mixed_support, gamma)
    vertex = mu_coeffs(mixed_support, ctype)
    assert mu_value(mixed_support, gamma) == dot(vertex, gamma.values)
    lam = Fraction(10**12 + 7, 3)
    assert mu_value(mixed_support, gamma.scaled(lam)) == lam * mu_value(
        mixed_support, gamma
    )


def test_mu_value_matches_cone_vertex_on_samples():
    rnd = random.Random(31)
    for pts in ([1, 2, 3, 4], [-3, -1, 1, 2, 4], [-6, -4, -3, -2]):
        support = validate_support(pts)
        for _ in range(40):
            gamma, _, _ = sample_morse_covector(support, rnd, bound=60)
            ctype = extract(support, gamma)
            assert mu_value(support, gamma) == dot(
                mu_coeffs(support, ctype), gamma.values
            )


A2_SUPPORTS = [
    [1, 2, 3, 4],
    [-3, -1, 1, 2, 4],
    [1, 2, 3, 4, 5, 6, 7],
    [-3, -1, 1, 2, 4, 5, 6],
    [2, 4, 6, 8, 9, 10, 12],
    [-5, -2, 1, 3, 4, 7],
]


def gkz_vector(support, w) -> tuple[int, ...]:
    """phi_W by its definition: at each element of W the next element minus
    the previous one, an endpoint standing in for its missing neighbour, and
    0 at every exponent off W."""
    phi = dict.fromkeys(support.points, 0)
    for i, a in enumerate(w):
        phi[a] = w[min(i + 1, len(w) - 1)] - w[max(i - 1, 0)]
    return tuple(phi[a] for a in support.points)


@pytest.mark.parametrize("points", A2_SUPPORTS, ids=lambda p: ",".join(map(str, p)))
def test_a2_coeffs_is_the_gkz_vector_less_the_endpoints(points):
    support = validate_support(points)
    keys = [ctype for ctype, _ in enumerate_keys(support)]
    assert keys
    for ctype in keys:
        expected = list(gkz_vector(support, ctype.w))
        expected[0] -= 1
        expected[-1] -= 1
        assert a2_coeffs(support, ctype) == tuple(expected), ctype


@pytest.mark.parametrize("points", A2_SUPPORTS, ids=lambda p: ",".join(map(str, p)))
def test_mu_minus_a2_is_even(points):
    # |2A1| = (mu - |A2|) / 2 is a count, so its form must be integral
    support = validate_support(points)
    for ctype, _ in enumerate_keys(support):
        mu = mu_coeffs(support, ctype, ShiftConfig(0, 0))
        diff = [m - a for m, a in zip(mu, a2_coeffs(support, ctype))]
        assert all(d % 2 == 0 for d in diff), (ctype, diff)
