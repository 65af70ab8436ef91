"""Newton polygon areas, the fiber polygon stack, and stratum counts."""

import random
from fractions import Fraction

import pytest

from morsekit import (
    NonIntegerCovector,
    NotMorse,
    ShiftConfig,
    area_newton,
    area_newton_formula,
    covector_from_values,
    extract,
    fiber_polygon,
    mu_value,
    newton_polygon_vertices,
    sample_morse_covector,
    strata_counts,
    validate_support,
    vol_fiber_closed,
)


def _shoelace(cycle):
    """Independent doubled-shoelace oracle over an explicit vertex cycle."""
    total = Fraction(0)
    for (x0, y0), (x1, y1) in zip(cycle, cycle[1:] + cycle[:1]):
        total += x0 * y1 - x1 * y0
    return total


# --- Newton polygon ---------------------------------------------------------------


def test_area_mixed_example(mixed_support, mixed_gamma):
    # oracle: shoelace over the explicit counterclockwise cycle
    cycle = [(-3, 0), (4, 0), (4, 1), (2, 5), (-1, 5), (-3, 3)]
    assert _shoelace(cycle) == 58
    assert area_newton(mixed_support, mixed_gamma) == 58
    assert newton_polygon_vertices(mixed_support, mixed_gamma) == [
        (Fraction(-3), Fraction(0)),
        (Fraction(4), Fraction(0)),
        (Fraction(4), Fraction(1)),
        (Fraction(2), Fraction(5)),
        (Fraction(-1), Fraction(5)),
        (Fraction(-3), Fraction(3)),
    ]


def test_area_formula_route(mixed_support, mixed_gamma):
    # S_0 + S_1 + S_2 + w_k g(w_k) - w_0 g(w_0) = 12 + 15 + 18 + 4 + 9
    assert area_newton_formula(mixed_support, mixed_gamma) == 58
    assert area_newton(mixed_support, mixed_gamma) == area_newton_formula(
        mixed_support, mixed_gamma
    )


def test_area_zero_covector():
    support = validate_support([1, 2, 5])
    zero = covector_from_values(support, [0, 0, 0])
    assert area_newton(support, zero) == 0
    assert area_newton_formula(support, zero) == 0


def test_area_routes_agree_on_samples():
    rnd = random.Random(41)
    for pts in ([1, 2, 3, 4, 5], [-6, -4, -3, -2], [-3, -1, 1, 2, 4]):
        support = validate_support(pts)
        for _ in range(30):
            gamma, _ = sample_morse_covector(support, rnd, bound=40)
            assert area_newton(support, gamma) == area_newton_formula(
                support, gamma
            )


# --- fiber polygon -----------------------------------------------------------------


def test_fiber_polygon_mixed_example(mixed_support, mixed_gamma):
    fp = fiber_polygon(mixed_support, mixed_gamma)
    assert fp.bases == (58, 43, 31, 13)
    assert fp.heights == (3, 2, 2)
    # top base: w_k g(w_k) - w_0 g(w_0) = 4 + 9
    assert fp.bases[-1] == 13
    assert fp.total_height == 4 - (-3)


def test_fiber_polygon_vertices(mixed_support, mixed_gamma):
    fp = fiber_polygon(mixed_support, mixed_gamma)
    assert fp.vertices() == [
        (0, 0),
        (58, 0),
        (43, 3),
        (31, 5),
        (13, 7),
        (0, 7),
    ]
    # the stack area equals the shoelace area of its own boundary
    assert _shoelace(fp.vertices()) == fp.area()


def test_fiber_polygon_rejects_degenerate():
    support = validate_support([1, 2, 5])
    with pytest.raises(NotMorse):
        fiber_polygon(support, covector_from_values(support, [0, 0, 0]))


def test_volume_mixed_example(mixed_support, mixed_gamma):
    # closed form: 15*3 + 12*(2+6) + 18*(2+6+4) + 42*3 + 56*1
    assert vol_fiber_closed(mixed_support, mixed_gamma) == 539
    # trapezoids: (58+43)*3 + (43+31)*2 + (31+13)*2
    assert (58 + 43) * 3 + (43 + 31) * 2 + (31 + 13) * 2 == 539
    assert fiber_polygon(mixed_support, mixed_gamma).area() == 539


def test_volume_homogeneous(mixed_support, mixed_gamma):
    assert vol_fiber_closed(mixed_support, mixed_gamma.scaled(2)) == 2 * 539
    assert fiber_polygon(mixed_support, mixed_gamma.scaled(2)).area() == 2 * 539


def test_volume_routes_agree_on_samples():
    rnd = random.Random(43)
    for pts in ([1, 2, 3, 4], [2, 3, 4, 6], [-6, -4, -3, -2], [-2, -1, 1, 2]):
        support = validate_support(pts)
        for _ in range(30):
            gamma, _ = sample_morse_covector(support, rnd, bound=40)
            assert vol_fiber_closed(support, gamma) == fiber_polygon(
                support, gamma
            ).area()


def _positive_volume_closed_form(gamma, w):
    """Closed form specialized to positive supports, written independently."""
    k = len(w) - 1
    total = w[1] * (w[1] - w[0]) * gamma(w[0])
    total += (w[k] - w[k - 1]) * (2 * w[k] + w[k - 1] - 2 * w[0]) * gamma(w[k])
    for j in range(1, k):
        total += (
            (w[j + 1] - w[j - 1])
            * (w[j - 1] + w[j] + w[j + 1] - 2 * w[0])
            * gamma(w[j])
        )
    return total


def test_volume_positive_support_closed_form():
    rnd = random.Random(44)
    for pts in ([1, 2, 3, 4], [2, 3, 4, 6], [1, 2, 3, 4, 5], [3, 4, 6, 7]):
        support = validate_support(pts)
        for _ in range(25):
            gamma, _ = sample_morse_covector(support, rnd, bound=40)
            w = extract(support, gamma).w
            expected = _positive_volume_closed_form(gamma, list(w))
            assert vol_fiber_closed(support, gamma) == expected
            assert fiber_polygon(support, gamma).area() == expected


def test_fiber_polygon_single_root_mixed_support():
    support = validate_support([-1, 1, 2])
    gamma = covector_from_values(support, [2, 0, 1])
    t = extract(support, gamma)
    assert t.w == (-1, 2)
    fp = fiber_polygon(support, gamma)
    assert fp.bases == (area_newton(support, gamma), 2 * 1 - (-1) * 2)
    assert fp.heights == (3,)
    assert fp.total_height == 3


def _concave_unit_range_covector(n, rnd):
    """Strictly concave integer values over [1, n]: every point on the hull."""
    while True:
        slopes = sorted(
            random.Random(rnd.randint(0, 10**9)).sample(range(-3 * n, 3 * n), n - 1),
            reverse=True,
        )
        values = [rnd.randint(n, 3 * n)]
        for s in slopes:
            values.append(values[-1] + s)
        if min(values) >= 0:
            return values


def test_volume_unit_range_closed_form():
    # for A = [1, n] and a concave covector, the area of the fiber polygon is
    # 2 g(1) + (3n-3) g(n) + sum over interior m of 2(3m-2) g(m)
    rnd = random.Random(47)
    for n in (4, 5, 6):
        support = validate_support(list(range(1, n + 1)))
        found = 0
        while found < 8:
            values = _concave_unit_range_covector(n, rnd)
            gamma = covector_from_values(support, values)
            try:
                ctype = extract(support, gamma)
            except Exception:
                continue
            if ctype.w != support.points:
                continue
            expected = (
                2 * gamma(1)
                + (3 * n - 3) * gamma(n)
                + sum(2 * (3 * m - 2) * gamma(m) for m in range(2, n))
            )
            assert vol_fiber_closed(support, gamma) == expected
            assert fiber_polygon(support, gamma).area() == expected
            found += 1


# --- strata counts ---------------------------------------------------------------------


def test_strata_mixed_example(mixed_support, mixed_gamma):
    counts = strata_counts(mixed_support, mixed_gamma)
    assert counts.n_a2 == 58 - 3 - 1 == 54
    assert counts.n_2a1 == Fraction(394 - 54, 2) == 170
    assert counts.chi_a1 == -58 - 340 - 108 == -506
    assert counts.parity_ok
    assert counts.shift == (0, 0)


def test_strata_relations_hold(mixed_support, mixed_gamma):
    counts = strata_counts(mixed_support, mixed_gamma)
    area = area_newton(mixed_support, mixed_gamma)
    assert counts.chi_a1 + 2 * counts.n_2a1 + 2 * counts.n_a2 == -area
    assert 2 * counts.n_2a1 + counts.n_a2 == mu_value(mixed_support, mixed_gamma)


def test_strata_scale_linearly(mixed_support, mixed_gamma):
    tripled = strata_counts(mixed_support, mixed_gamma.scaled(3))
    assert tripled.n_a2 == 3 * 54
    assert tripled.n_2a1 == 3 * 170
    assert tripled.chi_a1 == 3 * -506


def test_strata_shift_dependence(mixed_support, mixed_gamma):
    shifted = strata_counts(mixed_support, mixed_gamma, ShiftConfig(2, 4))
    # mu grows by 2*g(w_0) + 4*g(w_k) = 10, so |2A1| grows by 5
    assert shifted.n_2a1 == 170 + 5
    assert shifted.n_a2 == 54  # shift-independent
    assert shifted.shift == (2, 4)


def test_strata_unit_range_a2():
    # concave covectors over [1, n]: |A2| is twice the sum of the interior values
    rnd = random.Random(53)
    for n in (4, 5, 6):
        support = validate_support(list(range(1, n + 1)))
        found = 0
        while found < 6:
            values = _concave_unit_range_covector(n, rnd)
            gamma = covector_from_values(support, values)
            try:
                ctype = extract(support, gamma)
            except Exception:
                continue
            if ctype.w != support.points:
                continue
            counts = strata_counts(support, gamma)
            assert counts.n_a2 == sum(2 * gamma(m) for m in range(2, n))
            found += 1


def test_strata_reject_rational(mixed_support):
    gamma = covector_from_values(mixed_support, ["1/2", 5, 2, 5, 1])
    with pytest.raises(NonIntegerCovector):
        strata_counts(mixed_support, gamma)


def test_fiber_json_round_trip(mixed_support, mixed_gamma):
    fp = fiber_polygon(mixed_support, mixed_gamma)
    blob = fp.to_json()
    assert blob["bases"] == [58, 43, 31, 13]
    assert blob["heights"] == [3, 2, 2]
    assert blob["vertices"][0] == [0, 0]
