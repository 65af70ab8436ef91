"""Acceptance gate: the eight exit criteria, each exact, each timed.

Every test prints one `criterion N: PASS/FAIL` line (run with -s to see them
on a green suite).  All comparisons are exact; the only tolerances are the
wall-clock budgets stated alongside each criterion.
"""

import json
import random
import time
from contextlib import contextmanager
from fractions import Fraction

from morsekit import (
    ShiftConfig,
    area_newton,
    area_newton_formula,
    build_polytope,
    c_coeffs,
    c_value,
    c_value_via_levels,
    covector_from_values,
    enumerate_types,
    extract,
    fiber_polygon,
    mu_coeffs,
    mu_coeffs_positive,
    mu_value,
    sample_morse_covector,
    strata_counts,
    validate_support,
    vol_fiber_closed,
)
from morsekit.cli import main
from morsekit.errors import DegeneracyError

from conftest import dot


@contextmanager
def criterion(number, description):
    try:
        yield
    except BaseException:
        print(f"criterion {number}: FAIL — {description}")
        raise
    print(f"criterion {number}: PASS — {description}")


def test_criterion_1_degree4_golden(capsys):
    with criterion(1, "degree-4 polytope, unit-interval shift, < 1 s"):
        t0 = time.perf_counter()
        code = main(
            ["polytope", '{"A": [1,2,3,4]}', "--shift", "unit-interval",
             "--format", "json"]
        )
        elapsed = time.perf_counter() - t0
        out = capsys.readouterr().out
        assert code == 0
        blob = json.loads(out)
        assert sorted(map(tuple, blob["vertices"])) == sorted(
            [(4, 0, 0, 6), (0, 2, 8, 0), (1, 0, 9, 0), (0, 5, 2, 3), (2, 3, 0, 5)]
        )
        assert blob["d1"] == 10
        assert blob["d2"] == 28
        assert elapsed < 1.0, f"took {elapsed:.2f}s"


def test_criterion_2_mixed_sign_golden():
    with criterion(2, "mixed-sign polytope vertices and hyperplanes, < 10 s"):
        t0 = time.perf_counter()
        support = validate_support([-3, -1, 1, 2, 4])
        poly = build_polytope(support, ShiftConfig(0, 0))
        elapsed = time.perf_counter() - t0
        assert (37, 15, 2, 33, 39) in poly.vertices
        assert (58, 0, 0, 0, 68) in poly.vertices
        for v in poly.vertices:
            assert sum(v) == 126
            assert sum(a * c for a, c in zip(support.points, v)) == 98
        assert elapsed < 10.0, f"took {elapsed:.2f}s"


def test_criterion_3_extraction_golden():
    with criterion(3, "combinatorial-data extraction reproduces both examples"):
        support = validate_support([-3, -1, 1, 2, 4])
        gamma = covector_from_values(support, [3, 5, 2, 5, 1])
        t = extract(support, gamma)
        assert t.w == (-3, -1, 2, 4)
        assert t.z == (1, 0, 2)
        assert t.m == ((2, 1, 4), (-3, 1, 4), (1, -1, -3))

        support4 = validate_support([1, 2, 3, 4])
        gamma4 = covector_from_values(support4, [1, 4, 3, 3])
        t4 = extract(support4, gamma4)
        assert t4.w == (1, 2, 4)
        assert t4.z == (0, 1)
        assert t4.m == ((3, 4), (3, 1))


def test_criterion_4_correction_sums_dual_route():
    with criterion(4, "C^j coefficients and 200-sample dual-route equality, < 30 s"):
        t0 = time.perf_counter()
        support = validate_support([-3, -1, 1, 2, 4])
        gamma = covector_from_values(support, [3, 5, 2, 5, 1])
        t = extract(support, gamma)
        assert c_coeffs(support, t, 2) == (0, 0, 2, -3, 1)

        support4 = validate_support([1, 2, 3, 4])
        gamma4 = covector_from_values(support4, [1, 4, 3, 3])
        t4 = extract(support4, gamma4)
        assert c_coeffs(support4, t4, 1) == (0, -1, 2, -1)

        sets = (
            [-3, -1, 1, 2, 4],
            [2, 3, 4, 6],
            [1, 2, 3, 4, 5],
            [1, 2, 3, 4],
            [-6, -4, -3, -2],
        )
        rng = random.Random(2024)
        checked = 0
        for pts in sets:
            s = validate_support(pts)
            for _ in range(40):
                g, _ = sample_morse_covector(s, rng, bound=50)
                ct = extract(s, g)
                for j in range(ct.k):
                    assert c_value(s, g, ct, j) == c_value_via_levels(s, g, ct, j)
                checked += 1
        elapsed = time.perf_counter() - t0
        assert checked >= 200
        assert elapsed < 30.0, f"took {elapsed:.2f}s"


def test_criterion_5_fiber_dual_routes():
    with criterion(5, "fiber-polygon and Newton-area dual routes, exact"):
        support = validate_support([-3, -1, 1, 2, 4])
        gamma = covector_from_values(support, [3, 5, 2, 5, 1])
        fp = fiber_polygon(support, gamma)
        assert fp.bases == (58, 43, 31, 13)
        assert fp.heights == (3, 2, 2)
        assert vol_fiber_closed(support, gamma) == 539
        assert fiber_polygon(support, gamma).area() == 539
        assert area_newton(support, gamma) == 58
        assert area_newton_formula(support, gamma) == 58

        rng = random.Random(55)
        for pts in ([-3, -1, 1, 2, 4], [2, 3, 4, 6], [1, 2, 3, 4, 5],
                    [-6, -4, -3, -2]):
            s = validate_support(pts)
            for _ in range(40):
                g, _ = sample_morse_covector(s, rng, bound=50)
                assert vol_fiber_closed(s, g) == fiber_polygon(s, g).area()
                assert area_newton(s, g) == area_newton_formula(s, g)


def _rational_morse_covector(support, rng):
    """A Morse covector of entries p/q, 0 <= p <= 200 and 1 <= q <= 12."""
    while True:
        gamma = covector_from_values(
            support,
            [Fraction(rng.randint(0, 200), rng.randint(1, 12)) for _ in support.points],
        )
        try:
            extract(support, gamma)
            return gamma
        except DegeneracyError:
            pass


def test_criterion_6_support_function_suite():
    with criterion(6, "1000-sample dominance per support plus homogeneity, < 60 s"):
        t0 = time.perf_counter()
        rng = random.Random(606)
        for pts in ([1, 2, 3, 4], [-3, -1, 1, 2, 4]):
            support = validate_support(pts)
            poly = build_polytope(support)
            for _ in range(1000):
                gamma = _rational_morse_covector(support, rng)
                mu = mu_value(support, gamma)
                values = [dot(v, gamma.values) for v in poly.vertices]
                assert max(values) == mu
                winners = [
                    v for v, val in zip(poly.vertices, values) if val == mu
                ]
                assert winners == [poly.vertex_of(extract(support, gamma))]
        support = validate_support([-3, -1, 1, 2, 4])
        gamma = covector_from_values(support, [3, 5, 2, 5, 1])
        base = mu_value(support, gamma)
        for _ in range(10):
            lam = Fraction(rng.randint(1, 90), rng.randint(1, 30))
            assert mu_value(support, gamma.scaled(lam)) == lam * base
        elapsed = time.perf_counter() - t0
        assert elapsed < 60.0, f"took {elapsed:.2f}s"


def test_criterion_7_strata_consistency():
    with criterion(7, "stratum-count relations, parity, and unit-range A2"):
        rng = random.Random(707)
        shift = ShiftConfig(0, 0)
        for pts in ([-3, -1, 1, 2, 4], [2, 3, 4, 6], [1, 2, 3, 4, 5],
                    [-6, -4, -3, -2]):
            support = validate_support(pts)
            for _ in range(30):
                gamma, _ = sample_morse_covector(support, rng, bound=50)
                ctype = extract(support, gamma)
                counts = strata_counts(support, gamma, shift)
                area = area_newton(support, gamma)
                w0, wk = ctype.w[0], ctype.w[-1]
                assert counts.chi_a1 + 2 * counts.n_2a1 + 2 * counts.n_a2 == -area
                assert counts.n_a2 == area - gamma(w0) - gamma(wk)
                corrections = sum(
                    (c_value(support, gamma, ctype, j) for j in range(ctype.k)),
                    start=Fraction(0),
                )
                assert counts.chi_a1 - counts.n_a2 == (
                    -fiber_polygon(support, gamma).area()
                    - (shift.c1 - 3 * w0 - 2) * gamma(w0)
                    - (shift.c2 + 3 * wk - 2) * gamma(wk)
                    - corrections
                )
                assert counts.parity_ok

        # concave covectors over [1, n]: |A2| = sum of 2 g(m) over interior m
        for n in (4, 5, 6):
            support = validate_support(list(range(1, n + 1)))
            found = 0
            while found < 5:
                peak = [rng.randint(n, 3 * n)]
                slopes = sorted(
                    rng.sample(range(-2 * n, 2 * n), n - 1), reverse=True
                )
                for s in slopes:
                    peak.append(peak[-1] + s)
                if min(peak) < 0:
                    continue
                gamma = covector_from_values(support, peak)
                try:
                    ctype = extract(support, gamma)
                except Exception:
                    continue
                if ctype.w != support.points:
                    continue
                counts = strata_counts(support, gamma, shift)
                assert counts.n_a2 == sum(2 * gamma(m) for m in range(2, n))
                found += 1


def test_criterion_8_specialization_agreement():
    with criterion(8, "positive closed form equals the general formula, all types"):
        shift = ShiftConfig(4, -18)
        for pts in ([1, 2, 3, 4], [1, 2, 3, 4, 5], [2, 3, 4, 6]):
            support = validate_support(pts)
            types = enumerate_types(support)
            assert types
            for ctype, _ in types:
                assert mu_coeffs_positive(support, ctype, shift) == mu_coeffs(
                    support, ctype, shift
                )
