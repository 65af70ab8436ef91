"""Gcd ladders, correction sums by both routes, fork-sequence invariants."""

import random
from fractions import Fraction
from math import gcd

import pytest

from morsekit import (
    NonIntegerCovector,
    c_coeffs,
    c_value,
    c_value_via_levels,
    chi_fork,
    covector_from_values,
    extract,
    facet_functional,
    gcd_ladder,
    level_scan,
    sample_morse_covector,
    validate_support,
)

from conftest import dot


# --- gcd ladders ---------------------------------------------------------------


def test_ladder_mixed_example(mixed_support, mixed_gamma):
    t = extract(mixed_support, mixed_gamma)
    assert gcd_ladder(t.w, 2, t.m[2])[:3] == (2, 1, 1)
    assert gcd_ladder(t.w, 0, t.m[0]) == (1, 1, 1, 1)
    assert gcd_ladder(t.w, 1, t.m[1]) == (1, 1, 1, 1)


def test_ladder_deg4_example(deg4_support, deg4_gamma):
    t = extract(deg4_support, deg4_gamma)
    assert t.w == (1, 2, 4) and t.m[1] == (3, 1)
    assert gcd_ladder(t.w, 1, t.m[1]) == (2, 1, 1)


def test_ladder_coprime_edge_is_all_ones():
    assert gcd_ladder((1, 2, 4), 0, (3, 4)) == (1, 1, 1)


def test_ladder_divisibility_invariant():
    ladder = gcd_ladder((2, 4, 6), 0, (6, -9, 1))
    assert ladder[0] == gcd(2, 4) == 2
    for a, b in zip(ladder, ladder[1:]):
        assert a % b == 0
    assert ladder[-1] == 1


# --- C^j coefficients ----------------------------------------------------------


def test_c_coeffs_mixed_example(mixed_support, mixed_gamma):
    t = extract(mixed_support, mixed_gamma)
    # exponents           -3  -1   1   2   4
    assert c_coeffs(mixed_support, t, 2) == (0, 0, 2, -3, 1)
    assert c_coeffs(mixed_support, t, 0) == (0, 0, 0, 0, 0)
    assert c_coeffs(mixed_support, t, 1) == (0, 0, 0, 0, 0)


def test_c_coeffs_deg4_example(deg4_support, deg4_gamma):
    t = extract(deg4_support, deg4_gamma)
    assert c_coeffs(deg4_support, t, 1) == (0, -1, 2, -1)
    assert c_coeffs(deg4_support, t, 0) == (0, 0, 0, 0)


def test_c_value_is_dot_product(mixed_support, mixed_gamma):
    t = extract(mixed_support, mixed_gamma)
    expected = dot((0, 0, 2, -3, 1), mixed_gamma.values)
    assert expected == -10  # frozen: 2*2 - 3*5 + 1*1
    assert c_value(mixed_support, mixed_gamma, t, 2) == expected


def test_c_value_zero_for_coprime_edges(mixed_support, mixed_gamma):
    t = extract(mixed_support, mixed_gamma)
    assert c_value(mixed_support, mixed_gamma, t, 0) == 0
    assert c_value(mixed_support, mixed_gamma, t, 1) == 0


def test_c_value_linear_in_gamma(mixed_support, mixed_gamma):
    t = extract(mixed_support, mixed_gamma)
    for lam in (2, Fraction(3, 7)):
        assert (
            c_value(mixed_support, mixed_gamma.scaled(lam), t, 2)
            == lam * -10
        )


def test_c_coeffs_zero_iff_no_ladder_drop():
    s = validate_support([2, 3, 4, 6])
    rnd = random.Random(2)
    for _ in range(40):
        gamma, _, _ = sample_morse_covector(s, rnd, bound=20)
        t = extract(s, gamma)
        for j in range(t.k):
            ladder = gcd_ladder(t.w, j, t.m[j])
            drops = any(a != b for a, b in zip(ladder, ladder[1:]))
            is_zero = all(c == 0 for c in c_coeffs(s, t, j))
            assert is_zero == (not drops)


# --- chi of fork sequences -------------------------------------------------------


def test_chi_fork_values():
    assert chi_fork((1,)) == 1
    assert chi_fork((2, 1)) == 0  # 2 - 2*1: a transversal node
    assert chi_fork((2, 2, 1)) == -2  # 2 - 2*2


def test_chi_fork_rejects_bad_sequences():
    for bad in ((), (3, 2), (2, 0, 1), (4, 3, 1), (2, 2)):
        with pytest.raises(ValueError):
            chi_fork(bad)


def _all_fork_sequences(max_head, max_len):
    """Enumerate valid fork sequences (divisibility chains ending in 1)."""
    out = []

    def grow(seq):
        if seq[-1] == 1:
            out.append(tuple(seq))
            return
        if len(seq) == max_len:
            return
        for nxt in range(1, seq[-1] + 1):
            if seq[-1] % nxt == 0:
                grow(seq + [nxt])

    for head in range(1, max_head + 1):
        grow([head])
    return out


def test_chi_fork_weakly_decreasing_in_entries():
    seqs = set(_all_fork_sequences(8, 4))
    for seq in seqs:
        for pos in range(len(seq)):
            for bigger in range(seq[pos] + 1, 13):
                cand = seq[:pos] + (bigger,) + seq[pos + 1 :]
                if cand in seqs:
                    assert chi_fork(cand) <= chi_fork(seq), (seq, cand)


# --- facet functionals and the level route ---------------------------------------


def test_facet_functional_mixed_example(mixed_support, mixed_gamma):
    t = extract(mixed_support, mixed_gamma)
    ff = facet_functional(mixed_support, mixed_gamma, t, 2)
    # unreduced normal (4, 18, 2) has content 2
    assert ff.coeffs == (2, 9, 1)
    assert ff.level == 9
    assert ff.volume == 2


def test_facet_functional_other_edges(mixed_support, mixed_gamma, deg4_support, deg4_gamma):
    t = extract(mixed_support, mixed_gamma)
    # edge 0: unreduced (-2, 12, 2), content 2; its fork sequence is still
    # trivial because gcd(w_0, w_1) = 1
    ff0 = facet_functional(mixed_support, mixed_gamma, t, 0)
    assert (ff0.coeffs, ff0.level, ff0.volume) == ((-1, 6, 1), 6, 2)
    # primitive case: deg-4 edge 0 has unreduced normal (-3, -2, 1)
    t4 = extract(deg4_support, deg4_gamma)
    ff4 = facet_functional(deg4_support, deg4_gamma, t4, 0)
    assert (ff4.coeffs, ff4.level, ff4.volume) == ((-3, -2, 1), -2, 1)


def test_facet_functional_rejects_rational(mixed_support):
    g = covector_from_values(mixed_support, [3, 5, 2, 5, "1/2"])
    t = extract(mixed_support, g)
    with pytest.raises(NonIntegerCovector):
        facet_functional(mixed_support, g, t, 0)


def test_level_scan_mixed_example(mixed_support, mixed_gamma):
    t = extract(mixed_support, mixed_gamma)
    runs, ff = level_scan(mixed_support, mixed_gamma, t, 2)
    # the fork sequence (2, 2, 2, 2, 2, 1), run-length encoded
    assert runs == ((2, 5), (1, 1))
    assert ff.volume == 2
    assert c_value_via_levels(mixed_support, mixed_gamma, t, 2) == -10


def test_level_scan_inner_edges_vanish(mixed_support, mixed_gamma):
    t = extract(mixed_support, mixed_gamma)
    assert c_value_via_levels(mixed_support, mixed_gamma, t, 0) == 0
    assert c_value_via_levels(mixed_support, mixed_gamma, t, 1) == 0


def test_level_scan_coprime_edge_trivial():
    s = validate_support([1, 2, 4])
    g = covector_from_values(s, [0, 3, 1])
    t = extract(s, g)
    for j in range(t.k):
        if gcd(t.w[j], t.w[j + 1]) == 1:
            runs, _ = level_scan(s, g, t, j)
            assert runs == ((1, 1),)


def test_distance_consistency_first_monomial():
    # the number of levels before the fork sequence can first drop equals the
    # lattice distance from the first ordered monomial to the facet plane
    sets = ([-3, -1, 1, 2, 4], [2, 3, 4, 6], [-6, -4, -3, -2])
    rnd = random.Random(9)
    for pts in sets:
        s = validate_support(pts)
        for _ in range(25):
            gamma, _, _ = sample_morse_covector(s, rnd, bound=30)
            t = extract(s, gamma)
            for j in range(t.k):
                ff = facet_functional(s, gamma, t, j)
                m = t.m[j][0]
                u, v = t.w[j], t.w[j + 1]
                expected_gap = (
                    (v - m) * gamma(u) + (m - u) * gamma(v) - (v - u) * gamma(m)
                )
                h1, h2, h3 = ff.coeffs
                level_of_m = h1 * m + h3 * int(gamma(m))
                assert ff.volume * (ff.level - level_of_m) == expected_gap


def test_dual_routes_agree_on_samples():
    sets = ([-3, -1, 1, 2, 4], [2, 3, 4, 6], [1, 2, 3, 4, 5], [-2, -1, 1, 2])
    rnd = random.Random(21)
    for pts in sets:
        s = validate_support(pts)
        for _ in range(30):
            gamma, _, _ = sample_morse_covector(s, rnd, bound=40)
            t = extract(s, gamma)
            for j in range(t.k):
                assert c_value(s, gamma, t, j) == c_value_via_levels(s, gamma, t, j)


def test_dual_routes_agree_for_tiny_values():
    # small covector values push the base points (a_0,0,0), (a_max,0,0) into
    # the level scan early; their first coordinates must never perturb the
    # fork sequence away from the ladder route
    sets = ([2, 3, 4, 6], [-6, -4, -3, -2], [-4, -2, 3, 4], [2, 4, 5, 8])
    rnd = random.Random(77)
    for pts in sets:
        s = validate_support(pts)
        for _ in range(40):
            gamma, _, _ = sample_morse_covector(s, rnd, bound=4)
            t = extract(s, gamma)
            for j in range(t.k):
                assert c_value(s, gamma, t, j) == c_value_via_levels(s, gamma, t, j)


def test_level_scan_rejects_rational_but_level_route_agrees(mixed_support):
    g = covector_from_values(mixed_support, ["3/2", 5, 2, 5, "1/2"])
    t = extract(mixed_support, g)
    with pytest.raises(NonIntegerCovector):
        level_scan(mixed_support, g, t, 2)
    for j in range(t.k):
        assert c_value_via_levels(mixed_support, g, t, j) == c_value(
            mixed_support, g, t, j
        )
