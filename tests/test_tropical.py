"""Support validation, hull extraction, combinatorial data, classification."""

import random
from fractions import Fraction

import pytest

from morsekit import (
    CombinatorialType,
    Covector,
    DegenerateHull,
    DuplicatePoint,
    NotGenerating,
    RootValueDegenerate,
    SlopeDegenerate,
    TooShort,
    ZeroInSupport,
    area_newton,
    area_newton_formula,
    classify,
    covector_from_values,
    extract,
    parse_input_json,
    parse_rational,
    roots_and_values,
    upper_hull,
    validate_support,
)
from morsekit import tropical
from morsekit.errors import CovectorError, MalformedInput
from morsekit.tropical import _chain, check_slopes


# --- validate_support ---------------------------------------------------------


def test_valid_mixed_support():
    s = validate_support([-3, -1, 1, 2, 4])
    assert s.points == (-3, -1, 1, 2, 4)


def test_sorts_input():
    assert validate_support([4, 1, -3, 2, -1]).points == (-3, -1, 1, 2, 4)


def test_too_short():
    with pytest.raises(TooShort):
        validate_support([1, 2])


def test_not_generating():
    with pytest.raises(NotGenerating):
        validate_support([2, 4, 8])


def test_two_point_supports_never_valid():
    # |A| = 2 with hull length >= 3 always fails generation instead
    with pytest.raises(NotGenerating):
        validate_support([1, 4])
    with pytest.raises(TooShort):
        validate_support([1, 3])


def test_zero_rejected():
    with pytest.raises(ZeroInSupport):
        validate_support([0, 1, 4])


def test_duplicate_rejected():
    with pytest.raises(DuplicatePoint):
        validate_support([1, 2, 2, 5])


def test_non_integer_point_rejected():
    with pytest.raises(MalformedInput):
        validate_support([1, 2.5, 4])


def test_covector_rejects_negative_and_mismatch(mixed_support):
    with pytest.raises(CovectorError):
        Covector(mixed_support, (Fraction(-1), 0, 0, 0, 0))
    with pytest.raises(CovectorError):
        Covector(mixed_support, (1, 2, 3))
    with pytest.raises(CovectorError):
        Covector(mixed_support, (1, 2, 3, 4, 5)).scaled(-1)


@pytest.mark.parametrize(
    "first",
    [0.1, 0.5, True, False, float("inf"), float("nan")],
    ids=repr,
)
def test_covector_refuses_inexact_values(mixed_support, first):
    # a float that is not an integer carries its binary rounding, and a bool
    # is no number: the constructor refuses both, as parse_rational does
    with pytest.raises(CovectorError, match=f"not an exact value: {first!r}"):
        Covector(mixed_support, (first, 5, 2, 5, 1))


@pytest.mark.parametrize(
    "factor",
    [0.1, 0.5, True, False, float("inf"), float("nan")],
    ids=repr,
)
def test_scaled_refuses_inexact_factors(mixed_support, factor):
    # scaled(0.1) once took the float's binary rounding, and scaled(True)
    # was accepted as 1
    with pytest.raises(CovectorError, match=f"not an exact value: {factor!r}"):
        Covector(mixed_support, (3, 5, 2, 5, 1)).scaled(factor)


def test_int_values_stay_ints(mixed_support, mixed_gamma):
    gamma = Covector(mixed_support, (3, 5, 2, 5, 1))
    assert gamma == mixed_gamma
    assert [type(v) for v in gamma.values] == [int] * 5
    assert [type(v) for v in gamma.scaled(2).values] == [int] * 5
    assert [type(v) for v in gamma.scaled(2.0).values] == [Fraction] * 5
    assert gamma.scaled(Fraction(1, 2)).values[0] == Fraction(3, 2)
    assert [type(v) for v in mixed_gamma.values] == [Fraction] * 5
    # dot answers an int on the covector of ints, a Fraction on the other
    assert gamma.dot((1, 0, 0, 0, 0)) == mixed_gamma.dot((1, 0, 0, 0, 0)) == 3
    assert type(gamma.dot((1, 0, 0, 0, 0))) is int
    assert type(mixed_gamma.dot((1, 0, 0, 0, 0))) is Fraction


def test_covector_keeps_integral_floats_exact(mixed_support, mixed_gamma):
    assert Covector(mixed_support, (3.0, 5, 2.0, 5, 1)) == mixed_gamma
    assert covector_from_values(mixed_support, (3.0, 5, 2.0, 5, 1)) == mixed_gamma


@pytest.mark.parametrize(
    "values,message",
    [
        ((3, 5, 2, 5, True), "not an exact value: True"),
        ((3, 5, 2, 5), "4 values for 5 support points"),
        (
            (3, 5, Fraction(-1, 2), 5, 1),
            'negative entries not allowed: [3, 5, "-1/2", 5, 1]',
        ),
    ],
    ids=["bool", "length", "negative"],
)
def test_covector_checks_its_values(mixed_support, values, message):
    # the constructor is the one place values are checked; the kernels take
    # a Covector and read its values as they are
    with pytest.raises(CovectorError) as excinfo:
        Covector(mixed_support, values)
    assert str(excinfo.value) == message


def test_combinatorial_type_invariants():
    CombinatorialType((1, 3, 4), (1, 0), ((2,), (2,)))
    for w, z, m in (
        ((1,), (), ()),  # W of one exponent
        ((1, 3, 4), (0, 0), ((2,), (2,))),  # Z not a permutation
        ((1, 3, 4), (1, 0), ((2,),)),  # one ordering per root
    ):
        with pytest.raises(ValueError):
            CombinatorialType(w, z, m)


# --- upper hull ----------------------------------------------------------------


def test_hull_mixed_example(mixed_support, mixed_gamma):
    assert upper_hull(mixed_support, mixed_gamma) == [-3, -1, 2, 4]


def test_hull_deg4_example(deg4_support, deg4_gamma):
    assert upper_hull(deg4_support, deg4_gamma) == [1, 2, 4]


def test_hull_collinear_degenerate():
    s = validate_support([1, 2, 5])
    with pytest.raises(DegenerateHull) as err:
        upper_hull(s, covector_from_values(s, [0, 0, 0]))
    assert err.value.point == 2


def test_hull_point_exactly_on_edge():
    s = validate_support([1, 2, 3, 4])
    # gamma(2) sits exactly on the segment from (1,1) to (3,3)
    with pytest.raises(DegenerateHull) as err:
        upper_hull(s, covector_from_values(s, [1, 2, 3, 1]))
    assert err.value.point == 2 and err.value.edge == (1, 3)


def test_hull_vertices_built_once_per_covector(monkeypatch, mixed_support):
    # both Newton area routes and classify share one monotone chain; each
    # call still hands out its own list, and the cache is not a field
    chains = []

    def counting(points):
        chains.append(1)
        return _chain(points)

    monkeypatch.setattr(tropical, "_chain", counting)
    gamma = Covector(mixed_support, (3, 5, 2, 5, 1))
    twin = Covector(mixed_support, (3, 5, 2, 5, 1))
    before = repr(gamma), hash(gamma)
    first = gamma.hull_vertices()
    first.append(99)
    assert gamma.hull_vertices() == [-3, -1, 2, 4]
    assert gamma.hull_vertices() is not gamma.hull_vertices()
    assert area_newton(mixed_support, gamma) == area_newton_formula(mixed_support, gamma)
    assert classify(mixed_support, gamma).is_morse
    assert chains == [1]
    assert (repr(gamma), hash(gamma)) == before and gamma == twin


# --- roots and values ------------------------------------------------------------


def _roots_oracle(support, gamma, w):
    # independent evaluation of the defining quotients
    out = []
    for u, v in zip(w, w[1:]):
        r = Fraction(gamma(u) - gamma(v), 1) / (v - u)
        out.append((r, u * r + gamma(u)))
    return out


def test_roots_mixed_example(mixed_support, mixed_gamma):
    w = upper_hull(mixed_support, mixed_gamma)
    expected = _roots_oracle(mixed_support, mixed_gamma, w)
    assert expected == [(-1, 6), (0, 5), (2, 9)]  # frozen from the oracle
    assert roots_and_values(mixed_support, mixed_gamma, w) == expected
    # the middle root carries the smallest value, the last the largest
    phis = [phi for _, phi in expected]
    assert phis[1] < phis[0] < phis[2]


def test_roots_strictly_increasing(mixed_support, mixed_gamma):
    w = upper_hull(mixed_support, mixed_gamma)
    rs = [r for r, _ in roots_and_values(mixed_support, mixed_gamma, w)]
    assert rs == sorted(rs) and len(set(rs)) == len(rs)


def test_roots_scale_with_gamma(mixed_support, mixed_gamma):
    w = upper_hull(mixed_support, mixed_gamma)
    doubled = roots_and_values(mixed_support, mixed_gamma.scaled(2), w)
    single = roots_and_values(mixed_support, mixed_gamma, w)
    assert doubled == [(2 * r, 2 * phi) for r, phi in single]


# --- extract ---------------------------------------------------------------------


def test_extract_mixed_example(mixed_support, mixed_gamma):
    t = extract(mixed_support, mixed_gamma)
    assert t.w == (-3, -1, 2, 4)
    assert t.z == (1, 0, 2)
    assert t.m == ((2, 1, 4), (-3, 1, 4), (1, -1, -3))


def test_extract_deg4_example(deg4_support, deg4_gamma):
    t = extract(deg4_support, deg4_gamma)
    assert t.w == (1, 2, 4)
    assert t.z == (0, 1)
    assert t.m == ((3, 4), (3, 1))


def test_extract_no_interior_monomials():
    s = validate_support([1, 2, 4])
    t = extract(s, covector_from_values(s, [0, 0, 3]))
    assert t.w == (1, 4) and t.z == (0,) and t.m == ((2,),)


def test_extract_scale_invariant(mixed_support, mixed_gamma):
    t = extract(mixed_support, mixed_gamma)
    for lam in (Fraction(1, 3), Fraction(7, 2), 5):
        assert extract(mixed_support, mixed_gamma.scaled(lam)) == t


def test_extract_positive_support_z_increasing():
    rnd = random.Random(11)
    s = validate_support([1, 2, 3, 4, 5])
    done = 0
    while done < 50:
        g = Covector(s, tuple(Fraction(rnd.randint(0, 30)) for _ in s))
        try:
            t = extract(s, g)
        except (SlopeDegenerate, RootValueDegenerate, DegenerateHull):
            continue
        assert t.z == tuple(range(t.k))
        done += 1


def test_extract_negative_support_z_decreasing():
    rnd = random.Random(12)
    s = validate_support([-5, -4, -2, -1])
    done = 0
    while done < 50:
        g = Covector(s, tuple(Fraction(rnd.randint(0, 30)) for _ in s))
        try:
            t = extract(s, g)
        except (SlopeDegenerate, RootValueDegenerate, DegenerateHull):
            continue
        assert t.z == tuple(reversed(range(t.k)))
        done += 1


def test_extract_values_distinct_within_chains(mixed_support, mixed_gamma):
    t = extract(mixed_support, mixed_gamma)
    rv = roots_and_values(mixed_support, mixed_gamma, list(t.w))
    for j, chain in enumerate(t.m):
        vals = [mixed_gamma(p) + p * rv[j][0] for p in chain]
        assert vals == sorted(vals, reverse=True)
        assert len(set(vals)) == len(vals)


def test_extract_slope_degenerate_has_witness(mixed_support):
    g = covector_from_values(mixed_support, [3, 5, 2, 5, "5/4"])
    with pytest.raises(SlopeDegenerate) as err:
        extract(mixed_support, g)
    (p, q), (r, s) = err.value.pair_a, err.value.pair_b
    # the two reported segments really do share a slope
    assert (g(q) - g(p)) * (s - r) == (g(s) - g(r)) * (q - p)
    # the witness is the first tie in lexicographic pair order: three pairs
    # share slope 1/2 here, and with slopes 1 and 1/3 tied, the earlier
    # group wins even though its slope is larger
    for values, pairs in (
        ([1, 2, 3, 4, 4], ((-3, -1), (-3, 1))),
        ([0, 0, 2, 1, 3], ((-1, 1), (2, 4))),
    ):
        with pytest.raises(SlopeDegenerate) as err:
            check_slopes(mixed_support, covector_from_values(mixed_support, values))
        assert (err.value.pair_a, err.value.pair_b) == pairs


def test_extract_root_value_degenerate(mixed_support):
    g = covector_from_values(mixed_support, [3, 5, 2, 5, 4])
    with pytest.raises(RootValueDegenerate) as err:
        extract(mixed_support, g)
    assert (err.value.index_a, err.value.index_b) == (0, 2)
    assert err.value.value == 6


def test_first_of_two_root_value_ties_is_reported():
    # roots 0 and 4 share a value, and so do roots 1 and 3; extract and
    # classify both name the first pair in lexicographic order
    s = validate_support([-4, -3, -1, 2, 5, 6])
    g = covector_from_values(s, [0, 15, 25, 34, 40, 36])
    values = [phi for _, phi in roots_and_values(s, g, upper_hull(s, g))]
    assert values[0] == values[4] and values[1] == values[3]
    with pytest.raises(RootValueDegenerate) as err:
        extract(s, g)
    assert (err.value.index_a, err.value.index_b, err.value.value) == (0, 4, 60)
    assert classify(s, g).maxwell_witness == (0, 4, 60)


def test_everything_is_exact(mixed_support, mixed_gamma):
    rv = roots_and_values(
        mixed_support, mixed_gamma, upper_hull(mixed_support, mixed_gamma)
    )
    assert all(isinstance(r, Fraction) and isinstance(p, Fraction) for r, p in rv)


# --- classify ----------------------------------------------------------------------


def test_classify_morse(mixed_support, mixed_gamma):
    c = classify(mixed_support, mixed_gamma)
    assert c.is_morse and c.maxwell_witness is None and c.caustic_witness is None


def test_classify_caustic_collinear():
    s = validate_support([1, 2, 5])
    c = classify(s, covector_from_values(s, [0, 0, 0]))
    assert c.kind == "caustic"
    root, pair = c.caustic_witness
    assert root == 0


def test_classify_maxwell(mixed_support):
    # phi-values (6, 5, 6): the outer roots tie, and no extra pair ties at any
    # root (verified by the exhaustive comparison in
    # tests/reference_slopes.py::reference_classify and frozen here)
    g = covector_from_values(mixed_support, [3, 5, 2, 5, 4])
    c = classify(mixed_support, g)
    assert c.kind == "maxwell"
    i, j, value = c.maxwell_witness
    assert (i, j, value) == (0, 2, 6)


def test_classify_maxwell_and_caustic():
    s = validate_support([-2, -1, 1, 2])
    # mirror-symmetric data: phi = (2, 1, 2) and the pair {-2, 2} ties at the
    # middle root
    c = classify(s, covector_from_values(s, [0, 1, 1, 0]))
    assert c.kind == "maxwell_and_caustic"


def test_classify_morse_despite_slope_tie(mixed_support):
    # slope((-3,1)) == slope((1,4)) away from every root: Morse by the
    # stratum definitions, yet extraction refuses (global slope condition)
    g = covector_from_values(mixed_support, [3, 5, 2, 5, "5/4"])
    assert classify(mixed_support, g).is_morse
    with pytest.raises(SlopeDegenerate):
        extract(mixed_support, g)


def test_extract_succeeds_iff_morse_and_slopes_hold(mixed_support):
    rnd = random.Random(5)
    agree = 0
    for _ in range(300):
        g = Covector(
            mixed_support, tuple(Fraction(rnd.randint(0, 8)) for _ in mixed_support)
        )
        c = classify(mixed_support, g)
        try:
            extract(mixed_support, g)
            ok = True
        except (SlopeDegenerate, RootValueDegenerate, DegenerateHull):
            ok = False
        if ok:
            assert c.is_morse
            agree += 1
        # the converse may fail only through an off-root slope tie
    assert agree > 50


# --- JSON interface -------------------------------------------------------------


def test_parse_input_json_rationals():
    support, gamma = parse_input_json(
        {"A": [4, 1, -3, 2, -1], "gamma": ["3", 5, "2/1", 5, "5/4"]}
    )
    assert support.points == (-3, -1, 1, 2, 4)
    assert gamma.values == (3, 5, 2, 5, Fraction(5, 4))


def test_parse_input_json_without_gamma():
    support, gamma = parse_input_json({"A": [1, 2, 3, 4]})
    assert gamma is None and len(support) == 4


def test_parse_rational_rejects_float_contamination():
    assert parse_rational(2.0) == 2
    with pytest.raises(MalformedInput):
        parse_rational(0.5)
    with pytest.raises(MalformedInput):
        parse_rational("3/0")


def test_parse_rational_rejects_other_types():
    for value in (True, [1], None):
        with pytest.raises(MalformedInput):
            parse_rational(value)


def test_parse_input_rejects_bad_shapes():
    with pytest.raises(MalformedInput):
        parse_input_json(["not", "an", "object"])
    with pytest.raises(MalformedInput):
        parse_input_json({"A": [1, 2, 4], "gamma": "nope"})
