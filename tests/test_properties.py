"""Property tests: the simplex against a reference, the Farkas-core store,
the exact-rational round trip, the covector kernels, the slope table against
reference tie tests, and support validation."""

import itertools
import json
import random
from dataclasses import fields, is_dataclass
from fractions import Fraction
from math import gcd

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import example, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from morsekit import (  # noqa: E402
    CombinatorialType,
    Covector,
    ShiftConfig,
    StrictSystem,
    area_newton,
    area_newton_formula,
    c_value,
    c_value_via_levels,
    classify,
    covector_from_values,
    extract,
    feasible,
    fiber_polygon,
    level_scan,
    mu_value,
    newton_polygon_vertices,
    roots_and_values,
    strata_counts,
    validate_support,
    vol_fiber_closed,
)
from morsekit import cones  # noqa: E402
from morsekit.errors import (  # noqa: E402
    DegenerateHull,
    DegeneracyError,
    DuplicatePoint,
    MorsekitError,
    NotGenerating,
    NumberTooLarge,
    RootValueDegenerate,
    SlopeDegenerate,
    TooShort,
    ZeroInSupport,
)
from morsekit.rationals import (  # noqa: E402
    clear_denominators,
    common_denominator,
    parse_rational,
    rational_to_json,
)
from morsekit.tropical import check_slopes, slope_groups  # noqa: E402
from morsekit.verify import SAMPLE_BOUND, PackedHeights  # noqa: E402
from conftest import as_fractions, time_limit  # noqa: E402
from reference_extract import (  # noqa: E402
    reference_extract,
    reference_roots_and_values,
)
from reference_level_scan import reference_level_scan  # noqa: E402
from reference_simplex import reference_feasible  # noqa: E402
from reference_slopes import reference_check_slopes, reference_classify  # noqa: E402

MAX_FORMS = 8
# far above the milliseconds an example takes; a pivot loop that stops
# terminating fails instead of hanging the suite
EXAMPLE_SECONDS = 10


@st.composite
def random_systems(draw):
    """1-6 variables, up to 12 forms, coefficients in [-9, 9], some of them
    fractions, and some forms shorter than the number of variables."""
    nvars = draw(st.integers(1, 6))
    coefficient = st.one_of(
        st.integers(-9, 9),
        st.fractions(min_value=-9, max_value=9, max_denominator=9),
    )
    form = st.lists(coefficient, min_size=1, max_size=nvars).map(tuple)
    return nvars, tuple(draw(st.lists(form, max_size=12)))


@st.composite
def wide_systems(draw):
    """1-8 variables, up to 16 forms, integer coefficients up to 10^12 in
    absolute value next to small ones, and some fractions with denominators
    up to 10^12: wide packed fields, and more rows than fit a narrow one."""
    nvars = draw(st.integers(1, 8))
    coefficient = st.one_of(
        st.integers(-(10**12), 10**12),
        st.integers(-3, 3),
        st.fractions(
            min_value=-(10**12), max_value=10**12, max_denominator=10**12
        ),
    )
    form = st.lists(coefficient, min_size=1, max_size=nvars).map(tuple)
    return nvars, tuple(draw(st.lists(form, max_size=16)))


def _check_against_the_reference(nvars, forms):
    store, reference_store = {}, {}
    with time_limit(EXAMPLE_SECONDS):
        solved = feasible(StrictSystem(nvars, forms, store))
        expected = reference_feasible(StrictSystem(nvars, forms, reference_store))
    # the same Bland pivots: the same witness, as integers over one positive int
    answer = as_fractions(solved)
    assert answer == expected
    if solved is not None:
        numerators, det = solved
        assert all(type(x) is int for x in (*numerators, det)) and det > 0
    # an empty answer files one core under each of its forms: a subset of
    # the forms, empty on its own, and no larger than the objective row's
    cores = {core for filed in store.values() for core in filed}
    reference_cores = {core for filed in reference_store.values() for core in filed}
    assert len(cores) == len(reference_cores) == (answer is None)
    assert set(store) == {form for core in cores for form in core}
    for core, reference_core in zip(cores, reference_cores):
        assert all(core in store[form] for form in core)
        assert core <= set(forms)
        assert reference_feasible(StrictSystem(nvars, tuple(core))) is None
        assert len(core) <= len(reference_core)
    return answer


# one shrunk failure is enough: a pivot bug tends to show up as several
# distinct errors, and shrinking each of them takes minutes
@settings(max_examples=500, deadline=None, report_multiple_bugs=False)
@given(random_systems())
def test_feasible_matches_the_reference_simplex(case):
    _check_against_the_reference(*case)


@settings(max_examples=500, deadline=None, report_multiple_bugs=False)
@given(wide_systems())
def test_feasible_matches_the_reference_simplex_on_wide_systems(case):
    _check_against_the_reference(*case)


def test_coefficients_near_2_to_the_100_match_the_reference():
    # entries this wide overflow any fixed 64-bit field; the packed rows
    # size their fields from the forms of each system
    rnd = random.Random(31)
    verdicts = set()
    for _ in range(40):
        nvars = rnd.randint(2, 5)
        forms = tuple(
            tuple(
                rnd.choice((-1, 0, 1)) * (2**100 - rnd.randint(0, 2**20))
                for _ in range(nvars)
            )
            for _ in range(rnd.randint(2, 8))
        )
        verdicts.add(_check_against_the_reference(nvars, forms) is None)
    assert verdicts == {True, False}


def test_objective_row_sums_many_rows():
    # the objective row adds up the rows of the basic artificials, so with
    # many rows it holds entries far above any single row's
    check = _check_against_the_reference
    assert check(1, ((1,),) * 40) == (1,)
    assert check(1, tuple((k,) for k in range(1, 41))) == (1,)
    assert check(2, ((1, 1),) * 30 + ((-1, -1),)) is None
    assert check(3, ((1, -1, 1),) * 20 + ((-1, 2, -1),) * 20) is not None
    # zero forms make the width bound nearly tight: every minor is at most
    # 1, and the objective's right-hand side is the number of rows
    for m in (2, 3, 6, 7):
        assert check(2, ((0, 0),) * m) is None


@pytest.mark.parametrize(
    "nvars,forms",
    [
        (2, ((1, -1), (1, 1))),
        (2, ((2, -3), (0, 1), (1, -1))),
        (3, ((1, 1, -5), (-1, 0, 1), (0, 0, 1))),
        (3, ((4, 1, -9), (1, -2, -1), (-1, 3, 1))),
        (2, ((1, -1), (-1, 1))),
    ],
)
def test_a_negative_top_slot_borrows_across_a_row_boundary(nvars, forms):
    # the whole dictionary is one int, row i at bit stride i: a row whose
    # top slot is negative is a negative int, so in the table's bits it
    # borrows from the next row, whose right-hand side 1 then reads 0
    width = cones._field_width([cones._cleared(f)[2] for f in forms], nvars)[1]
    stride = width * (nvars + 1)
    rows = [cones._packed(cones._cleared(f)[0], width) for f in forms]
    table = sum(row << stride * i for i, row in enumerate(rows))
    assert table >> stride & ((1 << width) - 1) == 0
    _check_against_the_reference(nvars, forms)


def test_forty_rows_on_eight_variables_match_the_reference():
    # many row boundaries in one int, and an objective row summing them
    rnd = random.Random(40)
    verdicts = set()
    for _ in range(12):
        low = rnd.choice((-9, -3, -1))
        forms = tuple(
            tuple(rnd.randint(low, 9) for _ in range(8))
            for _ in range(rnd.randint(30, 40))
        )
        verdicts.add(_check_against_the_reference(8, forms) is None)
    assert _check_against_the_reference(8, ((1,) * 8,) * 40) == (1,) + (0,) * 7
    assert verdicts == {True, False}


def test_a_det_past_two_cpython_digits_matches_the_reference():
    # CPython ints have 30-bit digits on 64-bit builds, so once det passes
    # 2^30 a pivot divides the dictionary by a two-digit int
    forms = ((59569, 8613), (-44870, 43681), (-20493, 44772))
    _, det = feasible(StrictSystem(2, forms))
    assert det > 2**30
    assert _check_against_the_reference(2, forms) is not None
    negated = tuple(-sum(column) for column in zip(*forms))
    assert _check_against_the_reference(2, forms + (negated,)) is None


def _det(matrix) -> int:
    # Leibniz: exact, and orders of at most 4 make 24 terms
    total = 0
    for perm in itertools.permutations(range(len(matrix))):
        inversions = sum(a > b for a, b in itertools.combinations(perm, 2))
        term = -1 if inversions % 2 else 1
        for row, col in zip(matrix, perm):
            term *= row[col]
        total += term
    return total


@st.composite
def small_integer_systems(draw):
    """1-3 variables, 1-5 integer forms, small coefficients next to ones
    near 10^10 (the Z forms of [1,2,3,100000] reach that size)."""
    nvars = draw(st.integers(1, 3))
    coefficient = st.one_of(
        st.integers(-3, 3),
        st.integers(10**10 - 9, 10**10 + 9),
        st.integers(-(10**10), 10**10),
    )
    form = st.lists(coefficient, min_size=nvars, max_size=nvars).map(tuple)
    return nvars, draw(st.lists(form, min_size=1, max_size=5))


@settings(max_examples=200, deadline=None)
@given(small_integer_systems())
@example((2, [(0, 0)] * 3))
@example((3, [(0, 0, 0)] * 5))
@example((1, [(10**10,), (-(10**10),), (10**10 - 1,)]))
def test_width_bounds_every_minor_by_brute_force(case):
    # every square minor of [L | 1] of order <= n + 1 is at most H, the
    # objective row's (m + 1) H fits below the sign bit of the field, and
    # the field is no wider than that needs
    nvars, forms = case
    weights = [sum(c * c for c in form) + 1 for form in forms]
    assert weights == [cones._cleared(form)[2] for form in forms]
    bound, width = cones._field_width(weights, nvars)
    m = len(forms)
    assert 2 ** (width - 2) <= (m + 1) * bound < 2 ** (width - 1)
    augmented = [(*form, 1) for form in forms]
    largest = 0
    for order in range(1, min(m, nvars + 1) + 1):
        for rows in itertools.combinations(augmented, order):
            for columns in itertools.combinations(range(nvars + 1), order):
                minor = _det([[row[j] for j in columns] for row in rows])
                largest = max(largest, abs(minor))
    assert largest <= bound
    # zero forms, where the width is tightest: the ones column alone gives
    # minors of 1, and the bound is 1
    if not any(map(any, forms)):
        assert largest == bound == 1


@st.composite
def branching_systems(draw, nvars):
    """A shared base and sibling branches grown from it, at most 8 forms each.

    The enumeration grows systems the same way: every branch starts from one
    base and appends one form at a time, and all of them share one store.
    A branch is a list of (form, the comparisons it implies), here none.
    """
    nvars = draw(nvars)
    form = st.tuples(*[st.integers(-3, 3)] * nvars)
    base = draw(st.lists(form, max_size=3))
    room = MAX_FORMS - len(base)
    branches = draw(st.lists(st.lists(form, min_size=1, max_size=room), min_size=1, max_size=4))
    return nvars, tuple(base), [[(f, ()) for f in branch] for branch in branches]


@st.composite
def chain_systems(draw):
    """A branch that holds the sum of a chain of forms, then the chain itself.

    In the enumeration a sibling compares p with r directly, and a chain
    p > q > r appends the two forms whose sum that comparison is, and
    implies the sum.  Here each form of the chain implies its sums with the
    forms before it.  The negated sum, sometimes in the base or the
    sibling, makes small empty cores common.
    """
    nvars = draw(st.integers(2, 6))
    random_form = st.tuples(*[st.integers(-3, 3)] * nvars)
    chain = draw(st.lists(random_form, min_size=2, max_size=4))
    total = tuple(map(sum, zip(*chain)))
    form = st.one_of(random_form, st.just(tuple(-c for c in total)))
    base = draw(st.lists(form, max_size=2))
    sibling = draw(st.permutations([total, *draw(st.lists(form, min_size=1, max_size=3))]))
    grown = [
        (f, [tuple(map(sum, zip(*chain[j : i + 1]))) for j in range(i)])
        for i, f in enumerate(chain)
    ]
    return nvars, tuple(base), [[(f, ()) for f in sibling], grown]


def _grow(nvars, base, branches, store):
    """Every prefix of every branch, solved with the shared store."""
    for branch in branches:
        system = StrictSystem(nvars, base, store)
        yield system, feasible(system)
        for extra, implied in branch:
            system = system.extended([extra], implied)
            yield system, feasible(system)


grown_systems = st.one_of(branching_systems(st.integers(2, 6)), chain_systems())


@settings(max_examples=500, deadline=None)
@given(grown_systems)
def test_store_never_changes_an_answer(case):
    nvars, base, branches = case
    store = {}
    for system, answer in _grow(nvars, base, branches, store):
        assert system.learned is store
        # the same forms without a store: the same witness, point for point
        assert answer == feasible(StrictSystem(nvars, system.forms))


@settings(max_examples=500, deadline=None)
@given(grown_systems)
def test_every_recorded_core_is_empty(case):
    nvars, base, branches = case
    store = {}
    for _ in _grow(nvars, base, branches, store):
        pass
    for form, cores in store.items():
        for core in cores:
            assert form in core
            assert feasible(StrictSystem(nvars, tuple(sorted(core)))) is None


@given(st.fractions())
def test_rational_json_round_trip(value):
    encoded = rational_to_json(value)
    assert parse_rational(encoded) == value
    assert parse_rational(json.loads(json.dumps(encoded))) == value
    assert isinstance(encoded, int) == (value.denominator == 1)


def test_rational_json_past_the_digit_limit_raises():
    # ints and Fractions alike: a number JSON could not print is refused
    for value in (10**5000, Fraction(10**5000, 3), Fraction(1, 10**5000)):
        with pytest.raises(NumberTooLarge):
            rational_to_json(value)


@given(st.integers(), st.integers(1, 10**30))
def test_rational_strings_parse_exactly(num, den):
    assert parse_rational(f"{num}/{den}") == Fraction(num, den)
    assert parse_rational(f" {num} / {den} ") == Fraction(num, den)


SUPPORTS = [
    validate_support(points)
    for points in ([1, 2, 3, 4], [2, 3, 4, 6], [-3, -1, 1, 2, 4], [1, 2, 3, 4, 5, 6])
]


@st.composite
def covectors(draw):
    """Covectors on a few supports, with small integer or rational values, so
    that walls between cones are common."""
    support = draw(st.sampled_from(SUPPORTS))
    value = st.one_of(
        st.integers(0, 12),
        st.fractions(min_value=0, max_value=12, max_denominator=6),
    )
    values = draw(st.lists(value, min_size=len(support), max_size=len(support)))
    return Covector(support, tuple(values))


@settings(max_examples=300, deadline=None)
@given(covectors())
def test_extract_success_means_morse(gamma):
    try:
        extract(gamma.support, gamma)
    except DegeneracyError:
        return
    assert classify(gamma.support, gamma).is_morse


@settings(max_examples=300, deadline=None)
@given(
    covectors(),
    st.fractions(min_value=Fraction(1, 100), max_value=100, max_denominator=100),
    st.sampled_from([ShiftConfig(), ShiftConfig(4, -30), ShiftConfig(1, -2)]),
)
def test_mu_value_is_homogeneous(gamma, c, shift):
    try:
        mu = mu_value(gamma.support, gamma, shift)
    except DegeneracyError:
        return
    assert mu_value(gamma.support, gamma.scaled(c), shift) == c * mu


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_covector_dot_equals_the_fraction_sum(data):
    # denominators are cleared once inside dot; the value must not move
    support = data.draw(st.sampled_from(SUPPORTS))
    size = len(support)
    entry = st.builds(Fraction, st.integers(0, 10**30), st.integers(1, 10**6))
    values = data.draw(st.lists(entry, min_size=size, max_size=size))
    coeff = st.one_of(
        st.integers(-(10**30), 10**30),
        st.builds(Fraction, st.integers(-(10**30), 10**30), st.integers(1, 10**6)),
    )
    coeffs = data.draw(st.lists(coeff, min_size=size, max_size=size))
    got = Covector(support, tuple(values)).dot(coeffs)
    assert type(got) is Fraction
    assert got == sum((c * v for c, v in zip(coeffs, values)), start=Fraction(0))


# a 61-digit exponent makes the lcm of the exponent gaps about 10^180
TIE_SUPPORTS = SUPPORTS + [validate_support([1, 2, 3, 10**60 + 1])]


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_integer_covector_computes_in_ints(data):
    # dot and the level route answer ints on a covector of ints, Fractions
    # on any other, and the same values as in Fractions
    support = data.draw(st.sampled_from(TIE_SUPPORTS))
    size = len(support)
    ints = data.draw(st.lists(st.integers(0, 50), min_size=size, max_size=size))
    gamma = Covector(support, tuple(ints))
    coeffs = data.draw(
        st.lists(st.integers(-(10**30), 10**30), min_size=size, max_size=size)
    )
    dens = data.draw(st.lists(st.integers(1, 10**6), min_size=size, max_size=size))
    for form, kind in ((coeffs, int), (list(map(Fraction, coeffs, dens)), Fraction)):
        got = gamma.dot(form)
        assert type(got) is kind
        assert got == sum((c * v for c, v in zip(form, ints)), start=Fraction(0))

    # a denominator above every entry makes each nonzero entry non-integral
    q = max(ints) + data.draw(st.integers(1, 10))
    for covector, kind in (
        (gamma, int),
        (covector_from_values(support, ints), Fraction),
        (gamma.scaled(Fraction(1, q)), Fraction),
    ):
        try:
            ctype = extract(support, covector)
        except DegeneracyError:
            return  # a positive scaling keeps a wall a wall
        for j in range(ctype.k):
            ladder = c_value(support, covector, ctype, j)
            levels = c_value_via_levels(support, covector, ctype, j)
            assert type(ladder) is type(levels) is kind
            assert levels == ladder


@st.composite
def tie_heavy_covectors(draw):
    """Covectors on a grid of values 0-3, with rational entries, or with
    entries up to 10^12, so that slope ties, caustic pairs and equal root
    values are common on the first two and exact keys grow on the last."""
    support = draw(st.sampled_from(TIE_SUPPORTS))
    value = draw(
        st.sampled_from(
            [
                st.integers(0, 3),
                st.fractions(min_value=0, max_value=3, max_denominator=4),
                st.integers(0, 10**12),
            ]
        )
    )
    values = draw(st.lists(value, min_size=len(support), max_size=len(support)))
    return Covector(support, tuple(values))


def _slope_verdict(check, gamma):
    try:
        check(gamma.support, gamma)
    except SlopeDegenerate as exc:
        return type(exc), exc.pair_a, exc.pair_b
    return None


@settings(max_examples=500, deadline=None)
@given(tie_heavy_covectors())
def test_check_slopes_matches_the_reference(gamma):
    assert _slope_verdict(check_slopes, gamma) == _slope_verdict(
        reference_check_slopes, gamma
    )


@settings(max_examples=500, deadline=None)
@given(tie_heavy_covectors())
def test_classify_matches_the_reference(gamma):
    assert classify(gamma.support, gamma) == reference_classify(gamma.support, gamma)


@settings(max_examples=500, deadline=None)
@given(tie_heavy_covectors())
def test_extract_root_value_tie_matches_the_reference(gamma):
    # past the hull and slope checks, extract's first equal root values are
    # the reference's Maxwell witness
    maxwell = reference_classify(gamma.support, gamma).maxwell_witness
    try:
        extract(gamma.support, gamma)
    except RootValueDegenerate as exc:
        assert (exc.index_a, exc.index_b, exc.value) == maxwell
    except DegeneracyError:
        return
    else:
        assert maxwell is None


@settings(max_examples=500, deadline=None)
@given(tie_heavy_covectors())
def test_roots_and_values_match_the_reference(gamma):
    # extract's integer root table, divided once by the lcm of the widths,
    # gives the defining quotients, as Fractions even on a covector of ints
    w = gamma.hull_vertices()
    got = roots_and_values(gamma.support, gamma, w)
    expected = reference_roots_and_values(gamma, w)
    assert got == expected
    assert [tuple(map(type, rv)) for rv in got] == [tuple(map(type, rv)) for rv in expected]


@settings(max_examples=500, deadline=None)
@given(tie_heavy_covectors())
def test_slope_groups_agree_on_cleared_denominators(gamma):
    points, values = gamma.support.points, gamma.values
    assert slope_groups(points, clear_denominators(values)) == slope_groups(
        points, values
    )


def _extract_verdict(extract_fn, support, gamma, scale=1):
    """The type, or the exception class and its witness, with a root value
    divided by `scale`, the factor the covector was multiplied by."""
    try:
        return extract_fn(support, gamma)
    except DegenerateHull as exc:
        return type(exc), exc.point, exc.edge
    except SlopeDegenerate as exc:
        return type(exc), exc.pair_a, exc.pair_b
    except RootValueDegenerate as exc:
        assert type(exc.value) is Fraction
        return type(exc), exc.index_a, exc.index_b, exc.value / scale


@settings(max_examples=500, deadline=None)
@given(tie_heavy_covectors())
def test_extract_matches_the_reference_on_fractions_and_integers(gamma):
    # extract never divides, so a Covector of the cleared integers is worked
    # in integers; a quotient of two ints anywhere would be a float, which
    # loses the 10^60 + 1 support's digits
    support = gamma.support
    expected = _extract_verdict(reference_extract, support, gamma)
    assert _extract_verdict(extract, support, gamma) == expected
    integers = Covector(support, clear_denominators(gamma.values))
    scale = common_denominator(gamma.values)
    assert _extract_verdict(extract, support, integers, scale) == expected


def _kernel_results(gamma) -> list:
    """Every covector kernel's answer on gamma, an error as its class and text."""
    support = gamma.support

    def attempt(kernel, *args):
        try:
            return kernel(support, gamma, *args)
        except MorsekitError as exc:
            return type(exc), str(exc)

    ctype = attempt(extract)
    out = [ctype, attempt(roots_and_values, gamma.hull_vertices())]
    out += [
        attempt(kernel)
        for kernel in (
            classify,
            mu_value,
            area_newton,
            area_newton_formula,
            newton_polygon_vertices,
            fiber_polygon,
            vol_fiber_closed,
            strata_counts,
        )
    ]
    if isinstance(ctype, CombinatorialType):
        for j in range(ctype.k):
            out += [
                attempt(kernel, ctype, j)
                for kernel in (c_value, c_value_via_levels, level_scan)
            ]
    return out


def _has_float(x) -> bool:
    if isinstance(x, float):
        return True
    if is_dataclass(x) and not isinstance(x, type):
        return any(_has_float(getattr(x, f.name)) for f in fields(x))
    return isinstance(x, (tuple, list)) and any(map(_has_float, x))


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_int_covectors_compute_as_fraction_covectors(data):
    # a Covector keeps ints as ints; every kernel must then answer exactly as
    # on the same values parsed to Fractions, and never with a float
    support = data.draw(st.sampled_from(TIE_SUPPORTS))
    entry = data.draw(
        st.sampled_from(
            [st.integers(0, 3), st.integers(0, 50), st.integers(0, 10**12)]
        )
    )
    values = data.draw(st.lists(entry, min_size=len(support), max_size=len(support)))
    gamma = Covector(support, tuple(values))
    assert {type(v) for v in gamma.values} == {int}
    got = _kernel_results(gamma)
    assert got == _kernel_results(covector_from_values(support, values))
    assert not _has_float(got)


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_level_scan_matches_the_sweep_with_apex_and_base_points(data):
    # the apex and the base points change no run of the level scan; a zero
    # endpoint value puts a lifted point on a base point
    support = data.draw(st.sampled_from(SUPPORTS))
    entry = data.draw(
        st.sampled_from(
            [st.integers(0, 3), st.integers(0, 50), st.integers(0, 10**12)]
        )
    )
    endpoint = st.one_of(st.just(0), entry)
    inner = st.lists(entry, min_size=len(support) - 2, max_size=len(support) - 2)
    values = (data.draw(endpoint), *data.draw(inner), data.draw(endpoint))
    gamma = Covector(support, values)
    try:
        ctype = extract(support, gamma)
    except DegeneracyError:
        return
    for j in range(ctype.k):
        expected = reference_level_scan(support, gamma, ctype, j)
        assert level_scan(support, gamma, ctype, j) == expected


SUPPORT_RULES = (
    (ZeroInSupport, lambda raw: 0 in raw),
    (DuplicatePoint, lambda raw: len(set(raw)) != len(raw)),
    (TooShort, lambda raw: len(raw) < 2 or max(raw) - min(raw) < 3),
    (NotGenerating, lambda raw: gcd(*(p - min(raw) for p in raw)) != 1),
)


@settings(max_examples=500, deadline=None)
@given(
    st.one_of(
        st.lists(st.integers(-12, 12), max_size=7),
        st.lists(st.integers(-12, 12), max_size=7, unique=True),
        st.lists(st.integers(-(10**12), 10**12), max_size=5, unique=True),
    )
)
def test_validate_support_invariants(raw):
    # the first rule broken, in validate_support's order, names the error
    for error, broken in SUPPORT_RULES:
        if broken(raw):
            with pytest.raises(error) as excinfo:
                validate_support(raw)
            assert type(excinfo.value) is error
            return
    support = validate_support(raw)
    points = support.points
    assert list(points) == sorted(raw)
    assert all(p < q for p, q in zip(points, points[1:])) and 0 not in points
    assert points[-1] - points[0] >= 3
    assert gcd(*(q - p for p, q in zip(points, points[1:]))) == 1
    assert validate_support(points) == support


def _dominance_by_vertex(vertices, own_index, values):
    """The heights one vertex at a time, and whether the own vertex is the
    one strict maximum among them."""
    heights = [sum(c * g for c, g in zip(v, values)) for v in vertices]
    own = heights[own_index]
    return heights, max(heights) == own and heights.count(own) == 1


def _packed_verdict(vertices, own_index, values, bound):
    packing = PackedHeights(vertices, bound)
    packed = packing.heights(values)
    own = sum(c * g for c, g in zip(vertices[own_index], values))
    verdict = packing.dominates(packed, own, packing.offset(own_index))
    return packing, packed, own, verdict


@st.composite
def vertex_sets(draw):
    """1-7 coordinates, 1-12 vertices with coordinates of either sign up to
    a 1-norm near 2^k - 1, an own vertex, and a covector up to the bound; a
    narrow coordinate range makes ties at the maximum common."""
    bound = draw(st.sampled_from([1, 3, SAMPLE_BOUND]))
    n = draw(st.integers(1, 7))
    reach = draw(st.sampled_from([1, 2, 7, 2**10 - 1, 2**31 - 1]))
    coordinate = st.integers(-reach, reach)
    vertices = draw(
        st.lists(st.tuples(*[coordinate] * n), min_size=1, max_size=12, unique=True)
    )
    own_index = draw(st.integers(0, len(vertices) - 1))
    values = draw(st.tuples(*[st.integers(0, bound)] * n))
    return vertices, own_index, values, bound


@settings(max_examples=500, deadline=None)
@given(vertex_sets())
def test_packed_dominance_matches_the_per_vertex_verdict(case):
    vertices, own_index, values, bound = case
    heights, expected = _dominance_by_vertex(vertices, own_index, values)
    packing, packed, _, verdict = _packed_verdict(vertices, own_index, values, bound)
    assert verdict == expected
    assert packing.decode(packed) == heights


@pytest.mark.parametrize(
    "vertices, own_index, values, expected",
    [
        # negative coordinates, own vertex strictly highest
        (((-3, 5, -1), (2, -4, 0), (-1, -1, -1)), 0, (2, 3, 1), True),
        # a tie at the maximum with another vertex
        (((1, 2), (2, 1), (0, 0)), 0, (4, 4), False),
        # a vertex above the own vertex
        (((1, 2), (2, 1), (0, 0)), 0, (5, 1), False),
        # the own vertex alone
        (((-7, 0, 7),), 0, (0, 0, 0), True),
    ],
    ids=["negative", "tie", "above", "alone"],
)
def test_packed_dominance_named_cases(vertices, own_index, values, expected):
    heights, reference = _dominance_by_vertex(vertices, own_index, values)
    assert reference == expected
    for bound in (max(values), SAMPLE_BOUND):
        packing, packed, _, verdict = _packed_verdict(
            vertices, own_index, values, bound
        )
        assert verdict == expected
        assert packing.decode(packed) == heights


@pytest.mark.parametrize("bound", [1, 3, SAMPLE_BOUND])
@pytest.mark.parametrize("k", [1, 2, 5, 13, 40])
def test_packed_fields_at_the_ends_of_their_range(bound, k):
    # 1-norms of 2^k - 1 and a covector at the bound: the own vertex at
    # height X and the other at -X put the other's field at 2X - 1, the
    # reverse at -(2X+1), the ends of its range; at bound 1, X = 2^k - 1 and,
    # once biased, those fields are 2^W - 3 and 1, near the ends W allows
    norm = 2**k - 1
    x = bound * norm
    values = (bound, bound)
    for own_vertex, other, expected in (
        ((norm, 0), (0, -norm), True),
        ((-norm, 0), (0, norm), False),
    ):
        vertices = (own_vertex, other)
        packing, packed, own, verdict = _packed_verdict(vertices, 0, values, bound)
        assert verdict == expected
        assert packing.decode(packed) == [own, -own]
        width, mask = packing.width, (1 << packing.width) - 1
        assert width == x.bit_length() + 2
        fields = own * packing.ones - packed + packing.offset(0)
        field = (fields >> width) & mask
        assert field - (1 << (width - 1)) == (2 * x - 1 if expected else -(2 * x + 1))
        if bound == 1:
            assert field == (mask - 2 if expected else 1)
