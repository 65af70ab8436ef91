"""Property tests: the simplex against a reference, the Farkas-core store,
the exact-rational round trip, the covector kernels, and support validation."""

import json
import random
from fractions import Fraction
from math import gcd

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from morsekit import (  # noqa: E402
    Covector,
    ShiftConfig,
    StrictSystem,
    classify,
    extract,
    feasible,
    mu_value,
    validate_support,
)
from morsekit.errors import (  # noqa: E402
    DegeneracyError,
    DuplicatePoint,
    NotGenerating,
    TooShort,
    ZeroInSupport,
)
from morsekit.rationals import parse_rational, rational_to_json  # noqa: E402
from conftest import time_limit  # noqa: E402
from reference_simplex import reference_feasible  # noqa: E402

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
        answer = feasible(StrictSystem(nvars, forms, store))
        expected = reference_feasible(StrictSystem(nvars, forms, reference_store))
    # the same Bland pivots: the same witness and the same Farkas core
    assert answer == expected
    assert answer is None or all(type(x) is Fraction for x in answer)
    assert store == reference_store
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
