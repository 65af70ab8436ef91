"""Property tests: the simplex against a reference, the Farkas-core store and
the exact-rational round trip."""

import json
from fractions import Fraction

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from morsekit import StrictSystem, feasible  # noqa: E402
from morsekit.rationals import parse_rational, rational_to_json  # noqa: E402
from reference_simplex import reference_feasible  # noqa: E402

MAX_FORMS = 8


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


@settings(max_examples=500, deadline=None)
@given(random_systems())
def test_feasible_matches_the_reference_simplex(case):
    nvars, forms = case
    store, reference_store = {}, {}
    answer = feasible(StrictSystem(nvars, forms, store))
    expected = reference_feasible(StrictSystem(nvars, forms, reference_store))
    # the same Bland pivots: the same witness and the same Farkas core
    assert answer == expected
    assert answer is None or all(type(x) is Fraction for x in answer)
    assert store == reference_store


@st.composite
def branching_systems(draw):
    """A shared base and sibling branches grown from it, at most 8 forms each.

    The enumeration grows systems the same way: every branch starts from one
    base and appends one form at a time, and all of them share one store.
    """
    nvars = draw(st.integers(2, 4))
    form = st.tuples(*[st.integers(-3, 3)] * nvars)
    base = draw(st.lists(form, max_size=3))
    room = MAX_FORMS - len(base)
    branches = draw(st.lists(st.lists(form, min_size=1, max_size=room), min_size=1, max_size=4))
    return nvars, tuple(base), branches


def _grow(nvars, base, branches, store):
    """Every prefix of every branch, solved with the shared store."""
    for branch in branches:
        system = StrictSystem(nvars, base, store)
        yield system, feasible(system)
        for extra in branch:
            system = system.extended([extra])
            yield system, feasible(system)


@settings(max_examples=200, deadline=None)
@given(branching_systems())
def test_store_never_changes_an_answer(case):
    nvars, base, branches = case
    store = {}
    for system, answer in _grow(nvars, base, branches, store):
        assert system.learned is store
        # the same forms without a store: the same witness, point for point
        assert answer == feasible(StrictSystem(nvars, system.forms))


@settings(max_examples=200, deadline=None)
@given(branching_systems())
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
