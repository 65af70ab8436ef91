"""Cone systems, exact feasibility, and the type enumeration."""

import hashlib
import itertools
import random
from fractions import Fraction

import pytest

from morsekit import (
    CombinatorialType,
    Covector,
    StrictSystem,
    SupportTooLarge,
    build_polytope,
    cone_constraints,
    enumerate_types,
    extract,
    feasible,
    mu_coeffs,
    validate_support,
)
from morsekit import cones
from morsekit.cones import _genericize, _pool_size
from morsekit.errors import DegeneracyError, SlopeDegenerate
from morsekit.rationals import clear_denominators
from morsekit.tropical import check_slopes, slope_groups


# --- the feasibility engine ------------------------------------------------------


def test_feasible_simple_system():
    # x0 >= 1 and x0 + x1 >= 1 with x >= 0
    witness = feasible(StrictSystem(2, ((1, 0), (1, 1))))
    assert witness is not None
    assert witness[0] > 0 and all(v >= 0 for v in witness)


def test_infeasible_system():
    # -x0 - x1 > 0 has no nonnegative solution
    assert feasible(StrictSystem(2, ((-1, -1),))) is None


def test_infeasible_opposite_forms():
    assert feasible(StrictSystem(3, ((1, -1, 0), (-1, 1, 0)))) is None


def test_empty_system_gives_all_ones():
    assert feasible(StrictSystem(4)) == (1, 1, 1, 1)


def test_feasible_accepts_rational_forms():
    witness = feasible(
        StrictSystem(2, ((Fraction(1, 3), Fraction(-1, 6)), (0, 1)))
    )
    assert witness is not None
    assert 2 * witness[0] - witness[1] > 0 and witness[1] > 0


def test_witness_satisfies_all_forms_strictly():
    rnd = random.Random(17)
    for _ in range(120):
        nvars = rnd.randint(2, 5)
        forms = tuple(
            tuple(rnd.randint(-4, 4) for _ in range(nvars))
            for _ in range(rnd.randint(1, 8))
        )
        system = StrictSystem(nvars, forms)
        witness = feasible(system)
        if witness is not None:
            assert system.holds_strictly(witness)


def test_infeasibility_certified_by_sampling():
    # whenever the solver says infeasible, no random nonnegative point works
    rnd = random.Random(23)
    for _ in range(60):
        nvars = rnd.randint(2, 4)
        forms = tuple(
            tuple(rnd.randint(-3, 3) for _ in range(nvars))
            for _ in range(rnd.randint(2, 7))
        )
        system = StrictSystem(nvars, forms)
        if feasible(system) is not None:
            continue
        for _ in range(200):
            point = tuple(Fraction(rnd.randint(0, 30), rnd.randint(1, 7))
                          for _ in range(nvars))
            assert not system.holds_strictly(point)


def test_empty_answer_records_its_farkas_core():
    # x0 - x1 > 0 and x1 - x0 > 0 contradict each other; x0 + x1 > 0 is idle
    store = {}
    system = StrictSystem(2, ((1, 1), (1, -1), (-1, 1)), store)
    assert feasible(system) is None
    core = frozenset({(1, -1), (-1, 1)})
    assert store == {(1, -1): [core], (-1, 1): [core]}
    assert feasible(StrictSystem(2, tuple(core))) is None


def test_stored_core_answers_without_solving():
    # a deliberately false core makes the store's answer observable
    store = {(1, 0): [frozenset({(1, 0)})]}
    grown = StrictSystem(2, ((0, 1),), store).extended([(1, 0)])
    assert grown.learned is store
    assert feasible(grown) is None
    # only cores under the last form (and the comparisons that came with
    # it) are looked up; anything else solves
    witness = feasible(StrictSystem(2, ((1, 0), (0, 1)), store))
    assert witness == feasible(StrictSystem(2, ((1, 0), (0, 1))))
    assert witness is not None


def _unit(i, n=6):
    return tuple(int(j == i) for j in range(n))


def _add(*forms):
    return tuple(map(sum, zip(*forms)))


def _times(c, form):
    return tuple(c * x for x in form)


def test_core_under_an_implied_comparison_answers_without_solving():
    # deliberately false cores stored only under the comparison f1 + f2,
    # which came with the newest form f2
    f0, f1, f2 = _unit(0), _unit(1), _unit(2)
    implied = _add(f1, f2)
    for core in ({implied}, {implied, f0}):
        store = {implied: [frozenset(core)]}
        grown = StrictSystem(6, (f0, f1), store).extended([f2], [implied])
        assert (grown.implied, grown.fresh) == ((implied,), 1)
        assert feasible(grown) is None
        assert feasible(StrictSystem(6, grown.forms)) is not None
    # comparisons that came with older forms count as present too
    older = _add(f0, f1)
    store = {implied: [frozenset({implied, older})]}
    system = StrictSystem(6, (f0,), store).extended([f1], [older])
    assert feasible(system.extended([f2], [implied])) is None


def test_older_implied_comparisons_are_not_looked_up():
    f0, f1, f2 = _unit(0), _unit(1), _unit(2)
    older, implied = _add(f0, f1), _add(f1, f2)
    # a core reachable only through the comparison that came with f1
    store = {older: [frozenset({older})]}
    system = StrictSystem(6, (f0,), store).extended([f1], [older])
    grown = system.extended([f2], [implied])
    assert (grown.implied, grown.fresh) == ((older, implied), 1)
    assert feasible(grown) == feasible(StrictSystem(6, grown.forms))
    assert feasible(grown) is not None
    # a form added without comparisons brings none
    assert system.extended([f2]).fresh == 0
    assert feasible(system.extended([f2])) is not None


@pytest.mark.parametrize(
    "points",
    [[1, 2, 3, 4, 5, 6], [-3, -1, 1, 2, 4, 5]],
    ids=lambda points: ",".join(map(str, points)),
)
def test_chains_imply_every_pair_form(points):
    # a chain's forms imply the comparison of every pair x before y as a
    # positive combination of the adjacent ones: M pair forms add up, and
    # Z pair forms combine with weights d_i = w[i + 1] - w[i]
    support = validate_support(points)
    triples = 0
    for w in cones._all_subdivisions(support):
        (_, z), *ms = cones._chains(support, w)
        d = [b - a for a, b in zip(w, w[1:])]
        for p, q, r in itertools.permutations(range(len(w) - 1), 3):
            combined = _add(_times(d[r], z(p, q)), _times(d[p], z(q, r)))
            assert combined == _times(d[q], z(p, r))
            triples += 1
        for elements, m in ms:
            for p, q, r in itertools.permutations(elements, 3):
                assert _add(m(p, q), m(q, r)) == m(p, r)
                triples += 1
    assert triples > 1000


def test_store_is_not_part_of_the_system_value():
    forms = ((1, 0), (0, 1))
    assert StrictSystem(2, forms, {}) == StrictSystem(2, forms)
    assert hash(StrictSystem(2, forms, {})) == hash(StrictSystem(2, forms))
    assert "learned" not in repr(StrictSystem(2, forms, {}))


def test_form_longer_than_nvars_is_refused():
    # the extra coefficient has no variable to multiply
    with pytest.raises(ValueError, match="more than 2 coefficients"):
        StrictSystem(2, ((-1, -1, 5),))
    with pytest.raises(ValueError):
        StrictSystem(2, ((1, 0),)).extended([(1, 2, 3)])
    # a shorter form is padded with zeros
    assert feasible(StrictSystem(3, ((1,), (-1, 2)))) == (1, 1, 0)


def test_holds_strictly_under_large_denominators():
    system = StrictSystem(2, ((1, -1), (0, 1)))
    tiny = Fraction(1, 2**1200)
    assert system.holds_strictly((Fraction(1, 3) + tiny, Fraction(1, 3)))
    assert not system.holds_strictly((Fraction(1, 3), Fraction(1, 3)))
    assert not system.holds_strictly((Fraction(1, 3), -tiny))


# --- cone constraint assembly -------------------------------------------------------


def test_constraint_counts_minimal():
    support = validate_support([1, 2, 4])
    ctype = CombinatorialType((1, 4), (0,), ((2,),))
    system = cone_constraints(support, ctype)
    assert len(system.forms) == 1  # only the below-hull form for 2


def test_constraint_counts_deg4_hull_only():
    support = validate_support([1, 2, 3, 4])
    ctype = CombinatorialType((1, 4), (0,), ((2, 3),))
    system = cone_constraints(support, ctype)
    # two below-hull forms plus one M-chain comparison
    assert len(system.forms) == 3


def test_known_witness_satisfies_its_cone(mixed_support, mixed_gamma):
    ctype = extract(mixed_support, mixed_gamma)
    system = cone_constraints(mixed_support, ctype)
    assert system.holds_strictly(mixed_gamma.values)


def test_cone_systems_are_homogeneous(mixed_support, mixed_gamma):
    ctype = extract(mixed_support, mixed_gamma)
    system = cone_constraints(mixed_support, ctype)
    for lam in (2, Fraction(1, 2)):
        scaled = tuple(v * lam for v in mixed_gamma.values)
        assert system.holds_strictly(scaled)


@pytest.mark.parametrize(
    "points,count,sha256",
    [
        (
            [1, 2, 3, 4],
            8,
            "db7792a5b14844c8fb68187ca58b434d7c14b66fca83656fd0b59ed92969adff",
        ),
        (
            [-3, -1, 1, 2, 4],
            105,
            "086899d6c1c997675e81ebda22e55f7fa50e34abda87c8c279ebaf26fc1bcc67",
        ),
    ],
)
def test_cone_constraints_witnesses_pinned(points, count, sha256):
    # each system built outside the enumeration starts with its own empty
    # store, which changes no witness
    support = validate_support(points)
    systems = [cone_constraints(support, t) for t, _ in enumerate_types(support)]
    assert len(systems) == count
    assert all(system.learned == {} for system in systems)
    assert len({id(system.learned) for system in systems}) == count
    witnesses = [feasible(system) for system in systems]
    assert hashlib.sha256(repr(witnesses).encode()).hexdigest() == sha256


@pytest.mark.parametrize(
    "points",
    [[1, 2, 3, 4], [2, 3, 4, 6], [-3, -1, 1, 2, 4]],
    ids=lambda points: ",".join(map(str, points)),
)
def test_tree_leaves_carry_the_cone_constraints(monkeypatch, points):
    # the tree and cone_constraints read one chain definition, so every leaf
    # system holds exactly the forms of its type's cone, in the same order
    support = validate_support(points)
    leaves = []

    def record(support, system, point, ctype):
        leaves.append((ctype, system.forms))
        return _genericize(support, system, point, ctype)

    monkeypatch.setattr(cones, "_genericize", record)
    enumerated = enumerate_types(support)
    assert [ctype for ctype, _ in leaves] == [ctype for ctype, _ in enumerated]
    for ctype, forms in leaves:
        assert forms == cone_constraints(support, ctype).forms


@pytest.mark.parametrize(
    "points,solved",
    [([1, 2, 3, 4], 24), ([2, 3, 4, 6], 25), ([-3, -1, 1, 2, 4], 379)],
    ids=lambda arg: ",".join(map(str, arg)) if isinstance(arg, list) else None,
)
def test_tree_answers_match_storeless_solves(monkeypatch, points, solved):
    # every answer the tree gets, from the store or from pivoting, is the
    # one the same forms get without a store; `solved` counts the systems
    # the store did not answer, so a change to the store shows up here
    answers, hits = [], []
    lookup = cones._stored_core_within

    def recording_lookup(system):
        hits.append(lookup(system))
        return hits[-1]

    def recording_feasible(system):
        answers.append((system, feasible(system)))
        return answers[-1][1]

    monkeypatch.setattr(cones, "_stored_core_within", recording_lookup)
    monkeypatch.setattr(cones, "feasible", recording_feasible)
    enumerate_types(validate_support(points))
    assert answers and all(system.learned is not None for system, _ in answers)
    for system, answer in answers:
        assert answer == feasible(StrictSystem(system.nvars, system.forms))
    assert len(answers) - sum(hits) == solved


def test_infeasible_root_order_for_positive_support():
    support = validate_support([1, 2, 3, 4])
    bad = CombinatorialType((1, 2, 4), (1, 0), ((3, 4), (3, 1)))
    assert feasible(cone_constraints(support, bad)) is None


# --- genericization ------------------------------------------------------------------


def _check_slopes_ties(support, values):
    try:
        check_slopes(support, Covector(support, values))
    except SlopeDegenerate:
        return True
    return False


@pytest.mark.parametrize(
    "points,grid",
    [
        ([-3, -1, 1, 2, 4], range(4)),
        ([1, 2, 3, 4, 5], range(4)),
        ([2, 3, 4, 6], (0, Fraction(1, 3), Fraction(1, 2), 1, Fraction(5, 2), 3)),
        ([-3, -1, 1, 2, 4], (0, Fraction(1, 3), Fraction(1, 2), 1, 2)),
    ],
)
def test_integer_slope_tie_test_agrees_with_check_slopes(points, grid):
    support = validate_support(points)
    verdicts = set()
    for values in itertools.product(grid, repeat=len(points)):
        groups = slope_groups(support.points, clear_denominators(values))
        tie = any(len(pairs) > 1 for pairs in groups)
        assert tie == _check_slopes_ties(support, values), values
        verdicts.add(tie)
    assert verdicts == {True, False}


def test_genericize_moves_a_tied_witness_into_its_cone(deg4_support):
    ctype = CombinatorialType((1, 4), (0,), ((2, 3),))
    system = cone_constraints(deg4_support, ctype)
    witness = feasible(system)
    # the simplex corner ties two slopes; the returned covector does not
    assert _check_slopes_ties(deg4_support, witness)
    gamma = _genericize(deg4_support, system, witness, ctype)
    assert extract(deg4_support, gamma) == ctype
    assert system.holds_strictly(gamma.values)
    other = CombinatorialType((1, 4), (0,), ((3, 2),))
    with pytest.raises(AssertionError, match="outside its cone"):
        _genericize(deg4_support, system, witness, other)


def test_a_leaf_confirmed_as_another_type_stops_the_build(monkeypatch, mixed_support):
    # the confirming extract decides: one leaf reported with M^0 reversed
    original = cones.extract
    calls = []

    def wrong_once(support, values):
        found = original(support, values)
        calls.append(values)
        if len(calls) > 1:
            return found
        return CombinatorialType(found.w, found.z, (found.m[0][::-1], *found.m[1:]))

    monkeypatch.setattr(cones, "extract", wrong_once)
    message = r"witness outside its cone \(internal bug\)"
    with pytest.raises(AssertionError, match=message):
        build_polytope(mixed_support)


def test_each_leaf_is_confirmed_once_on_integers(monkeypatch, mixed_support):
    # the fine build of [-3,-1,1,2,4] has 105 leaves, and each is confirmed
    # by one extract of a Covector of its candidate's integers, which keeps
    # them ints; that extract is also the tie test, so 28 tied candidates
    # before them raise
    original = cones.extract
    seen = []
    refused = []

    def recording(support, gamma):
        seen.append(gamma)
        try:
            return original(support, gamma)
        except DegeneracyError as exc:
            refused.append(type(exc))
            raise

    monkeypatch.setattr(cones, "extract", recording)
    assert len(build_polytope(mixed_support).cones) == 105
    assert len(seen) - len(refused) == 105
    assert refused == [SlopeDegenerate] * 28
    assert all(type(g) is Covector for g in seen)
    assert all({type(x) for x in g.values} == {int} for g in seen)


# --- enumeration ----------------------------------------------------------------------


def test_deg4_enumeration_counts(deg4_support):
    types = enumerate_types(deg4_support)
    assert len(types) >= 5  # both orders of M^0 are realizable over W={1,4}
    w14 = [t for t, _ in types if t.w == (1, 4)]
    assert {t.m[0] for t in w14} == {(2, 3), (3, 2)}
    vertices = {mu_coeffs(deg4_support, t) for t, _ in types}
    assert len(vertices) == 5


def test_round_trip_soundness(deg4_support, mixed_support):
    for support in (deg4_support, mixed_support):
        for ctype, witness in enumerate_types(support):
            assert extract(support, witness) == ctype


def test_no_duplicate_types(mixed_support):
    types = [t for t, _ in enumerate_types(mixed_support)]
    assert len(types) == len(set(types))


@pytest.mark.parametrize(
    "points",
    [[-3, -1, 1, 2, 4], [1, 2, 3, 4, 5], [2, 3, 4, 6]],
    ids=lambda points: ",".join(map(str, points)),
)
def test_deterministic_and_schedule_independent(points):
    support = validate_support(points)
    first = enumerate_types(support)
    second = enumerate_types(support)
    parallel = enumerate_types(support, jobs=2)
    assert first == second == parallel
    # the trees emit their types in canonical order, with no sort after them
    assert first == sorted(first, key=lambda p: (p[0].w, p[0].z, p[0].m))


def test_pool_size_clamped_to_cpus_and_tasks(monkeypatch):
    monkeypatch.setattr("os.cpu_count", lambda: 4)
    assert _pool_size(10**9, 1000) == 4
    assert _pool_size(10**9, 3) == 3
    assert _pool_size(2, 1000) == 2
    assert _pool_size(None, 1000) == _pool_size(0, 1000) == 1
    monkeypatch.setattr("os.cpu_count", lambda: None)
    assert _pool_size(8, 1000) == 1


def test_sampling_completeness_deg4(deg4_support):
    # brute-force oracle: extract 10^4 random rational covectors and collect
    # the distinct types; the enumeration must cover every one of them
    rnd = random.Random(97)
    seen = set()
    for _ in range(10_000):
        values = tuple(
            Fraction(rnd.randint(0, 12), rnd.randint(1, 4)) for _ in deg4_support
        )
        try:
            seen.add(extract(deg4_support, Covector(deg4_support, values)))
        except DegeneracyError:
            continue
    enumerated = {t for t, _ in enumerate_types(deg4_support)}
    assert seen <= enumerated
    assert seen == enumerated  # at this sample size every cone gets hit


def test_sampling_completeness_mixed(mixed_support):
    rnd = random.Random(98)
    seen = set()
    for _ in range(3_000):
        values = tuple(Fraction(rnd.randint(0, 15)) for _ in mixed_support)
        try:
            seen.add(extract(mixed_support, Covector(mixed_support, values)))
        except DegeneracyError:
            continue
    enumerated = {t for t, _ in enumerate_types(mixed_support)}
    assert seen <= enumerated


def test_distinct_cones_share_no_witness(mixed_support):
    types = enumerate_types(mixed_support)
    for ctype, witness in types[:20]:
        system = cone_constraints(mixed_support, ctype)
        assert system.holds_strictly(witness.values)
    # a witness of one cone violates some form of any other cone
    (t0, w0), (t1, w1) = types[0], types[1]
    assert not cone_constraints(mixed_support, t0).holds_strictly(w1.values)


def test_support_size_cap():
    support = validate_support(list(range(1, 9)))
    with pytest.raises(SupportTooLarge):
        enumerate_types(support)
    with pytest.raises(SupportTooLarge):
        enumerate_types(support, max_support_size=7)
