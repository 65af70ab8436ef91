"""The drop-key build, checked against the fine tree as its oracle.

`build_polytope(keys=True)` enumerates one cone per drop key instead of one
per fine type (W, Z, M).  Its vertex set, its hyperplane constants, its
lookups and the property suite it feeds must all equal the fine build's.
"""

import random

import pytest

from morsekit import (
    CombinatorialType,
    MorsekitError,
    build_polytope,
    drop_key,
    enumerate_types,
    extract,
    run_property_suite,
    validate_support,
)


def _random_supports(count: int, seed: int) -> list[list[int]]:
    rng = random.Random(seed)
    supports = []
    while len(supports) < count:
        points = rng.sample(range(-8, 10), rng.randint(4, 5))
        try:
            supports.append(list(validate_support(points).points))
        except MorsekitError:
            continue
    return supports


NAMED = [
    [1, 2, 3, 4],
    [2, 3, 4, 6],
    [-6, -4, -3, -2],
    [1, 2, 3, 4, 5],
    [-3, -1, 1, 2, 4],
    [-2, -1, 1, 2, 3],
]
SUPPORTS = NAMED + _random_supports(20, seed=14)


# the ids keep the "-None" suffix they had while the fine build could also
# run pooled (a `jobs` parameter of None or 2), so each case keeps its name
@pytest.mark.parametrize(
    "points", SUPPORTS, ids=lambda p: ",".join(map(str, p)) + "-None"
)
def test_key_build_matches_the_fine_build(points):
    support = validate_support(points)
    fine = build_polytope(support)
    keys = build_polytope(support, keys=True)
    assert keys.vertices == fine.vertices
    assert (keys.d1, keys.d2) == (fine.d1, fine.d2)
    # the key tree finds exactly the keys of the fine types, once each
    key_types = [record.ctype for record in keys.cones]
    assert len(set(key_types)) == len(key_types)
    assert set(key_types) == {drop_key(record.ctype) for record in fine.cones}
    for record in fine.cones:
        assert keys.vertex_of(record.ctype) == fine.vertices[record.vertex_index]
    assert (
        run_property_suite(keys, 30, 3).to_json()
        == run_property_suite(fine, 30, 3).to_json()
    )


@pytest.mark.parametrize("points", SUPPORTS, ids=lambda p: ",".join(map(str, p)))
def test_one_key_per_vertex_observed(points):
    # an observation on these supports (ROADMAP item 2), not a theorem: the
    # paper proves only that types map onto the vertices, and no code relies
    # on keys and vertices being one to one
    polytope = build_polytope(validate_support(points), keys=True)
    assert len(polytope.cones) == len(polytope.vertices)


def test_drop_key_is_idempotent():
    for points in NAMED:
        for ctype, _ in enumerate_types(validate_support(points)):
            key = drop_key(ctype)
            assert drop_key(key) == key
            assert (key.w, key.z) == (ctype.w, ctype.z)


def test_drop_key_of_a_gcd_one_edge_is_empty():
    ctype = CombinatorialType((1, 2, 4), (1, 0), ((4, 3), (1, 3)))
    # gcd(1, 2) = 1 drops nothing; gcd(2, 4) = 2 drops at 1 and not after
    assert drop_key(ctype).m == ((), (1,))


def test_drop_key_drops_twice_on_a_hand_checked_edge():
    # gcd(6, 12) = 6, then gcd(6, 9) = 3, gcd(3, 10) = 1: 8 comes too late
    ctype = CombinatorialType((6, 12), (0,), ((9, 10, 8),))
    assert drop_key(ctype).m == ((9, 10),)
    # 6 divides 12, so 12 leaves the ladder at 6; then 8 and 9 drop it
    ctype = CombinatorialType((6, 18), (0,), ((12, 8, 9),))
    assert drop_key(ctype).m == ((8, 9),)


def test_key_vertex_of(mixed_support, mixed_gamma):
    keys = build_polytope(mixed_support, keys=True)
    ctype = extract(mixed_support, mixed_gamma)
    assert keys.vertex_of(ctype) == keys.vertex_of(drop_key(ctype))
    assert keys.vertex_of(ctype) == (37, 15, 2, 33, 39)
    with pytest.raises(KeyError, match="no cone"):
        keys.vertex_of(CombinatorialType((1, 2), (0,), ((),)))


def test_fine_table_answers_a_key(mixed_support):
    fine = build_polytope(mixed_support)
    fine_types = {record.ctype for record in fine.cones}
    record = next(r for r in fine.cones if drop_key(r.ctype) not in fine_types)
    # both tables are keyed by drop key, so a key that is no fine type is
    # answered with the vertex of the fine types it stands for
    assert fine.vertex_of(drop_key(record.ctype)) == fine.vertices[record.vertex_index]
