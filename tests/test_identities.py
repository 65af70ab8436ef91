"""Cross-support identities: the coordinate faces of M_A are the polytopes
of smaller supports, and M_{-A} is M_A reversed (`cross_support`).

Every build is a key build under the default shift.  The identities relate
separate builds, so a key the enumerator loses on one support shows as a
difference from another (`tests/test_mutants.py` pins which mutants they
catch).
"""

import functools
import time

import pytest

from morsekit import cones
from cross_support import failing_identities, key_build, restrictions

SUPPORTS = [
    [1, 2, 3, 4],
    [1, 2, 3, 4, 5],
    [-3, -1, 1, 2, 4],
    [2, 3, 4, 6],
    [1, 2, 3, 4, 5, 6],
    [-3, -1, 1, 2, 4, 5],
    [-5, -2, 1, 3, 4, 7],
    [-4, -1, 2, 3, 5, 8],
    [2, 4, 6, 8, 9, 10, 12],
    [1, 2, 3, 4, 5, 6, 7, 8],
]


# the `cones.feasible` calls of one key build of every support that
# `test_every_build_takes_under_a_third_of_a_second` times
FEASIBLE_CALLS = 15221


def _name(points) -> str:
    return ",".join(map(str, points))


@functools.cache
def _cached(points: tuple[int, ...]):
    return key_build(points)


def build(points):
    return _cached(tuple(points))


@pytest.mark.parametrize("points", SUPPORTS, ids=_name)
def test_restriction_and_reflection_hold(points):
    assert failing_identities(points, build) == set()


@pytest.mark.parametrize("points", SUPPORTS, ids=_name)
def test_a_key_uses_a_exactly_where_x_a_is_positive(points):
    # x_a = 0 exactly when a is outside W and outside every drop set M^j,
    # so the keys of A \ {a} are the keys of A that never use a
    polytope = build(points)
    for record in polytope.cones:
        vertex = polytope.vertices[record.vertex_index]
        ctype = record.ctype
        for i, a in enumerate(points[1:-1], 1):
            unused = a not in ctype.w and all(a not in m for m in ctype.m)
            assert (vertex[i] == 0) == unused, (ctype, a)


# (support, a) -> (min x_a, the vertices that attain it), for each interior a
# whose removal leaves a support that is not generating
NON_GENERATING = {
    # A \ {a} is even: that family is never Morse, so c_a divides M_A
    ("2,3,4,6", 3): (4, 2),
    ("2,4,6,8,9,10,12", 9): (10, 34),
    # A \ {a} lies in r + 3Z: the face x_a = 0 has no rule found yet
    ("-5,-2,1,3,4,7", 3): (0, 15),
    ("-4,-1,2,3,5,8", 3): (0, 20),
}


def test_faces_that_do_not_restrict_are_pinned():
    seen = {}
    for points in SUPPORTS:
        vertices = build(points).vertices
        generating = {a for _, a, _ in restrictions(points)}
        for i, a in enumerate(points[1:-1], 1):
            if a not in generating:
                low = min(v[i] for v in vertices)
                seen[_name(points), a] = (low, sum(v[i] == low for v in vertices))
    assert seen == NON_GENERATING


def test_every_build_takes_under_a_third_of_a_second(monkeypatch):
    supports = {tuple(points) for points in SUPPORTS}
    for points in SUPPORTS:
        supports |= {tuple(rest) for _, _, rest in restrictions(points)}
        supports.add(tuple(-p for p in reversed(points)))
    calls = 0
    solve = cones.feasible

    def counting_feasible(system):
        nonlocal calls
        calls += 1
        return solve(system)

    monkeypatch.setattr(cones, "feasible", counting_feasible)

    def seconds(points):
        # CPU time of this thread, so what other processes run does not count
        start = time.thread_time()
        key_build(points)
        return time.thread_time() - start

    slow = {points for points in supports if seconds(points) >= 0.3}
    # the work itself, pinned apart from any machine
    assert calls == FEASIBLE_CALLS
    # a second try for a build that a loaded machine slowed down
    assert {points for points in slow if seconds(points) >= 0.3} == set()
