"""Identities between the key builds of different supports.

Setting c_a = 0 leaves the family of A \\ {a}, and x -> 1/x maps the family
of A onto that of -A.  Under the default shift, with no translation:

* restriction: for each interior a with A \\ {a} generating, the vertices of
  M_A with x_a = 0, with coordinate a deleted, are the vertices of
  M_{A \\ {a}};
* reflection: M_{-A} is M_A with its coordinates reversed.

Both relate separate builds, so they test the enumerator's completeness
across supports, with no hull.
"""

from morsekit import HyperplaneViolation, NotGenerating, build_polytope, validate_support

def key_build(points):
    return build_polytope(validate_support(points), keys=True)


def restrictions(points) -> list[tuple[int, int, list[int]]]:
    """(coordinate, a, A \\ {a}) for each interior a that leaves A generating."""
    found = []
    for i, a in enumerate(points[1:-1], 1):
        rest = [p for p in points if p != a]
        try:
            validate_support(rest)
        except NotGenerating:
            continue
        found.append((i, a, rest))
    return found


def face(vertices, i) -> set[tuple[int, ...]]:
    """The vertices with x_i = 0, with coordinate i deleted."""
    return {v[:i] + v[i + 1 :] for v in vertices if v[i] == 0}


def failing_identities(points, build=key_build) -> set[str]:
    """The identities that fail on sorted `points`: "restriction a" and
    "reflection".  A build that fails its hyperplane check ends the run
    there, as "hyperplane".
    """
    try:
        vertices = build(points).vertices
        failed = {
            f"restriction {a}"
            for i, a, rest in restrictions(points)
            if face(vertices, i) != set(build(rest).vertices)
        }
        reflected = build([-p for p in reversed(points)]).vertices
    except HyperplaneViolation:
        return {"hyperplane"}
    if set(reflected) != {v[::-1] for v in vertices}:
        failed.add("reflection")
    return failed
