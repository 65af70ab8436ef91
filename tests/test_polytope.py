"""Polytope assembly, projections, and rendering."""

import dataclasses
import random
import sys
from collections import Counter
from fractions import Fraction

import pytest

from morsekit import (
    BadAxes,
    CombinatorialType,
    Covector,
    MorsekitError,
    NumberTooLarge,
    SamplingError,
    ShiftConfig,
    build_polytope,
    convex_hull_2d,
    extract,
    fiber_polygon,
    mu_value,
    project_and_hull,
    render_svg,
    run_property_suite,
    sample_morse_covector,
    unit_interval_shift,
    validate_support,
)
from morsekit import tropical
from morsekit.tropical import _chain

from conftest import dot, time_limit


def test_deg4_polytope_golden(deg4_support):
    poly = build_polytope(deg4_support, unit_interval_shift(deg4_support))
    assert set(poly.vertices) == {
        (4, 0, 0, 6),
        (0, 2, 8, 0),
        (1, 0, 9, 0),
        (0, 5, 2, 3),
        (2, 3, 0, 5),
    }
    assert poly.d1 == 10 and poly.d2 == 28


def test_mixed_polytope_golden(mixed_support):
    poly = build_polytope(mixed_support)
    assert (37, 15, 2, 33, 39) in poly.vertices
    assert (58, 0, 0, 0, 68) in poly.vertices
    for v in poly.vertices:
        assert sum(v) == 126
        assert sum(a * c for a, c in zip(mixed_support.points, v)) == 98


def test_surjection_table(mixed_support):
    poly = build_polytope(mixed_support)
    hit = set()
    for record in poly.cones:
        assert 0 <= record.vertex_index < len(poly.vertices)
        hit.add(record.vertex_index)
    assert hit == set(range(len(poly.vertices)))  # every vertex has a preimage


def test_cone_vertex_lookup(mixed_support, mixed_gamma):
    poly = build_polytope(mixed_support)
    ctype = extract(mixed_support, mixed_gamma)
    assert poly.vertex_of(ctype) == (37, 15, 2, 33, 39)
    with pytest.raises(KeyError, match="no cone"):
        poly.vertex_of(CombinatorialType((1, 2), (0,), ((),)))


def test_dominance_on_samples(mixed_support):
    poly = build_polytope(mixed_support)
    rnd = random.Random(61)
    for _ in range(100):
        gamma, _, _ = sample_morse_covector(mixed_support, rnd, bound=50)
        mu = mu_value(mixed_support, gamma)
        values = [dot(v, gamma.values) for v in poly.vertices]
        assert max(values) == mu
        winners = [v for v, val in zip(poly.vertices, values) if val == mu]
        assert winners == [poly.vertex_of(extract(mixed_support, gamma))]


def test_property_suite_extracts_once_per_draw(monkeypatch, mixed_support):
    # the sampler's genericity test extracts each draw; every check of an
    # accepted sample reads that one type
    poly = build_polytope(mixed_support)
    original = extract
    calls = []

    def counting(support, gamma):
        calls.append(gamma)
        return original(support, gamma)

    for name, module in list(sys.modules.items()):
        bound = getattr(module, "extract", None) is original
        if bound and name.split(".")[0] == "morsekit":
            monkeypatch.setattr(module, "extract", counting)
    result = run_property_suite(poly, 40, 13)
    assert result.ok and result.resamples > 0
    assert len(calls) == result.samples + result.resamples


def test_verify_sample_builds_its_hull_once(monkeypatch, mixed_support):
    # each draw's extract checks the covector's one hull, and both Newton
    # area routes of an accepted sample read the same hull_vertices
    poly = build_polytope(mixed_support, keys=True)
    chains = []

    def counting(points):
        chains.append(1)
        return _chain(points)

    monkeypatch.setattr(tropical, "_chain", counting)
    result = run_property_suite(poly, 200, 1)
    assert result.ok and result.resamples > 0
    assert len(chains) == result.samples + result.resamples


@pytest.mark.parametrize("seed,bound", [(0, 7), (13, 50), (2024, 10**12)])
def test_sampler_draws_the_randint_stream(mixed_support, seed, bound):
    # every entry of every draw, degenerate ones too, is the next value of
    # randint(0, bound) on the same seed, on every Python the sampler runs on
    rng, reference = random.Random(seed), random.Random(seed)
    for _ in range(20):
        gamma, _, resamples = sample_morse_covector(mixed_support, rng, bound=bound)
        draws = [
            tuple(reference.randint(0, bound) for _ in mixed_support)
            for _ in range(resamples + 1)
        ]
        assert gamma.values == draws[-1]
    assert rng.getstate() == reference.getstate()


@pytest.mark.parametrize(
    "points,bound,message",
    [
        ([-3, -1, 1, 2, 4], 0, "sample bound must be at least 1, got 0"),
        ([-3, -1, 1, 2, 4], -1, "sample bound must be at least 1, got -1"),
        (
            [1, 2, 3, 4, 5, 6, 7],
            2,
            "no Morse covector in 10000 draws on A = [1, 2, 3, 4, 5, 6, 7] "
            "with entries up to 2",
        ),
    ],
    ids=["zero", "negative", "no-morse-point"],
)
def test_sampler_refuses_a_grid_without_morse_covectors(points, bound, message):
    # a bound of 0 draws only the zero covector, and no point of {0, 1, 2}^7
    # is generic: each fails with a typed error instead of drawing forever
    support = validate_support(points)
    with time_limit(1), pytest.raises(SamplingError) as exc:
        sample_morse_covector(support, random.Random(1), bound=bound)
    assert str(exc.value) == message
    assert isinstance(exc.value, MorsekitError)


def _run_types(support, samples, seed):
    """How often each type occurs in a run's samples, replayed from its seed."""
    rng = random.Random(seed)
    return Counter(sample_morse_covector(support, rng)[1] for _ in range(samples))


def test_verify_builds_each_types_forms_once(monkeypatch, mixed_support):
    # the sample's shoelace area and its mu are computed once and read by the
    # fiber, strata and dominance checks; a type's mu and C^j forms are built
    # at its first sample only; the build adds one mu_coeffs per key
    import morsekit.verify as verify_mod

    calls = {"area_newton": 0, "mu_coeffs": 0, "c_coeffs": 0}

    def counting(name, original):
        def counted(*args, **kwargs):
            calls[name] += 1
            return original(*args, **kwargs)

        return counted

    for name in ("area_newton", "mu_coeffs"):
        original = getattr(sys.modules["morsekit"], name)
        wrapper = counting(name, original)
        for module_name, module in list(sys.modules.items()):
            bound = getattr(module, name, None) is original
            if bound and module_name.split(".")[0] == "morsekit":
                monkeypatch.setattr(module, name, wrapper)
    # verify's own C^j forms; each type's mu_coeffs walks its ladders once more
    c_counter = counting("c_coeffs", verify_mod.c_coeffs)
    monkeypatch.setattr(verify_mod, "c_coeffs", c_counter)
    poly = build_polytope(mixed_support, keys=True)
    assert (len(poly.vertices), calls["mu_coeffs"]) == (16, 16)
    result = run_property_suite(poly, 200, 1)
    assert result.ok and result.samples == 200
    types = _run_types(mixed_support, 200, 1)
    assert len(types) == 65
    assert calls == {
        "area_newton": 200,
        "mu_coeffs": 16 + len(types),  # 81, against 216 with one per sample
        "c_coeffs": sum(t.k for t in types),
    }


@pytest.mark.parametrize(
    "name, report", [("mu_coeffs", "dominance"), ("c_coeffs", "cj_dual_route")]
)
def test_a_wrong_form_fails_every_sample_of_its_type(
    monkeypatch, mixed_support, name, report
):
    # the run keeps a type's forms from its first sample on, so a wrong form
    # must fail every sample of that type, not only the first
    import morsekit.verify as verify_mod

    poly = build_polytope(mixed_support, keys=True)
    target, count = _run_types(mixed_support, 200, 1).most_common(1)[0]
    assert count > 1
    real = getattr(verify_mod, name)

    def wrong(support, ctype, *rest):
        form = real(support, ctype, *rest)
        # the samples' entries are not all 0, so each value moves
        return tuple(c + 1 for c in form) if ctype == target else form

    monkeypatch.setattr(verify_mod, name, wrong)
    result = run_property_suite(poly, 200, 1)
    failed = {r.name: r.failed for r in result.reports}
    assert failed[report] == count


def test_a_vertex_above_every_cone_vertex_fails_dominance(mixed_support):
    # one more vertex, above the others in every coordinate, is the strict
    # maximum on every sample; the failing samples decode their heights into
    # the detail the per-vertex check gives
    poly = build_polytope(mixed_support, keys=True)
    top = tuple(max(column) + 1 for column in zip(*poly.vertices))
    grown = dataclasses.replace(poly, vertices=poly.vertices + (top,))
    result = run_property_suite(grown, 200, 1)
    dominance = result.reports[0]
    assert (dominance.name, dominance.passed, dominance.failed) == ("dominance", 0, 200)
    assert all(r.ok for r in result.reports[1:])
    gamma = dominance.counterexample["gamma"]
    heights = [dot(v, gamma) for v in grown.vertices]
    ctype = extract(mixed_support, Covector(mixed_support, gamma))
    own = dot(poly.vertex_of(ctype), gamma)
    assert max(heights) == heights[-1] > own
    assert dominance.counterexample == {
        "gamma": [7, 31, 48, 28, 30],
        "detail": "max=6447 mu=3449 own=3449 argmax_count=1",
    }


def test_verify_never_rescales_an_integer_sample(monkeypatch, mixed_support):
    # an integer sample goes to the level route as it is, with no scaled copy
    def refuse(self, factor):
        raise AssertionError(f"scaled({factor!r}) called on an integer sample")

    monkeypatch.setattr(Covector, "scaled", refuse)
    poly = build_polytope(mixed_support, keys=True)
    result = run_property_suite(poly, 200, 1)
    assert result.ok and result.samples == 200


def test_shift_equivariance(deg4_support):
    base = build_polytope(deg4_support, ShiftConfig(0, 0))
    moved = build_polytope(deg4_support, ShiftConfig(3, -2))
    delta = [3] + [0] * (len(deg4_support) - 2) + [-2]
    translated = sorted(
        tuple(c + d for c, d in zip(v, delta)) for v in base.vertices
    )
    assert list(moved.vertices) == translated
    assert [r.ctype for r in moved.cones] == [r.ctype for r in base.cones]
    assert [r.vertex_index for r in moved.cones] == [
        r.vertex_index for r in base.cones
    ]


def test_hyperplane_violation_surfaces(deg4_support, monkeypatch):
    import morsekit.polytope as polytope_mod
    from morsekit import HyperplaneViolation

    real = polytope_mod.mu_coeffs
    calls = {"n": 0}

    def corrupted(support, ctype, shift):
        calls["n"] += 1
        vertex = real(support, ctype, shift)
        if calls["n"] == 3:
            vertex = vertex[:-1] + (vertex[-1] + 1,)
        return vertex

    monkeypatch.setattr(polytope_mod, "mu_coeffs", corrupted)
    with pytest.raises(HyperplaneViolation):
        build_polytope(deg4_support)


def test_polytope_json(deg4_support):
    poly = build_polytope(deg4_support, unit_interval_shift(deg4_support))
    blob = poly.to_json()
    assert blob["d1"] == 10 and blob["d2"] == 28
    assert blob["A"] == [1, 2, 3, 4]
    assert len(blob["cones"]) == len(poly.cones)
    assert all("witness" in c and "vertex_index" in c for c in blob["cones"])


# --- projections ------------------------------------------------------------------


def _is_ccw_convex(points):
    """Orientation oracle: every consecutive triple turns left, exhaustively."""
    n = len(points)
    if n <= 2:
        return True
    for i in range(n):
        o, a, b = points[i], points[(i + 1) % n], points[(i + 2) % n]
        cross = (a[0] - o[0]) * (b[1] - o[1]) - (a[1] - o[1]) * (b[0] - o[0])
        if cross <= 0:
            return False
    return True


def test_deg4_projection_pentagon(deg4_support):
    poly = build_polytope(deg4_support, unit_interval_shift(deg4_support))
    hull = project_and_hull(poly)  # default axes: middle coordinates (1, 2)
    assert set(hull) == {(0, 0), (3, 0), (5, 2), (2, 8), (0, 9)}
    assert _is_ccw_convex(hull)


def test_projection_to_segment(mixed_support):
    poly = build_polytope(mixed_support)
    pts = {(v[1], v[2]) for v in poly.vertices}
    assert (15, 2) in pts and (0, 0) in pts
    hull = project_and_hull(poly, (1, 2))
    assert _is_ccw_convex(hull)
    assert set(hull) <= pts


def test_projection_bad_axes(deg4_support):
    poly = build_polytope(deg4_support)
    for axes in ((0, 4), (2, 2), (-1, 1)):
        with pytest.raises(BadAxes):
            project_and_hull(poly, axes)


def test_hull_idempotent():
    pentagon = [(0, 0), (3, 0), (5, 2), (2, 8), (0, 9)]
    once = convex_hull_2d(pentagon)
    assert convex_hull_2d(once) == once
    assert set(once) == set(pentagon)


def test_hull_degenerate_inputs():
    assert convex_hull_2d([(1, 1)]) == [(1, 1)]
    assert convex_hull_2d([(1, 1), (0, 0), (1, 1)]) == [(0, 0), (1, 1)]


# --- rendering ----------------------------------------------------------------------


def test_svg_marker_count(deg4_support):
    poly = build_polytope(deg4_support, unit_interval_shift(deg4_support))
    svg = render_svg(project_and_hull(poly))
    assert svg.count('class="vertex"') == 5
    assert svg.startswith("<svg ") and svg.rstrip().endswith("</svg>")


def test_svg_fiber_base_count(mixed_support, mixed_gamma):
    fp = fiber_polygon(mixed_support, mixed_gamma)
    svg = render_svg(fp)
    assert svg.count('class="base"') == len(fp.bases) == 4


def test_svg_deterministic(mixed_support, mixed_gamma):
    fp = fiber_polygon(mixed_support, mixed_gamma)
    assert render_svg(fp) == render_svg(fp)


def test_svg_grid_bounded_at_huge_coefficients(mixed_support, mixed_gamma):
    # gamma ~ 1e12 spans ~6e13 lattice units; one grid line per unit would
    # never finish
    svg = render_svg(fiber_polygon(mixed_support, mixed_gamma.scaled(10**12)))
    assert 0 < svg.count('class="grid"') <= 2 * 101
    assert svg.count('class="base"') == 4


def test_svg_past_the_float_range_raises():
    render_svg([(0, 0), (1, 10**200)])
    with pytest.raises(NumberTooLarge):
        render_svg([(0, 0), (1, 10**320)])
    with pytest.raises(NumberTooLarge):
        render_svg([(0, 0), (Fraction(10**320, 3), 1)])


def test_svg_rational_coordinates():
    svg = render_svg([(Fraction(1, 3), 0), (1, 0), (1, Fraction(5, 7))])
    assert svg.count('class="vertex"') == 3
