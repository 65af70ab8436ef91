"""Seeded property suite cross-checking every dual-route computation.

Checks a built polytope against the support and the shift it was built
with.  Samples integer covectors uniformly from {0, ..., 50}^|A|, resampling
on degeneracy (walls have measure zero but positive probability on a grid).
The sampler's genericity test extracts each sample's type; that one type,
one shoelace Newton area and one mu serve every check.  Each type's vertex
and its mu, C^j and |A2| forms (all linear on its cone) are built once per
run, at its first sample.  On each sample:

  * dominance: the maximum of <vertex, gamma> over the polytope equals the
    support-function value, attained exactly at the extracted cone's vertex.
    The vertices are packed once per run into one int per coordinate, every
    vertex in its own bit field (`PackedHeights`), so a sample's heights are
    |A| big-int multiply-adds and the verdict is one AND over the fields.
    The fields are sized from the largest vertex 1-norm times the sampler's
    bound; mu is only compared exactly with the own vertex's height, so no
    value of it can overflow a field.  Only a failing sample decodes the
    heights, for its detail;
  * the gcd-ladder and level-scan routes to every C^j agree;
  * the closed-form and trapezoid-stack fiber areas agree;
  * the shoelace and edge-sum Newton areas agree;
  * the three stratum-count relations hold against |A2| from the cone's
    own form, and twice the 2A1 count is even once the shift's endpoint
    terms are taken off.

Reports are deterministic for a fixed seed.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from operator import mul

from .errors import DegeneracyError
from .fiber import (
    area_newton,
    area_newton_formula,
    solve_strata,
    trapezoid_stack,
    vol_fiber_closed,
)
from .polytope import MorsePolytope
from .singularity import c_coeffs, c_value_via_levels, gcd_ladder, level_scan
from .support_function import a2_coeffs, mu_coeffs
from .tropical import CombinatorialType, Covector, SupportSet, extract


# the largest entry `run_property_suite` samples; the fields of its
# `PackedHeights` are sized for it, so both calls there name it
SAMPLE_BOUND = 50


def sample_morse_covector(
    support: SupportSet, rng: random.Random, *, bound: int = SAMPLE_BOUND
) -> tuple[Covector, CombinatorialType, int]:
    """A Morse covector from the seeded grid, its type, and the resample count.

    Each draw is a Covector of ints, extracted in integers; the first that
    extracts is returned with its type."""
    resamples = 0
    while True:
        gamma = Covector(support, tuple(rng.randint(0, bound) for _ in support.points))
        try:
            ctype = extract(support, gamma)
        except DegeneracyError:
            resamples += 1
            continue
        return gamma, ctype, resamples


class PackedHeights:
    """A vertex set packed so that a covector's heights on it are one int.

    Column `a` holds every vertex's a-th coordinate, vertex i's in the W-bit
    field at bit W*i, so the sum of gamma_a times column a holds
    <vertex_i, gamma> in field i.  On a covector with entries in [0, bound]
    each height lies in [-X, X] for X = bound times the largest 1-norm of a
    vertex, and each field of the dominance test in [-(2X+1), 2X+1];
    W = X.bit_length() + 2 holds that plus a bias of 2^(W-1), so no field
    borrows from the next.
    """

    def __init__(self, vertices, bound: int):
        reach = bound * max(sum(map(abs, v)) for v in vertices)
        self.width = width = reach.bit_length() + 2
        self.count = len(vertices)
        self.ones = sum(1 << (width * i) for i in range(self.count))
        self.tops = self.ones << (width - 1)  # the bias, and each field's sign bit
        self.columns = tuple(
            sum(c << (width * i) for i, c in enumerate(column))
            for column in zip(*vertices)
        )

    def heights(self, values) -> int:
        """Every vertex's height at the covector with these values, packed."""
        return sum(map(mul, values, self.columns))

    def offset(self, index: int) -> int:
        """The bias less 1 in every field but vertex `index`'s."""
        return self.tops - self.ones + (1 << (self.width * index))

    def dominates(self, packed: int, own: int, offset: int) -> bool:
        """Whether `own` is above every packed height but that of the vertex
        `offset` was made for, and at least that one.

        Field i holds own - height_i - [i is not that vertex] plus the bias,
        so that difference is >= 0 exactly when the field's top bit is set.
        """
        return (own * self.ones - packed + offset) & self.tops == self.tops

    def decode(self, packed: int) -> list[int]:
        """The heights, one per vertex in order, read back out of `packed`."""
        biased, width = packed + self.tops, self.width
        mask, half = (1 << width) - 1, 1 << (width - 1)
        return [((biased >> (width * i)) & mask) - half for i in range(self.count)]


@dataclass
class PropertyReport:
    name: str
    passed: int = 0
    failed: int = 0
    counterexample: dict | None = None

    @property
    def ok(self) -> bool:
        return self.failed == 0

    def record(self, ok: bool, gamma: Covector, detail: str):
        if ok:
            self.passed += 1
        else:
            self.failed += 1
            if self.counterexample is None:
                self.counterexample = {
                    "gamma": gamma.to_json(),
                    "detail": detail,
                }

    def to_json(self) -> dict:
        out = {"property": self.name, "passed": self.passed, "failed": self.failed}
        if self.counterexample is not None:
            out["counterexample"] = self.counterexample
        return out


@dataclass
class SuiteResult:
    support: SupportSet
    seed: int
    samples: int
    resamples: int = 0
    reports: list[PropertyReport] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return all(r.ok for r in self.reports)

    def to_json(self) -> dict:
        return {
            "A": list(self.support.points),
            "seed": self.seed,
            "samples": self.samples,
            "resamples": self.resamples,
            "ok": self.ok,
            "properties": [r.to_json() for r in self.reports],
        }


def run_property_suite(polytope: MorsePolytope, samples: int, seed: int) -> SuiteResult:
    """Run every property on `samples` seeded integer Morse covectors.

    The support and the shift are the polytope's own, so its vertices and
    the support-function values always follow one convention.
    """
    support, shift = polytope.support, polytope.shift
    rng = random.Random(seed)
    result = SuiteResult(support, seed, samples)
    dominance = PropertyReport("dominance")
    dual_c = PropertyReport("cj_dual_route")
    dual_vol = PropertyReport("fiber_volume_dual_route")
    dual_area = PropertyReport("newton_area_dual_route")
    strata = PropertyReport("strata_consistency")
    result.reports = [dominance, dual_c, dual_vol, dual_area, strata]
    packing = PackedHeights(polytope.vertices, SAMPLE_BOUND)
    position = {v: i for i, v in enumerate(polytope.vertices)}
    # each type's forms, built at its first sample: mu, vertex, the vertex's
    # dominance offset, C^j and |A2|
    forms: dict[CombinatorialType, tuple] = {}

    for _ in range(samples):
        gamma, ctype, extra = sample_morse_covector(support, rng, bound=SAMPLE_BOUND)
        result.resamples += extra
        if ctype not in forms:
            mu_form = mu_coeffs(support, ctype, shift)
            vertex = polytope.vertex_of(ctype)
            forms[ctype] = (
                mu_form,
                vertex,
                packing.offset(position[vertex]),
                [c_coeffs(support, ctype, j) for j in range(ctype.k)],
                a2_coeffs(support, ctype),
            )
        mu_form, vertex, offset, c_forms, a2_form = forms[ctype]
        # the sample holds ints, so each form's value is its plain sum
        values = gamma.values

        mu = sum(map(mul, mu_form, values))
        own = sum(map(mul, vertex, values))
        packed = packing.heights(values)
        ok = own == mu and packing.dominates(packed, own, offset)
        detail = ""
        if not ok:
            heights = packing.decode(packed)
            best = max(heights)
            argmax_count = heights.count(best)
            detail = f"max={best} mu={mu} own={own} argmax_count={argmax_count}"
        dominance.record(ok, gamma, detail)

        # the ladder route; the level route below scans the sample itself
        corrections = [sum(map(mul, c, values)) for c in c_forms]
        ok = True
        detail = ""
        for j, lhs in enumerate(corrections):
            rhs = c_value_via_levels(support, gamma, ctype, j)
            if lhs != rhs:
                runs, _ = level_scan(support, gamma, ctype, j)
                seq = tuple(i for i, count in runs for _ in range(count))
                ladder = gcd_ladder(ctype.w, j, ctype.m[j])
                ok = False
                detail = (
                    f"j={j} ladder_route={lhs} level_route={rhs} "
                    f"ladder={ladder} i_sequence={seq}"
                )
                break
        dual_c.record(ok, gamma, detail)

        shoelace = area_newton(support, gamma)
        closed = vol_fiber_closed(support, gamma, ctype)
        stacked = trapezoid_stack(support, gamma, ctype, shoelace).area()
        ok = closed == stacked
        dual_vol.record(ok, gamma, "" if ok else f"closed={closed} stack={stacked}")

        formula = area_newton_formula(support, gamma)
        ok = shoelace == formula
        dual_area.record(
            ok, gamma, "" if ok else f"shoelace={shoelace} formula={formula}"
        )

        counts = solve_strata(gamma, ctype, shift, shoelace, mu)
        # |A2| read off the cone's own form, not from the shoelace or mu
        a2 = sum(map(mul, a2_form, values))
        w0, wk = ctype.w[0], ctype.w[-1]
        eq1 = counts.chi_a1 + 2 * counts.n_2a1 + 2 * a2 == -shoelace
        eq2 = counts.n_a2 == a2
        # third relation, endpoint constants rebased to the raw convention
        c1_raw = shift.c1 - 3 * w0 - 2
        c2_raw = shift.c2 + 3 * wk - 2
        eq3 = counts.chi_a1 - counts.n_a2 == (
            -stacked - c1_raw * gamma(w0) - c2_raw * gamma(wk) - sum(corrections)
        )
        # the shift moves mu, hence 2*n_2a1, by c1*gamma(w0) + c2*gamma(wk);
        # parity is a property of the (0, 0) convention
        doubled = 2 * counts.n_2a1
        parity = (doubled - shift.c1 * gamma(w0) - shift.c2 * gamma(wk)) % 2 == 0
        ok = eq1 and eq2 and eq3 and parity
        strata.record(
            ok, gamma, "" if ok else f"eq1={eq1} eq2={eq2} eq3={eq3} parity={parity}"
        )
    return result
