"""Seeded property suite cross-checking every dual-route computation.

Checks a built polytope against the support and the shift it was built
with.  Samples integer covectors uniformly from {0, ..., 50}^|A|, resampling
on degeneracy (walls have measure zero but positive probability on a grid).
The sampler's genericity test extracts each sample's type; that one type,
one shoelace Newton area and one mu serve every check.  Each type's vertex
and its mu, C^j and |A2| forms (all linear on its cone) are built once per
run, at its first sample.  On each sample:

  * dominance: the maximum of <vertex, gamma> over the polytope equals the
    support-function value, attained exactly at the extracted cone's vertex;
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


def sample_morse_covector(
    support: SupportSet, rng: random.Random, *, bound: int = 50
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


@dataclass
class PropertyReport:
    name: str
    passed: int = 0
    failed: int = 0
    counterexample: dict | None = None

    @property
    def ok(self) -> bool:
        return self.failed == 0

    def record(self, ok: bool, gamma: Covector, detail: str = ""):
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
    # each type's forms, built at its first sample: (mu, vertex, C^j, |A2|)
    forms: dict[CombinatorialType, tuple] = {}

    for _ in range(samples):
        gamma, ctype, extra = sample_morse_covector(support, rng)
        result.resamples += extra
        if ctype not in forms:
            forms[ctype] = (
                mu_coeffs(support, ctype, shift),
                polytope.vertex_of(ctype),
                [c_coeffs(support, ctype, j) for j in range(ctype.k)],
                a2_coeffs(support, ctype),
            )
        mu_form, vertex, c_forms, a2_form = forms[ctype]

        mu = gamma.dot(mu_form)
        heights = [gamma.dot(v) for v in polytope.vertices]
        best = max(heights)
        own = gamma.dot(vertex)
        argmax_count = heights.count(best)
        dominance.record(
            best == mu and own == mu and argmax_count == 1,
            gamma,
            f"max={best} mu={mu} own={own} argmax_count={argmax_count}",
        )

        # the ladder route; the level route below scans the sample itself
        corrections = [gamma.dot(c) for c in c_forms]
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
        dual_vol.record(closed == stacked, gamma, f"closed={closed} stack={stacked}")

        formula = area_newton_formula(support, gamma)
        dual_area.record(
            shoelace == formula, gamma, f"shoelace={shoelace} formula={formula}"
        )

        counts = solve_strata(gamma, ctype, shift, shoelace, mu)
        # |A2| read off the cone's own form, not from the shoelace or mu
        a2 = gamma.dot(a2_form)
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
        strata.record(
            eq1 and eq2 and eq3 and parity,
            gamma,
            f"eq1={eq1} eq2={eq2} eq3={eq3} parity={parity}",
        )
    return result
