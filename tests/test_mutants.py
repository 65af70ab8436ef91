"""The mutant matrix: which checks catch which defects in the vertex formulas.

Each mutant is a wrong version of one kernel, patched over every binding of
it in the package (no source is edited).  For each mutant and support the
matrix pins the exact set of checks that fail: the hyperplane check of the
drop-key build and the five `verify` properties (200 samples, seed 1).  A
build that fails its hyperplane check ends the run there, as `verify` on
the command line exits 1 before it samples.  A change that drops a catch
shows as a diff of a row; rows are only ever added to, never relaxed.
"""

import importlib

import pytest

import morsekit as mk
from morsekit import (
    HyperplaneViolation,
    build_polytope,
    gcd_ladder,
    run_property_suite,
    validate_support,
)

SUPPORTS = ([2, 3, 4, 6], [-3, -1, 1, 2, 4])


def _patch_everywhere(monkeypatch, name, replacement):
    """Rebind `name` to `replacement` in the package and every submodule
    that holds the original."""
    original = getattr(mk, name)  # bound in the package now, so undo restores it
    modules = {mk} | {
        importlib.import_module(f"morsekit.{home}") for home in set(mk._HOME.values())
    }
    for module in modules:
        if vars(module).get(name) is original:
            monkeypatch.setattr(module, name, replacement)


def _z_weight(monkeypatch, step):
    """mu_coeffs with every edge form S_j weighted by d_j - 3 + step."""
    original = mk.mu_coeffs

    def mutant(support, ctype, *args, **kwargs):
        w = ctype.w
        edges = support.form(
            [term for u, v in zip(w, w[1:]) for term in ((u, step * v), (v, -step * u))]
        )
        return tuple(map(sum, zip(original(support, ctype, *args, **kwargs), edges)))

    _patch_everywhere(monkeypatch, "mu_coeffs", mutant)


def _ladder_term_doubled(monkeypatch):
    """c_coeffs with the term on gamma(m) counted twice at each ladder drop."""
    original = mk.c_coeffs

    def mutant(support, ctype, j):
        w, m_j = ctype.w, ctype.m[j]
        ladder = gcd_ladder(w, j, m_j)
        extra = support.form(
            [
                (m, (w[j + 1] - w[j]) * (b - c))
                for m, b, c in zip(m_j, ladder, ladder[1:])
            ]
        )
        return tuple(map(sum, zip(original(support, ctype, j), extra)))

    _patch_everywhere(monkeypatch, "c_coeffs", mutant)


MUTANTS = {
    "none": lambda monkeypatch: None,
    "z_weight_d-2": lambda monkeypatch: _z_weight(monkeypatch, 1),
    "z_weight_d-4": lambda monkeypatch: _z_weight(monkeypatch, -1),
    "ladder_term_doubled": _ladder_term_doubled,
}

STRATA = {"strata_consistency"}

# mutant -> support -> the checks that fail
MATRIX = {
    "none": {"2,3,4,6": set(), "-3,-1,1,2,4": set()},
    "z_weight_d-2": {"2,3,4,6": STRATA, "-3,-1,1,2,4": STRATA},
    "z_weight_d-4": {"2,3,4,6": STRATA, "-3,-1,1,2,4": STRATA},
    "ladder_term_doubled": {"2,3,4,6": {"hyperplane"}, "-3,-1,1,2,4": {"hyperplane"}},
}


def _failing_checks(points) -> set[str]:
    support = validate_support(points)
    try:
        polytope = build_polytope(support, keys=True)
    except HyperplaneViolation:
        return {"hyperplane"}
    result = run_property_suite(polytope, 200, 1)
    return {report.name for report in result.reports if not report.ok}


@pytest.mark.parametrize("points", SUPPORTS, ids=lambda p: ",".join(map(str, p)))
@pytest.mark.parametrize("mutant", MUTANTS)
def test_mutant_matrix(monkeypatch, mutant, points):
    expected = MATRIX[mutant][",".join(map(str, points))]
    assert expected or mutant == "none"  # every mutant is caught
    MUTANTS[mutant](monkeypatch)
    assert _failing_checks(points) == expected


def test_patches_are_undone(monkeypatch):
    original = mk.mu_coeffs
    with monkeypatch.context() as patch:
        _z_weight(patch, 1)
        assert mk.mu_coeffs is not original
        assert mk.polytope.mu_coeffs is mk.verify.mu_coeffs is mk.mu_coeffs
    assert mk.polytope.mu_coeffs is mk.verify.mu_coeffs is mk.mu_coeffs is original
