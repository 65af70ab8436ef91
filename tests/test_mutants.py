"""The mutant matrix: which checks catch which defects in the vertex formulas
and the enumerator.

Each mutant is a wrong version of one kernel, patched over every binding of
it in the package (no source is edited).  For each mutant and support the
matrix pins the exact set of checks that fail: the hyperplane check of the
drop-key build and the five `verify` properties (200 samples, seed 1).  A
build that fails its hyperplane check ends the run there, as `verify` on
the command line exits 1 before it samples.  A second column pins the
cross-support identities that fail (`cross_support`), on more supports.  A
change that drops a catch shows as a diff of a row; rows are only ever
added to, never relaxed.
"""

import importlib
import json

import pytest

import morsekit as mk
from morsekit import (
    CombinatorialType,
    HyperplaneViolation,
    build_polytope,
    gcd_ladder,
    run_property_suite,
    validate_support,
)

from morsekit.cli import main

from cross_support import failing_identities

SUPPORTS = ([2, 3, 4, 6], [-3, -1, 1, 2, 4])


def _name(points) -> str:
    return ",".join(map(str, points))


def _patch_everywhere(monkeypatch, name, replacement, home=mk):
    """Rebind `name` to `replacement` in the package and every submodule
    that holds the original, read off `home`."""
    original = getattr(home, name)  # binds a public name here, so undo restores it
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


def _key_dropped(monkeypatch, pick):
    """enumerate_keys without the key at index `pick` (0 or -1) of the
    middle subdivision, the sorted Ws at index len // 2."""
    original = mk.cones.enumerate_keys

    def mutant(support, **kwargs):
        found = original(support, **kwargs)
        ws = sorted({ctype.w for ctype, _ in found})
        middle = [i for i, (ctype, _) in enumerate(found) if ctype.w == ws[len(ws) // 2]]
        del found[middle[pick]]
        return found

    _patch_everywhere(monkeypatch, "enumerate_keys", mutant, home=mk.cones)


MUTANTS = {
    "none": lambda monkeypatch: None,
    "z_weight_d-2": lambda monkeypatch: _z_weight(monkeypatch, 1),
    "z_weight_d-4": lambda monkeypatch: _z_weight(monkeypatch, -1),
    "ladder_term_doubled": _ladder_term_doubled,
    "first_key_dropped": lambda monkeypatch: _key_dropped(monkeypatch, 0),
    "last_key_dropped": lambda monkeypatch: _key_dropped(monkeypatch, -1),
}

STRATA = {"strata_consistency"}

# a dropped key breaks no hyperplane, and seed 1 samples a type of it: the
# suite raises KeyError when it looks that type's vertex up (pinned as the type)
UNKEYED = {
    "2,3,4,6": CombinatorialType((2, 4, 6), (0, 1), ((3, 6), (3, 2))),
    "-3,-1,1,2,4": CombinatorialType(
        (-3, 1, 2, 4), (0, 1, 2), ((2, -1, 4), (-3, -1, 4), (1, -1, -3))
    ),
}

# mutant -> support -> the checks that fail, or the type the suite cannot look up
MATRIX = {
    "none": {"2,3,4,6": set(), "-3,-1,1,2,4": set()},
    "z_weight_d-2": {"2,3,4,6": STRATA, "-3,-1,1,2,4": STRATA},
    "z_weight_d-4": {"2,3,4,6": STRATA, "-3,-1,1,2,4": STRATA},
    "ladder_term_doubled": {"2,3,4,6": {"hyperplane"}, "-3,-1,1,2,4": {"hyperplane"}},
    "first_key_dropped": UNKEYED,
    "last_key_dropped": UNKEYED,
}

IDENTITY_SUPPORTS = (
    [2, 3, 4, 6],
    [-3, -1, 1, 2, 4],
    [1, 2, 3, 4, 5],
    [1, 2, 3, 4, 5, 6],
    [-3, -1, 1, 2, 4, 5],
)


def _restrictions_and_reflection(*at) -> set[str]:
    return {f"restriction {a}" for a in at} | {"reflection"}


PASS = dict.fromkeys(map(_name, IDENTITY_SUPPORTS), set())
# every restriction of these supports, and the reflection; on every support
# but [-3,-1,1,2,4,5] the middle W has one key, which both rows drop
DROPPED = {
    "2,3,4,6": _restrictions_and_reflection(4),
    "-3,-1,1,2,4": _restrictions_and_reflection(-1, 1, 2),
    "1,2,3,4,5": _restrictions_and_reflection(2, 3, 4),
    "1,2,3,4,5,6": _restrictions_and_reflection(2, 3, 4, 5),
    "-3,-1,1,2,4,5": _restrictions_and_reflection(-1, 1, 2, 4),
}

# mutant -> support -> the cross-support identities that fail; the Z weights
# are consistent across supports, so they pass every identity
IDENTITIES = {
    "none": PASS,
    "z_weight_d-2": PASS,
    "z_weight_d-4": PASS,
    "ladder_term_doubled": dict.fromkeys(PASS, {"hyperplane"}),
    "first_key_dropped": DROPPED,
    "last_key_dropped": DROPPED,
}


def _failing_checks(points) -> set[str]:
    support = validate_support(points)
    try:
        polytope = build_polytope(support, keys=True)
    except HyperplaneViolation:
        return {"hyperplane"}
    result = run_property_suite(polytope, 200, 1)
    return {report.name for report in result.reports if not report.ok}


@pytest.mark.parametrize("points", SUPPORTS, ids=_name)
@pytest.mark.parametrize("mutant", MUTANTS)
def test_mutant_matrix(monkeypatch, mutant, points):
    expected = MATRIX[mutant][_name(points)]
    assert expected or mutant == "none"  # every mutant is caught
    MUTANTS[mutant](monkeypatch)
    if isinstance(expected, CombinatorialType):
        with pytest.raises(KeyError) as raised:
            _failing_checks(points)
        assert raised.value.args == (f"no cone for {expected}",)
    else:
        assert _failing_checks(points) == expected


@pytest.mark.parametrize("points", SUPPORTS, ids=_name)
def test_missing_cone_exits_one_on_the_command_line(monkeypatch, capsys, points):
    # the type the suite cannot look up is a typed error: one line, exit 1
    MUTANTS["first_key_dropped"](monkeypatch)
    code = main(["verify", json.dumps({"A": points}), "--seed", "1"])
    out, err = capsys.readouterr()
    assert code == 1 and out == ""
    assert err == f"error: no cone for {UNKEYED[_name(points)]}\n"
    assert "Traceback" not in err


@pytest.mark.parametrize("points", IDENTITY_SUPPORTS, ids=_name)
@pytest.mark.parametrize("mutant", MUTANTS)
def test_identity_column(monkeypatch, mutant, points):
    MUTANTS[mutant](monkeypatch)
    assert failing_identities(points) == IDENTITIES[mutant][_name(points)]


def test_patches_are_undone(monkeypatch):
    original = mk.mu_coeffs
    with monkeypatch.context() as patch:
        _z_weight(patch, 1)
        assert mk.mu_coeffs is not original
        assert mk.polytope.mu_coeffs is mk.verify.mu_coeffs is mk.mu_coeffs
    assert mk.polytope.mu_coeffs is mk.verify.mu_coeffs is mk.mu_coeffs is original
    original = mk.cones.enumerate_keys
    with monkeypatch.context() as patch:
        _key_dropped(patch, 0)
        assert mk.cones.enumerate_keys is mk.polytope.enumerate_keys is not original
    assert mk.cones.enumerate_keys is mk.polytope.enumerate_keys is original
