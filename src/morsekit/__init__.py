"""morsekit: the Newton polytope of the Morse discriminant, in exact arithmetic.

Pipeline: validate a support set, extract combinatorial data from tropical
covectors, enumerate the realizable combinatorial types as exact rational
cones, evaluate the support function on each cone, and assemble the polytope
with fiber-polygon cross-checks.

Each public name loads its submodule on first use, and so does each
submodule name (`morsekit.cones`): `import morsekit` runs no submodule, and
the README's `extract` example loads only `errors`, `rationals` and
`tropical`.  `_HOME` is the one list of public names; `__all__` is read off it.
"""

import importlib

__version__ = "0.1.0"

# Where each public name, and each submodule, is defined.
_HOME = {
    name: module
    for module, names in {
        "cli": (),
        "cones": ("StrictSystem", "cone_constraints", "enumerate_types", "feasible"),
        "errors": (
            "BadAxes",
            "DegenerateHull",
            "DuplicatePoint",
            "HyperplaneViolation",
            "MalformedInput",
            "MissingCone",
            "MorsekitError",
            "NonIntegerCovector",
            "NotGenerating",
            "NotMorse",
            "NotPositiveSupport",
            "NumberTooLarge",
            "RootValueDegenerate",
            "SamplingError",
            "SlopeDegenerate",
            "SupportTooLarge",
            "TooShort",
            "ZeroInSupport",
        ),
        "fiber": (
            "FiberPolygon",
            "StrataCounts",
            "area_newton",
            "area_newton_formula",
            "fiber_polygon",
            "newton_polygon_vertices",
            "strata_counts",
            "vol_fiber_closed",
        ),
        "polytope": ("MorsePolytope", "build_polytope", "project_and_hull", "render_svg"),
        "rationals": ("parse_rational", "rational_to_json"),
        "singularity": (
            "FacetFunctional",
            "c_coeffs",
            "c_value",
            "c_value_via_levels",
            "chi_fork",
            "drop_key",
            "facet_functional",
            "gcd_ladder",
            "level_scan",
        ),
        "support_function": (
            "ShiftConfig",
            "maxwell_caustic_split",
            "mu_coeffs",
            "mu_coeffs_positive",
            "mu_value",
            "parse_shift",
            "unit_interval_shift",
        ),
        "tropical": (
            "Classification",
            "CombinatorialType",
            "Covector",
            "SupportSet",
            "classify",
            "convex_hull_2d",
            "covector_from_values",
            "extract",
            "parse_input_json",
            "roots_and_values",
            "upper_hull",
            "validate_support",
        ),
        "verify": ("run_property_suite", "sample_morse_covector"),
    }.items()
    for name in (module, *names)
}


def __getattr__(name: str):
    """Import the submodule that defines `name`, then bind it here."""
    try:
        home = _HOME[name]
    except KeyError:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None
    module = importlib.import_module(f"{__name__}.{home}")
    value = module if name == home else getattr(module, name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *_HOME})


__all__ = sorted(name for name, home in _HOME.items() if name != home)
