"""Checks on the repository itself: the README's library block runs and
prints what its comments say, each name loads its submodule on first use, no
module imports another's private name or a name it never uses, and no module
calls float outside the SVG code."""

import ast
import importlib
import os
import re
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import morsekit as mk

ROOT = Path(__file__).parents[1]
PACKAGE = ROOT / "src" / "morsekit"


def _library_block() -> str:
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    return re.search(r"## Library\n\n```python\n(.*?)```", readme, re.S).group(1)


def _run_block(source: str) -> tuple[dict, dict]:
    """Run the block one statement at a time.

    Returns the final namespace and the value of each expression statement
    and each assignment to one name, keyed by its source text without the
    comment, so a value the block later rebinds is kept as it was.
    """
    namespace: dict = {}
    values: dict = {}
    for node in ast.parse(source).body:
        text = ast.get_source_segment(source, node)
        if isinstance(node, ast.Expr):
            code = compile(ast.Expression(node.value), "README.md", "eval")
            values[text] = eval(code, namespace)
            continue
        exec(compile(ast.Module([node], []), "README.md", "exec"), namespace)
        if isinstance(node, ast.Assign) and isinstance(node.targets[0], ast.Name):
            values[text] = namespace[node.targets[0].id]
    return namespace, values


def test_readme_library_block():
    ns, values = _run_block(_library_block())
    A = ns["A"]
    ctype = values["ctype = mk.extract(A, gamma)"]
    assert (ctype.w, ctype.z) == ((-3, -1, 2, 4), (1, 0, 2))

    mu = values["mk.mu_value(A, gamma)"]
    assert type(mu) is Fraction and mu == Fraction(394)
    assert values["mk.mu_coeffs(A, ctype)"] == (37, 15, 2, 33, 39)

    poly = values["poly = mk.build_polytope(A)"]
    assert len(poly.vertices) == 16 and (poly.d1, poly.d2) == (126, 98)
    assert len(values["mk.project_and_hull(poly, (1, 2))"]) >= 3

    fp = values["fp = mk.fiber_polygon(A, gamma)"]
    assert fp.bases == (58, 43, 31, 13) and fp.heights == (3, 2, 2)
    assert values["mk.vol_fiber_closed(A, gamma)"] == 539 == fp.area()
    counts = values["mk.strata_counts(A, gamma)"]
    assert (counts.chi_a1, counts.n_a2, counts.n_2a1) == (-506, 54, 170)

    assert values["mk.fiber_polygon(A, gamma, ctype)"] == fp
    assert values["mk.strata_counts(A, gamma, ctype=ctype)"] == counts
    assert values["mk.vol_fiber_closed(A, gamma, ctype)"] == 539

    assert ns["ints"] == values["gamma = mk.covector_from_values(A, [3, 5, 2, 5, 1])"]
    closed = values["mk.vol_fiber_closed(A, ints)"]
    assert type(closed) is int and closed == 539
    mu_ints = values["mk.mu_value(A, ints)"]
    assert type(mu_ints) is int and mu_ints == 394

    sampled, sampled_type, resamples = ns["gamma"], ns["ctype"], ns["resamples"]
    assert mk.classify(A, sampled).is_morse
    assert mk.extract(A, sampled) == sampled_type
    assert isinstance(resamples, int) and resamples >= 0


SUBMODULES = sorted(p.stem for p in PACKAGE.glob("*.py") if p.stem != "__init__")


def _fresh_interpreter(source: str) -> str:
    """Stdout of a new interpreter that runs `source` with `src` on its path."""
    path = [str(ROOT / "src"), os.environ.get("PYTHONPATH", "")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, path)))
    proc = subprocess.run(
        [sys.executable, "-c", source], env=env, capture_output=True, text=True, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def test_readme_extract_loads_only_the_tropical_layer():
    block = _library_block()
    example = block[: block.index("\n", block.index("mk.extract(")) + 1]
    loaded = "import sys\nprint(sorted(m for m in sys.modules if m.startswith('morsekit')))"
    assert _fresh_interpreter(example + loaded) == (
        "['morsekit', 'morsekit.errors', 'morsekit.rationals', 'morsekit.tropical']\n"
    )


@pytest.mark.parametrize("name", SUBMODULES)
def test_submodule_resolves_through_the_package(name):
    source = (
        "import sys, morsekit\n"
        f"assert 'morsekit.{name}' not in sys.modules\n"
        f"assert morsekit.{name} is sys.modules['morsekit.{name}']\n"
    )
    _fresh_interpreter(source)


def test_every_public_name_resolves_through_the_package():
    source = """
import morsekit
assert set(morsekit.__all__) <= set(dir(morsekit))
star = {}
exec("from morsekit import *", star)
assert sorted(set(star) - {"__builtins__"}) == sorted(morsekit.__all__)
for name in morsekit.__all__:
    assert getattr(morsekit, name) is star[name], name
try:
    morsekit.no_such_name
except AttributeError as exc:
    print(exc)
"""
    assert _fresh_interpreter(source) == (
        "module 'morsekit' has no attribute 'no_such_name'\n"
    )


def test_each_public_name_maps_to_the_module_that_defines_it():
    home = mk._HOME
    assert sorted(name for name, module in home.items() if name == module) == SUBMODULES
    assert sorted(set(home) - set(SUBMODULES)) == sorted(mk.__all__)
    assert len(set(mk.__all__)) == len(mk.__all__)
    for name in mk.__all__:
        module = importlib.import_module(f"morsekit.{home[name]}")
        assert getattr(module, name).__module__ == module.__name__, name


def _private_imports(path: Path) -> list[str]:
    found = []
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if not isinstance(node, ast.ImportFrom):
            continue
        internal = node.level > 0 or (node.module or "").startswith("morsekit")
        found += [
            f"{path.name}:{node.lineno} imports {alias.name}"
            for alias in node.names
            if internal and alias.name.startswith("_")
        ]
    return found


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_no_module_imports_a_private_name(path):
    # a name another module needs is public, even if it stays out of __all__
    assert _private_imports(path) == []


def test_private_import_guard_sees_relative_imports(tmp_path):
    module = tmp_path / "example.py"
    module.write_text("from .cones import feasible, _solve\nfrom math import _x\n")
    assert _private_imports(module) == ["example.py:1 imports _solve"]


def _unused_imports(path: Path) -> list[str]:
    """Imported names the module never reads, nor lists in `__all__`."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in tree.body:
        # only a literal list is read: a derived `__all__`, as the package's,
        # is computed from names the module already reads
        literal = isinstance(node, ast.Assign) and isinstance(node.value, ast.List)
        targets = node.targets if literal else []
        if any(isinstance(t, ast.Name) and t.id == "__all__" for t in targets):
            used |= {elt.value for elt in node.value.elts}
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names = [alias.asname or alias.name.split(".")[0] for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            names = [alias.asname or alias.name for alias in node.names]
        else:
            continue
        unused = [name for name in names if name not in used]
        found += [f"{path.name}:{node.lineno} imports {name}" for name in unused]
    return found


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_no_module_imports_a_name_it_never_uses(path):
    assert _unused_imports(path) == []


def test_unused_import_guard_sees_names_left_behind(tmp_path):
    module = tmp_path / "example.py"
    module.write_text(
        "from __future__ import annotations\n"
        "import json\n"
        "import os.path\n"
        "from math import gcd, lcm as least\n"
        "from .rationals import common_denominator, parse_rational\n"
        "__all__ = ['parse_rational']\n"
        "def f(x: gcd) -> int:\n"
        "    return os.path.join(x)\n"
    )
    assert _unused_imports(module) == [
        "example.py:2 imports json",
        "example.py:4 imports least",
        "example.py:5 imports common_denominator",
    ]


# Exact arithmetic everywhere; floats only where the SVG drawing needs pixel
# coordinates, in these functions of polytope.py (nested ones included).
SVG_CODE = {("polytope.py", "_fmt"), ("polytope.py", "render_svg")}


def _float_calls(path: Path) -> list[str]:
    found = []

    def visit(node, function):
        for child in ast.iter_child_nodes(node):
            owner = function
            if function is None and isinstance(child, ast.FunctionDef):
                owner = child.name
            if (
                isinstance(child, ast.Call)
                and isinstance(child.func, ast.Name)
                and child.func.id == "float"
                and (path.name, owner) not in SVG_CODE
            ):
                found.append(f"{path.name}:{child.lineno} calls float")
            visit(child, owner)

    visit(ast.parse(path.read_text(encoding="utf-8")), None)
    return found


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_no_module_calls_float_outside_the_svg_code(path):
    assert _float_calls(path) == []


def test_float_guard_sees_calls_outside_the_svg_code(tmp_path):
    source = (
        "def _fmt(x):\n"
        "    return float(x)\n"
        "def render_svg(p):\n"
        "    def ty(y):\n"
        "        return float(y)\n"
        "def area(p):\n"
        "    return isinstance(p, float) or float(p)\n"
        "SCALE = float('1')\n"
    )
    svg = tmp_path / "polytope.py"
    svg.write_text(source)
    assert _float_calls(svg) == [f"polytope.py:{n} calls float" for n in (7, 8)]
    other = tmp_path / "fiber.py"
    other.write_text(source)
    assert _float_calls(other) == [f"fiber.py:{n} calls float" for n in (2, 5, 7, 8)]
