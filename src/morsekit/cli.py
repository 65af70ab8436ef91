"""Command-line front end: one subcommand per pipeline stage.

Input is a JSON object {"A": [...], "gamma": [...]} given inline or as a
file path; rational gamma entries may be "p/q" strings.  Each subcommand
accepts only the flags its handler reads.  Exit codes: 0 on success, 1 on
malformed input or a usage error, 2 when `extract` meets a degenerate
covector, 3 when `verify` finds a failing property.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys

from .cones import cone_constraints, enumerate_types
from .errors import DegeneracyError, MorsekitError
from .fiber import fiber_polygon, strata_counts, vol_fiber_closed
from .polytope import build_polytope, project_and_hull, render_svg
from .rationals import rational_to_json
from .singularity import (
    c_coeffs,
    c_value_via_levels,
    gcd_ladder,
    level_scan,
)
from .support_function import mu_coeffs, parse_shift
from .tropical import classify, extract, parse_input_json
from .verify import run_property_suite


def _load_input(text: str):
    stripped = text.strip()
    if stripped.startswith("{") or stripped.startswith("["):
        raw = stripped
    elif os.path.exists(stripped):
        with open(stripped, "r", encoding="utf-8") as fh:
            raw = fh.read()
    else:
        raise MorsekitError(f"input is neither inline JSON nor an existing file: {text!r}")
    try:
        obj = json.loads(raw)
    except ValueError as exc:
        # a JSONDecodeError, or an integer literal past Python's digit limit
        raise MorsekitError(f"invalid JSON input: {exc}") from exc
    return parse_input_json(obj)


def _need_gamma(gamma):
    if gamma is None:
        raise MorsekitError('this command needs a "gamma" entry in the input')
    return gamma


def _emit(args, payload: dict, text: str):
    if args.format == "json":
        print(json.dumps(payload, sort_keys=True, separators=(",", ":")))
    else:
        print(text)


def _polytope(args, support, keys=False):
    return build_polytope(support, parse_shift(args.shift, support), keys=keys)


def cmd_extract(args) -> int:
    support, gamma = _load_input(args.input)
    gamma = _need_gamma(gamma)
    classification = classify(support, gamma)
    rv = classification.roots_and_values  # `extract` builds its own root table
    try:
        ctype = extract(support, gamma)
    except DegeneracyError as exc:
        payload = {
            "degenerate": str(exc),
            **classification.to_json(),
        }
        _emit(args, payload, f"degenerate: {exc}\nclass: {classification.kind}")
        return 2
    payload = {
        **ctype.to_json(),
        "roots": [rational_to_json(r) for r, _ in rv],
        "values": [rational_to_json(v) for _, v in rv],
        **classification.to_json(),
    }
    text = "\n".join(
        [
            f"W: {list(ctype.w)}",
            f"Z: {list(ctype.z)}",
            *(f"M^{j}: {list(m)}" for j, m in enumerate(ctype.m)),
            f"roots: {[rational_to_json(r) for r, _ in rv]}",
            f"values: {[rational_to_json(v) for _, v in rv]}",
            f"class: {classification.kind}",
        ]
    )
    _emit(args, payload, text)
    return 0


def cmd_mu(args) -> int:
    support, gamma = _load_input(args.input)
    gamma = _need_gamma(gamma)
    shift = parse_shift(args.shift, support)
    ctype = extract(support, gamma)
    vertex = mu_coeffs(support, ctype, shift)
    value = gamma.dot(vertex)
    payload = {
        "mu": rational_to_json(value),
        "vertex": list(vertex),
        "shift": list(shift),
        **ctype.to_json(),
    }
    _emit(args, payload, f"mu = {rational_to_json(value)}\nvertex = {list(vertex)}")
    return 0


# An i_sequence has one entry per lattice level, and the number of levels
# grows linearly with gamma's entries (up to about 7 million at entries near
# 10^6), as does the memory to print them: 10^7 entries take about 130 MB
# and 20 MB of output.  Past that many in all, `cj --format json` refuses
# rather than run out of memory; `--format text` prints no sequence.
_MAX_I_SEQUENCE = 10**7


def cmd_cj(args) -> int:
    support, gamma = _load_input(args.input)
    gamma = _need_gamma(gamma)
    ctype = extract(support, gamma)
    rows = []
    entries = 0
    for j in range(ctype.k):
        coeffs = c_coeffs(support, ctype, j)
        value = gamma.dot(coeffs)
        entry = {
            "j": j,
            "coeffs": list(coeffs),
            "value": rational_to_json(value),
            "ladder": list(gcd_ladder(ctype.w, j, ctype.m[j])),
            "level_route_value": rational_to_json(
                c_value_via_levels(support, gamma, ctype, j)
            ),
        }
        if gamma.is_integral():
            runs, ff = level_scan(support, gamma, ctype, j)
            entry["facet_volume"] = ff.volume
            if args.format == "json":
                entries += sum(count for _, count in runs)
                if entries > _MAX_I_SEQUENCE:
                    raise MorsekitError(
                        f"the i_sequences have more than {_MAX_I_SEQUENCE} "
                        "entries; use --format text"
                    )
                entry["i_sequence"] = [i for i, count in runs for _ in range(count)]
        rows.append(entry)
    text = "\n".join(
        f"C^{row['j']}: value={row['value']} coeffs={row['coeffs']}" for row in rows
    )
    _emit(args, {"corrections": rows}, text)
    return 0


def cmd_fiber(args) -> int:
    support, gamma = _load_input(args.input)
    gamma = _need_gamma(gamma)
    fp = fiber_polygon(support, gamma)
    if args.format == "svg":
        sys.stdout.write(render_svg(fp))
        return 0
    payload = {
        **fp.to_json(),
        "volume_closed": rational_to_json(vol_fiber_closed(support, gamma)),
        "volume_trapezoids": rational_to_json(fp.area()),
    }
    text = "\n".join(
        [
            f"bases: {payload['bases']}",
            f"heights: {payload['heights']}",
            f"volume: {payload['volume_closed']}",
        ]
    )
    _emit(args, payload, text)
    return 0


def cmd_enumerate(args) -> int:
    support, _ = _load_input(args.input)
    types = enumerate_types(support)
    # the number of forms depends on W alone: one cone system per subdivision
    constraints = {}
    for ctype, _ in types:
        if ctype.w not in constraints:
            constraints[ctype.w] = len(cone_constraints(support, ctype).forms)
    payload = {
        "A": list(support.points),
        "count": len(types),
        "types": [
            {
                **ctype.to_json(),
                "witness": witness.to_json(),
                "constraints": constraints[ctype.w],
            }
            for ctype, witness in types
        ],
    }
    text = "\n".join(
        f"W={list(t.w)} Z={list(t.z)} M={[list(m) for m in t.m]}" for t, _ in types
    )
    _emit(args, payload, f"{len(types)} types\n{text}")
    return 0


def cmd_polytope(args) -> int:
    support, _ = _load_input(args.input)
    svg = args.format == "svg"  # reads no cones: a key build
    poly = _polytope(args, support, keys=svg)
    if svg:
        sys.stdout.write(render_svg(project_and_hull(poly, _axes(args))))
        return 0
    payload = poly.to_json()
    text = "\n".join(
        [
            f"vertices ({len(poly.vertices)}): "
            + " ".join(str(list(v)) for v in poly.vertices),
            f"d1={poly.d1} d2={poly.d2}",
            f"cones: {len(poly.cones)}",
        ]
    )
    _emit(args, payload, text)
    return 0


def cmd_strata(args) -> int:
    support, gamma = _load_input(args.input)
    gamma = _need_gamma(gamma)
    shift = parse_shift(args.shift, support)
    counts = strata_counts(support, gamma, shift)
    payload = counts.to_json()
    text = "\n".join(
        [
            f"chi(A1) = {counts.chi_a1}",
            f"|A2| = {counts.n_a2}",
            f"|2A1| = {rational_to_json(counts.n_2a1)} (shift {list(counts.shift)})",
            f"parity_ok = {counts.parity_ok}",
        ]
    )
    _emit(args, payload, text)
    return 0


# A 200-sample `verify` on [-3,-1,1,2,4] takes about 31 ms with its 6 ms
# drop-key build (2-core x86 box shared with other load, Python 3.11): about
# 0.12 ms a sample, so the cap is a run of about 12 s (11.9 s measured).
# Past it `verify` refuses before the build.
_MAX_SAMPLES = 10**5


def cmd_verify(args) -> int:
    if args.samples < 1:
        raise MorsekitError("--samples must be >= 1")
    if args.samples > _MAX_SAMPLES:
        raise MorsekitError(f"--samples must be <= {_MAX_SAMPLES}")
    support, _ = _load_input(args.input)
    polytope = _polytope(args, support, keys=True)  # the suite reads no cones
    result = run_property_suite(polytope, args.samples, args.seed)
    lines = [f"seed={result.seed} samples={result.samples} resamples={result.resamples}"]
    for report in result.reports:
        status = "pass" if report.ok else "FAIL"
        line = f"{status} {report.name}: {report.passed} ok, {report.failed} bad"
        if report.counterexample is not None:
            line += f" counterexample={report.counterexample}"
        lines.append(line)
    _emit(args, result.to_json(), "\n".join(lines))
    return 0 if result.ok else 3


def cmd_plot(args) -> int:
    support, gamma = _load_input(args.input)
    if gamma is not None:
        sys.stdout.write(render_svg(fiber_polygon(support, gamma)))
        return 0
    poly = _polytope(args, support, keys=True)  # the drawing reads no cones
    sys.stdout.write(render_svg(project_and_hull(poly, _axes(args))))
    return 0


def _axes(args) -> tuple[int, int] | None:
    if args.axes is None:
        return None
    try:
        i, j = (int(part) for part in args.axes.split(","))
    except ValueError as exc:
        raise MorsekitError(f"--axes must be 'i,j', got {args.axes!r}") from exc
    return (i, j)


class _Parser(argparse.ArgumentParser):
    """Usage errors exit 1, like malformed input; 2 means a degenerate covector.

    Each parser reports the arguments it does not read itself, so a flag a
    subcommand does not read is shown with that subcommand's usage line.
    """

    def parse_known_args(self, args=None, namespace=None):
        namespace, extras = super().parse_known_args(args, namespace)
        if extras:
            self.error(f"unrecognized arguments: {' '.join(extras)}")
        return namespace, extras

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


_OPTIONS = {
    "--shift": dict(default="0,0", help="'c1,c2' or 'unit-interval'"),
    "--axes": dict(default=None, help="projection axes 'i,j'"),
    "--samples": dict(type=int, default=200),
    "--seed": dict(type=int, default=0),
}


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="morsekit",
        description="Newton polytope of the Morse discriminant, exactly.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    text, svg = ("json", "text"), ("json", "text", "svg")
    # subcommand, help, --format choices, the other flags it reads
    commands = (
        ("extract", "combinatorial data of a covector", text, ()),
        ("mu", "support-function value and cone vertex", text, ("--shift",)),
        ("cj", "correction sums C^j with dual-route diagnostics", text, ()),
        ("fiber", "fiber polygon as a trapezoid stack", svg, ()),
        ("enumerate", "all realizable combinatorial types", text, ()),
        ("polytope", "vertices and cone table of the polytope", svg,
         ("--shift", "--axes")),
        ("strata", "multisingularity stratum counts", text, ("--shift",)),
        ("verify", "seeded property suite", text, ("--shift", "--samples", "--seed")),
        ("plot", "SVG of the projected polytope or fiber polygon", (),
         ("--shift", "--axes")),
    )
    for name, help_text, formats, flags in commands:
        p = sub.add_parser(name, help=help_text)
        p.add_argument("input", help="inline JSON or path to a JSON file")
        if formats:
            p.add_argument("--format", choices=formats, default="text")
        for flag in flags:
            p.add_argument(flag, **_OPTIONS[flag])
    return parser


# `main` parses every call with one parser, built at its first call: argparse
# keeps no state between parses, and the parser holds no handler, since
# `main` looks each command's `cmd_*` up when it runs
@functools.cache
def _parser() -> argparse.ArgumentParser:
    return build_parser()


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        return globals()[f"cmd_{args.command}"](args)
    except (MorsekitError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
