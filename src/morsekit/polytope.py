"""Assembling the Morse polytope: vertices, projections, and SVG output."""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from math import ceil, floor

from .cones import MAX_SUPPORT_SIZE, enumerate_keys, enumerate_types
from .errors import BadAxes, HyperplaneViolation, NumberTooLarge
from .rationals import rational_to_json
from .singularity import drop_key
from .support_function import ShiftConfig, mu_coeffs
from .tropical import CombinatorialType, Covector, SupportSet, convex_hull_2d


@dataclass(frozen=True)
class ConeRecord:
    """One enumerated cone with its witness and the vertex it maps to."""

    ctype: CombinatorialType
    witness: Covector
    vertex_index: int


@dataclass(frozen=True)
class MorsePolytope:
    """Deduplicated vertex set plus the cone-to-vertex surjection table.

    Every vertex lies on the same two hyperplanes: coordinate sum d1 and
    exponent-weighted sum d2.
    """

    support: SupportSet
    shift: ShiftConfig
    vertices: tuple[tuple[int, ...], ...]
    cones: tuple[ConeRecord, ...]
    d1: int
    d2: int

    @cached_property
    def _cone_index(self) -> dict[CombinatorialType, int]:
        # a type and its drop key share one vertex, and a key is its own key
        return {drop_key(record.ctype): record.vertex_index for record in self.cones}

    def vertex_of(self, ctype: CombinatorialType) -> tuple[int, ...]:
        """The vertex of a type's cone, looked up by its drop key."""
        found = self._cone_index.get(drop_key(ctype))
        if found is None:
            raise KeyError(f"no cone for {ctype}")
        return self.vertices[found]

    def to_json(self) -> dict:
        return {
            "A": list(self.support.points),
            "shift": [self.shift.c1, self.shift.c2],
            "d1": self.d1,
            "d2": self.d2,
            "vertices": [list(v) for v in self.vertices],
            "cones": [
                {
                    **record.ctype.to_json(),
                    "witness": record.witness.to_json(),
                    "vertex_index": record.vertex_index,
                }
                for record in self.cones
            ],
        }


def build_polytope(
    support: SupportSet,
    shift: ShiftConfig = ShiftConfig(),
    *,
    max_support_size: int = MAX_SUPPORT_SIZE,
    jobs: int | None = None,
    keys: bool = False,
) -> MorsePolytope:
    """Enumerate cones, evaluate the vertex of each, dedup, and verify.

    Vertices are ordered lexicographically; the cone table keeps the
    canonical enumeration order so the surjection stays inspectable.  With
    `keys` the cones are the drop keys' (`cones.enumerate_keys`), far fewer
    for the same vertices, and the table holds one record per key.
    """
    enumerated = (enumerate_keys if keys else enumerate_types)(
        support, max_support_size=max_support_size, jobs=jobs
    )
    raw = [mu_coeffs(support, ctype, shift) for ctype, _ in enumerated]
    vertices = tuple(sorted(set(raw)))
    index = {v: i for i, v in enumerate(vertices)}
    cones = tuple(
        ConeRecord(ctype, witness, index[vertex])
        for (ctype, witness), vertex in zip(enumerated, raw)
    )
    d1 = sum(vertices[0])
    d2 = sum(a * c for a, c in zip(support.points, vertices[0]))
    for v in vertices[1:]:
        if sum(v) != d1 or sum(a * c for a, c in zip(support.points, v)) != d2:
            raise HyperplaneViolation(
                f"vertex {v} violates the hyperplane constants d1={d1}, d2={d2}"
            )
    return MorsePolytope(support, shift, vertices, cones, d1, d2)


# --- projections ----------------------------------------------------------------


def default_axes(support: SupportSet) -> tuple[int, int]:
    """Forget the first and last coordinates where that leaves a plane."""
    n = len(support)
    return (1, n - 2) if n >= 4 else (0, 1)


def project_and_hull(
    polytope: MorsePolytope, axes: tuple[int, int] | None = None
) -> list[tuple[int, int]]:
    """Drop all but two coordinates and hull the image, counterclockwise."""
    n = len(polytope.support)
    if axes is None:
        axes = default_axes(polytope.support)
    i, j = axes
    if not (0 <= i < n and 0 <= j < n) or i == j:
        raise BadAxes(f"axes {axes} invalid for dimension {n}")
    return convex_hull_2d([(v[i], v[j]) for v in polytope.vertices])


# --- SVG rendering -----------------------------------------------------------------


# Pixels per lattice unit, and the blank border around the drawing.
_SCALE = 40
_MARGIN = 30

# Grid lines per axis before the grid coarsens from every lattice unit to
# every `step` units; it keeps huge coefficients from producing huge SVGs.
_MAX_GRID_LINES = 100


def _fmt(x) -> str:
    return f"{float(x):.3f}"


def _grid_ticks(lo, hi) -> range:
    """Grid-line coordinates in [lo, hi]: every multiple of a lattice step."""
    step = max(1, ceil((hi - lo) / _MAX_GRID_LINES))
    return range(ceil(lo / step) * step, floor(hi) + 1, step)


def render_svg(polygon) -> str:
    """Self-contained SVG for a planar polygon (vertex cycle).

    Accepts any sequence of exact-rational points; also accepts a
    FiberPolygon, in which case each horizontal base is drawn as well.
    Output bytes depend only on the input.  Raises NumberTooLarge when the
    drawing's extent in pixels is past the float range.
    """
    bases = None
    if hasattr(polygon, "vertices") and hasattr(polygon, "bases"):
        fp = polygon
        pts = fp.vertices()
        y = Fraction(0)
        bases = [(Fraction(0), fp.bases[0], y)]
        for width, h in zip(fp.bases[1:], fp.heights):
            y += h
            bases.append((Fraction(0), width, y))
    else:
        pts = [tuple(map(Fraction, p)) for p in polygon]

    xs = [p[0] for p in pts] or [Fraction(0)]
    ys = [p[1] for p in pts] or [Fraction(0)]
    x0, x1 = min(xs), max(xs)
    y0, y1 = min(ys), max(ys)
    try:
        width = float((x1 - x0) * _SCALE) + 2 * _MARGIN
        height = float((y1 - y0) * _SCALE) + 2 * _MARGIN
    except OverflowError as exc:
        raise NumberTooLarge("the drawing is too large for float coordinates") from exc

    def tx(x):
        return _fmt((x - x0) * _SCALE + _MARGIN)

    def ty(y):
        return _fmt(height - (float((y - y0) * _SCALE) + _MARGIN))

    lines = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_fmt(width)}" '
        f'height="{_fmt(height)}" viewBox="0 0 {_fmt(width)} {_fmt(height)}">',
    ]
    for gx in _grid_ticks(x0, x1):
        lines.append(
            f'<line class="grid" x1="{tx(gx)}" y1="{ty(y0)}" '
            f'x2="{tx(gx)}" y2="{ty(y1)}" stroke="#ddd" stroke-width="0.5"/>'
        )
    for gy in _grid_ticks(y0, y1):
        lines.append(
            f'<line class="grid" x1="{tx(x0)}" y1="{ty(gy)}" '
            f'x2="{tx(x1)}" y2="{ty(gy)}" stroke="#ddd" stroke-width="0.5"/>'
        )
    if len(pts) >= 2:
        path = " ".join(f"{tx(x)},{ty(y)}" for x, y in pts)
        lines.append(
            f'<polygon points="{path}" fill="#9ecbff" fill-opacity="0.45" '
            f'stroke="#1f4e8c" stroke-width="1.5"/>'
        )
    if bases is not None:
        for xa, xb, y in bases:
            lines.append(
                f'<line class="base" x1="{tx(xa)}" y1="{ty(y)}" '
                f'x2="{tx(xb)}" y2="{ty(y)}" stroke="#c34043" stroke-width="1.2"/>'
            )
    for x, y in pts:
        lines.append(
            f'<circle class="vertex" cx="{tx(x)}" cy="{ty(y)}" r="3" fill="#1f4e8c"/>'
        )
        lines.append(
            f'<text x="{tx(x)}" y="{ty(y)}" dx="5" dy="-5" font-size="10">'
            f"({rational_to_json(Fraction(x))}, {rational_to_json(Fraction(y))})"
            f"</text>"
        )
    lines.append("</svg>")
    return "\n".join(lines) + "\n"
