"""The benchmark's workloads: inputs made from a seed, passes of timed
operations, and the oracle that checks each operation outside its timer.

Every operation goes through morsekit by module attribute lookup at call
time (``morsekit.cli.main``, ``mk.extract``), so the same code
runs untraced and, once the tracer has rebound those names, traced.
"""

from __future__ import annotations

import contextlib
import importlib
import io
import json
import random
import time
import traceback
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path

EXPECTED = json.loads(Path(__file__).with_name("expected.json").read_text())

POLYTOPE_SUPPORTS = ([1, 2, 3, 4, 5, 6], [-3, -1, 1, 2, 4, 5])
QUERY_SUPPORTS = (
    [-3, -1, 1, 2, 4],
    [1, 2, 3, 4, 5, 6],
    [-5, -2, 1, 3, 4, 7],
    [-4, -3, -1, 2, 5, 6, 9],
    [1, 2, 3, 5, 7, 8, 11],
)
QUERY_BOUNDS = (50, 10**12)
VERIFY_SUPPORT = [-3, -1, 1, 2, 4]
VERIFY_SAMPLES = 200


@dataclass
class Op:
    """One timed operation: its label, times, and the oracle's verdict."""

    label: str
    start: float
    raw_seconds: float  # wall time, less the speed probe's own
    error: str | None = None
    stdout_bytes: int = 0
    info: dict = field(default_factory=dict)
    speed: float | None = None  # see speed.py; None counts as 1

    @property
    def seconds(self) -> float:
        """Time at the reference speed, see speed.py."""
        return self.raw_seconds * (1.0 if self.speed is None else self.speed)

    @property
    def ok(self) -> bool:
        return self.error is None


class Timer:
    """Times one call; with a tracer, spans are recorded only inside it.

    With a speed probe, the probe's own time is taken out of the call's.
    """

    def __init__(self, tracer=None, probe=None):
        self.tracer = tracer
        self.probe = probe
        self.labels: list[str] = []

    def run(self, label: str, fn):
        """(value, Op without a verdict) for one call of ``fn``."""
        tracer = self.tracer
        if tracer is not None:
            tracer.op = len(self.labels)
            tracer.enabled = True
        self.labels.append(label)
        spent = self.probe.spent if self.probe else 0.0
        start = time.perf_counter()
        try:
            value, error = fn(), None
        except Exception:  # any exception is a failed operation, not a crash
            value, error = None, traceback.format_exc(limit=3)
        raw = time.perf_counter() - start
        if tracer is not None:
            tracer.enabled = False
        if self.probe is not None:
            raw -= self.probe.spent - spent
        return value, Op(label, start, raw, error)


def call_cli(argv: list[str]) -> tuple[int, str]:
    """Exit code and stdout of the morsekit CLI, run in this process."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = importlib.import_module("morsekit.cli").main(argv)
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue()


# --- oracle -------------------------------------------------------------------------


def check_polytope(support: list[int], code: int, stdout: str, expected=EXPECTED) -> str | None:
    """Compare a `polytope --format json` result by vertex set and (d1, d2).

    The cone table is not compared, so an enumeration that finds coarser
    cones for the same vertices still passes.
    """
    if code != 0:
        return f"exit code {code}"
    got = json.loads(stdout)
    want = expected["polytopes"][json.dumps(support)]
    if (got["d1"], got["d2"]) != (want["d1"], want["d2"]):
        return f"(d1, d2) = {(got['d1'], got['d2'])}, want {(want['d1'], want['d2'])}"
    got_set = {tuple(v) for v in got["vertices"]}
    want_set = {tuple(v) for v in want["vertices"]}
    if len(got["vertices"]) != len(got_set) or got_set != want_set:
        return (
            f"{len(got['vertices'])} vertices; missing {sorted(want_set - got_set)[:3]}, "
            f"unexpected {sorted(got_set - want_set)[:3]}"
        )
    return None


def check_verify(code: int, stdout: str, samples: int) -> str | None:
    if code != 0:
        return f"exit code {code}"
    got = json.loads(stdout)
    if not got["ok"] or got["samples"] != samples:
        return f"verify reported ok={got['ok']} samples={got['samples']}"
    bad = [p for p in got["properties"] if p["failed"] or p["passed"] != samples]
    return f"failing properties {bad}" if bad else None


def check_query(support, gamma, answer) -> str | None:
    """Relations that hold for every Morse covector, whatever the seed."""
    import morsekit as mk

    ctype, cls, mu, fp, counts = answer
    w = ctype.w
    if not cls.is_morse:
        return f"classify says {cls.kind}"
    if mk.vol_fiber_closed(support, gamma, ctype) != fp.area():
        return "closed-form fiber area differs from the trapezoid area"
    if counts.n_a2 != mk.area_newton(support, gamma) - gamma(w[0]) - gamma(w[-1]):
        return "n_a2 != area_newton - gamma(w0) - gamma(wk)"
    if not counts.parity_ok:
        return "strata parity fails"
    if 2 * counts.n_2a1 + counts.n_a2 != mu:
        return "2 n_2a1 + n_a2 != mu"
    if list(w) != upper_hull(support.points, gamma.values):
        return f"W={list(w)} differs from the harness's hull"
    return None


# --- generic covectors, decided without the library ------------------------------


def upper_hull(points, values) -> list[int]:
    """Vertices of the upper hull of the lifted points, left to right."""
    chain: list[tuple[int, Fraction]] = []
    for pt in zip(points, values):
        while len(chain) >= 2 and (
            (chain[-1][0] - chain[-2][0]) * (pt[1] - chain[-2][1])
            - (chain[-1][1] - chain[-2][1]) * (pt[0] - chain[-2][0])
        ) >= 0:
            chain.pop()
        chain.append(pt)
    return [x for x, _ in chain]


def is_generic(points, values) -> bool:
    """Distinct slopes over all exponent pairs, distinct values at the roots.

    Distinct slopes also rule out three collinear lifted points, so this is
    the whole genericity condition `extract` needs.
    """
    slopes = set()
    for i, p in enumerate(points):
        for q, vq in zip(points[i + 1 :], values[i + 1 :]):
            slope = Fraction(vq - values[i], q - p)
            if slope in slopes:
                return False
            slopes.add(slope)
    g = dict(zip(points, values))
    w = upper_hull(points, values)
    root_values = set()
    for u, v in zip(w, w[1:]):
        r = Fraction(g[u] - g[v], v - u)
        root_values.add(u * r + g[u])
    return len(root_values) == len(w) - 1


def generic_covector(rng: random.Random, points, bound: int) -> list[int]:
    while True:
        values = [rng.randint(0, bound) for _ in points]
        if is_generic(points, values):
            return values


# --- workloads ------------------------------------------------------------------------


class PolytopeWorkload:
    """CLI `polytope --format json` on fixed supports, in a seeded order."""

    def __init__(self, supports, seed: int):
        self.supports = [list(s) for s in supports]
        random.Random(seed).shuffle(self.supports)

    def sizes(self) -> dict:
        return {"supports": self.supports, "support_sizes": [len(s) for s in self.supports]}

    def run_pass(self, timer: Timer) -> list[Op]:
        ops = []
        for support in self.supports:
            argv = ["polytope", json.dumps({"A": support}), "--format", "json"]
            result, op = timer.run(json.dumps(support), lambda: call_cli(argv))
            if result is not None:
                code, stdout = result
                op.stdout_bytes = len(stdout.encode())
                op.error = check_polytope(support, code, stdout)
                if code == 0:
                    got = json.loads(stdout)
                    op.info = {"cones": len(got["cones"]), "vertices": len(got["vertices"])}
            ops.append(op)
        return ops


class VerifyWorkload:
    """CLI `verify --samples N --seed S`; S is drawn from the run's seed."""

    def __init__(self, seed: int):
        self.rng = random.Random(seed)

    def sizes(self) -> dict:
        return {"support": VERIFY_SUPPORT, "support_size": len(VERIFY_SUPPORT),
                "samples": VERIFY_SAMPLES}

    def run_pass(self, timer: Timer) -> list[Op]:
        seed = self.rng.randrange(2**31)
        argv = ["verify", json.dumps({"A": VERIFY_SUPPORT}), "--samples",
                str(VERIFY_SAMPLES), "--seed", str(seed), "--format", "json"]
        result, op = timer.run(f"verify seed={seed}", lambda: call_cli(argv))
        if result is not None:
            code, stdout = result
            op.stdout_bytes = len(stdout.encode())
            op.error = check_verify(code, stdout, VERIFY_SAMPLES)
            if code == 0:
                got = json.loads(stdout)
                op.info = {"samples": got["samples"], "resamples": got["resamples"]}
        return [op]


def _query(support, gamma):
    import morsekit as mk

    return (
        mk.extract(support, gamma),
        mk.classify(support, gamma),
        mk.mu_value(support, gamma),
        mk.fiber_polygon(support, gamma),
        mk.strata_counts(support, gamma),
    )


class QueryWorkload:
    """Per-covector kernels through the library; a pass is one fresh generic
    covector for each (support, coefficient bound) pair, round robin."""

    def __init__(self, seed: int):
        import morsekit as mk

        self.rng = random.Random(seed)
        self.pairs = [
            (mk.validate_support(s), bound) for s in QUERY_SUPPORTS for bound in QUERY_BOUNDS
        ]

    def sizes(self) -> dict:
        return {"supports": [list(s) for s in QUERY_SUPPORTS],
                "support_sizes": [len(s) for s in QUERY_SUPPORTS],
                "coefficient_bounds": list(QUERY_BOUNDS),
                "queries_per_pass": len(self.pairs)}

    def run_pass(self, timer: Timer) -> list[Op]:
        import morsekit as mk

        ops = []
        for support, bound in self.pairs:
            values = generic_covector(self.rng, support.points, bound)
            gamma = mk.covector_from_values(support, values)
            label = f"{list(support.points)} bound={bound}"
            answer, op = timer.run(label, lambda: _query(support, gamma))
            op.info["query"] = True
            if answer is not None:
                op.error = check_query(support, gamma, answer)
            ops.append(op)
        return ops


WORKLOADS = {
    "polytope-6": lambda seed: PolytopeWorkload(POLYTOPE_SUPPORTS, seed),
    "covector-queries": QueryWorkload,
    "verify-dual": VerifyWorkload,
}
