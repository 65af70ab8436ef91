"""morsekit benchmark: one workload per run, timed or traced.

    python3 bench/run.py --workload polytope-6 --seed 1 --seconds 20 --trace 0

Runs passes of the workload's operations until ``--seconds`` have gone by
(at least one pass), checks every operation's output outside its timer,
writes a result file under ``bench/out/`` and prints, as its last line, one
JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``.
With ``--trace 0`` the metrics are the end-to-end ones, measured with no
tracing installed.  With ``--trace 1`` untraced and traced passes alternate,
and the metrics are the per-layer ones read off the spans.  See
bench/README.md.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"

SETUP_RUNS = 20
# A fresh interpreter that imports a fixed set of stdlib modules, run next to
# each set-up interpreter to measure the machine's speed at start-up work.
# It took about this long on the 2-core box the README's baseline comes from.
REFERENCE_SETUP = ("import argparse, decimal, email.message, http.client, logging,"
                   " statistics, unittest, xml.dom.minidom")
REFERENCE_SETUP_S = 0.1

sys.path.insert(0, str(BENCH))
import speed  # noqa: E402
import workloads  # noqa: E402
from tracer import Tracer  # noqa: E402


def _import_morsekit():
    if not (SRC / "morsekit" / "__init__.py").is_file():
        sys.exit(f"error: no morsekit sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import morsekit

    if Path(morsekit.__file__).resolve().parent != SRC / "morsekit":
        sys.exit(f"error: imported morsekit from {morsekit.__file__}, not {SRC}")


def _git(*args) -> str | None:
    try:
        return subprocess.run(
            ["git", *args], cwd=ROOT, capture_output=True, text=True, check=True, timeout=30
        ).stdout
    except (OSError, subprocess.SubprocessError):
        return None


def metadata(args, workload) -> dict:
    sha = _git("rev-parse", "HEAD")
    status = _git("status", "--porcelain") if sha else None
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "git_sha": sha.strip() if sha else None,
        "git_dirty": bool(status.strip()) if status is not None else None,
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "platform": platform.platform(),
        "inputs": workload.sizes(),
    }


# --- set-up time ------------------------------------------------------------------------


def setup_ops(expected: dict) -> list:
    """A fresh interpreter imports morsekit and answers the README `extract`
    example: one warm-up run, which writes the bytecode cache, then
    SETUP_RUNS timed ones.

    Start-up work (reading and running module code) slows down under
    neighbour load by another factor than the speed probe's arithmetic.  So
    each set-up interpreter is paired with a reference interpreter started
    right after it, REFERENCE_SETUP, and its time is scaled by
    REFERENCE_SETUP_S / (the reference's time).
    """
    code = "; ".join([
        "import json, morsekit as mk",
        f"A = mk.validate_support({expected['A']})",
        f"g = mk.covector_from_values(A, {expected['gamma']})",
        "print(json.dumps(mk.extract(A, g).to_json()))",
    ])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (str(SRC), os.environ.get("PYTHONPATH")) if p))

    def interpreter(source):
        return subprocess.run([sys.executable, "-c", source], cwd=ROOT, env=env,
                              capture_output=True, text=True, timeout=120)

    timer = workloads.Timer()
    ops = []
    for _ in range(SETUP_RUNS + 1):
        proc, op = timer.run("set-up", lambda: interpreter(code))
        start = time.perf_counter()
        reference = interpreter(REFERENCE_SETUP)
        op.speed = REFERENCE_SETUP_S / (time.perf_counter() - start)
        if proc is not None and proc.returncode != 0:
            op.error = f"exit code {proc.returncode}: {proc.stderr[-300:]}"
        elif proc is not None and json.loads(proc.stdout) != expected["type"]:
            op.error = f"answered {proc.stdout.strip()}"
        elif reference.returncode != 0:
            op.error = f"reference interpreter failed: {reference.stderr[-300:]}"
        ops.append(op)
    return ops


# --- passes -------------------------------------------------------------------------------


def run_passes(workload, seconds: float, probe=None):
    """Untraced passes until `seconds` have gone by, at least one."""
    timer = workloads.Timer(probe=probe)
    passes = []
    start = time.perf_counter()
    while not passes or time.perf_counter() - start < seconds:
        passes.append(workload.run_pass(timer))
    return passes


def traced_passes(workload, tracer, seconds: float, probe=None):
    """Untraced and traced passes in turn until `seconds` have gone by.

    Alternating puts a slow spell of the machine on both sides of the
    tracing-overhead ratio alike.  The tracer is installed only around the
    traced passes.
    """
    plain, timer = workloads.Timer(probe=probe), workloads.Timer(tracer, probe)
    untraced, traced = [], []
    start = time.perf_counter()
    while not traced or time.perf_counter() - start < seconds:
        untraced.append(workload.run_pass(plain))
        tracer.install()
        try:
            traced.append(workload.run_pass(timer))
        finally:
            tracer.uninstall()
    return untraced, traced, timer


def pass_seconds(passes) -> list[float]:
    return [sum(op.seconds for op in ops) for ops in passes]


def nearest_rank(values, q: float) -> float:
    ordered = sorted(values)
    return ordered[max(0, math.ceil(len(ordered) * q) - 1)]


def tail_quantile(n: int) -> float:
    """The highest of p99, p90 and p50 with at least ten samples beyond it."""
    return next((q for q in (0.99, 0.9) if n * (1 - q) >= 10), 0.5)


def tail(values) -> float:
    q = tail_quantile(len(values))
    return nearest_rank(values, q) if q > 0.5 else statistics.median(values)


def peak_rss_mb() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024


def end_to_end(passes, setup, raw: bool = False) -> dict:
    """The end-to-end metrics, from scaled times or, with `raw`, wall times."""
    key = "raw_seconds" if raw else "seconds"
    latencies = [getattr(op, key) for ops in passes for op in ops]
    return {
        "setup_s": (statistics.median(getattr(op, key) for op in setup[1:]), "s"),
        "op_p50_ms": (1e3 * statistics.median(latencies), "ms"),
        "op_tail_ms": (1e3 * tail(latencies), "ms"),
        "ops_per_s": (len(latencies) / sum(latencies), "1/s"),
        "peak_rss_mb": (peak_rss_mb(), "MB"),
    }


def named(workload_name: str, passes, metrics: dict) -> dict:
    """This workload's figures under the names the ROADMAP uses."""
    if workload_name == "polytope-6":
        return {"polytope_s": statistics.median(pass_seconds(passes))}
    if workload_name == "verify-dual":
        return {"verify_s": statistics.median(pass_seconds(passes))}
    return {
        "queries_per_s": metrics["ops_per_s"][0],
        "query_p50_ms": metrics["op_p50_ms"][0],
        "query_p99_ms": metrics["op_tail_ms"][0],
    }


# --- per-layer metrics from a traced run ---------------------------------------------------


def per_layer(tracer, traced, untraced) -> dict:
    s = tracer.summary()
    n = len(traced)
    ops = [op for p in traced for op in p]
    queries = sum(1 for op in ops if op.info.get("query"))

    def calls(name):
        return s.get(name, {}).get("calls", 0)

    def us_per_call(name):
        return 1e6 * s[name]["total_s"] / s[name]["calls"] if calls(name) else 0.0

    def total(name):
        return s.get(name, {}).get("total_s", 0.0)

    def per_query(name):
        return calls(name) / queries if queries else 0.0

    solves = calls("cones.feasible")
    extensions = calls("cones.StrictSystem.extended")
    subdivisions = calls("cones._subdivision_types")
    leaves = calls("cones._genericize")
    genericize_extracts = tracer.children("cones._genericize", "tropical.extract")[0]
    samples = sum(op.info.get("samples", 0) for op in ops)
    resamples = sum(op.info.get("resamples", 0) for op in ops)
    untraced_s = statistics.median(pass_seconds(untraced))
    return {
        "cones.feasible.calls": (solves / n, "count"),
        "cones.feasible.self_s": (s.get("cones.feasible", {}).get("self_s", 0.0) / n, "s"),
        "cones.extensions": (extensions / n, "count"),
        "cones.witness_reuse_ratio": (
            1 - (solves - subdivisions) / extensions if extensions else 0.0, "ratio"),
        "cones.leaves": (leaves / n, "count"),
        "cones.genericize.extract_calls": (genericize_extracts / n, "count"),
        "cones.genericize.retries": ((genericize_extracts - leaves) / n, "count"),
        "cones.enumerate_s": (total("cones.enumerate_types") / n, "s"),
        "polytope.build_s": (total("polytope.build_polytope") / n, "s"),
        "polytope.assemble_s": (
            (total("polytope.build_polytope")
             - tracer.children("polytope.build_polytope", "cones.enumerate_types")[1]) / n,
            "s"),
        "polytope.vertices": (sum(op.info.get("vertices", 0) for op in ops) / n, "count"),
        "polytope.vertex_of.us_per_call": (us_per_call("polytope.MorsePolytope.vertex_of"), "us"),
        "support_function.mu_coeffs.calls": (calls("support_function.mu_coeffs") / n, "count"),
        "support_function.mu_coeffs.us_per_call": (us_per_call("support_function.mu_coeffs"), "us"),
        "support_function.mu_value.us_per_call": (us_per_call("support_function.mu_value"), "us"),
        "singularity.c_coeffs.calls": (calls("singularity.c_coeffs") / n, "count"),
        "singularity.c_value.us_per_call": (us_per_call("singularity.c_value"), "us"),
        "singularity.level_scan.us_per_call": (us_per_call("singularity.level_scan"), "us"),
        "tropical.extract.calls_per_query": (per_query("tropical.extract"), "count"),
        "tropical.extract.us_per_call": (us_per_call("tropical.extract"), "us"),
        "tropical.check_slopes.us_per_call": (us_per_call("tropical.check_slopes"), "us"),
        "tropical.classify.us_per_call": (us_per_call("tropical.classify"), "us"),
        "fiber.fiber_polygon.us_per_call": (us_per_call("fiber.fiber_polygon"), "us"),
        "fiber.strata_counts.us_per_call": (us_per_call("fiber.strata_counts"), "us"),
        "fiber.area_newton.calls_per_query": (per_query("fiber.area_newton"), "count"),
        "verify.suite_s": (
            (total("verify.run_property_suite")
             - tracer.children("verify.run_property_suite", "polytope.build_polytope")[1]) / n,
            "s"),
        "verify.sample_yield": (samples / (samples + resamples) if samples else 0.0, "ratio"),
        "cli.encode_s": (
            sum(row["self_s"] for name, row in s.items() if name.startswith("cli.")) / n, "s"),
        "cli.stdout_bytes": (sum(op.stdout_bytes for op in ops) / n, "bytes"),
        "trace.overhead": (statistics.median(pass_seconds(traced)) / untraced_s, "ratio"),
    }


def per_op_counts(tracer, timer) -> dict:
    """Exact counters for each CLI operation of the traced passes."""
    keep = ("cones.feasible", "cones.StrictSystem.extended", "cones._genericize",
            "tropical.extract", "support_function.mu_coeffs")
    out = {}
    for op_id, label in enumerate(timer.labels):
        rows = tracer.summary(ops={op_id})
        out.setdefault(label, []).append({name: rows.get(name, {}).get("calls", 0)
                                          for name in keep})
    return out


# --- main ---------------------------------------------------------------------------------


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    _import_morsekit()
    workload = workloads.WORKLOADS[args.workload](args.seed)
    result = {"meta": metadata(args, workload)}
    setup = [] if args.trace else setup_ops(workloads.EXPECTED["readme_extract"])
    probe = speed.SpeedProbe().start()
    try:
        if args.trace:
            tracer = Tracer()
            untraced, traced, timer = traced_passes(workload, tracer, args.seconds, probe)
            passes = untraced + traced
        else:
            passes = timed = run_passes(workload, args.seconds, probe)
    finally:
        probe.stop()
    probe.rescale(op for p in passes for op in p)
    passes = [setup] + passes
    ops = [op for p in passes for op in p]

    if args.trace:
        metrics = per_layer(tracer, traced, untraced)
        result["spans"] = tracer.summary()
        if isinstance(workload, workloads.PolytopeWorkload):
            result["per_op"] = per_op_counts(tracer, timer)
        OUT.mkdir(exist_ok=True)
        tracer.write(OUT / f"{args.workload}-seed{args.seed}-spans.jsonl.gz", timer.labels)
    else:
        metrics = end_to_end(timed, setup)
        result["named"] = named(args.workload, timed, metrics)
        result["ops_timed"] = sum(len(p) for p in timed)
        result["tail_quantile"] = tail_quantile(result["ops_timed"])
        result["raw"] = {
            name: value for name, (value, _) in end_to_end(timed, setup, raw=True).items()
        }

    errors = [f"{op.label}: {op.error}" for op in ops if not op.ok]
    line = {
        "correct": not errors,
        "attempted": len(ops),
        "failed": len(errors),
        "metrics": {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()},
    }
    result.update(line)
    result["failed_ops"] = len(errors) / len(ops)
    result["passes"] = len(passes) - 1  # not counting the set-up runs
    result["errors"] = errors[:20]
    result["speed_ratio"] = {
        "samples": len(probe.ratios),
        "median": statistics.median(probe.ratios),
        "min": min(probe.ratios),
        "max": max(probe.ratios),
    }
    OUT.mkdir(exist_ok=True)
    out_file = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out_file.write_text(json.dumps(result, indent=1, sort_keys=True) + "\n")
    for error in errors[:5]:
        print(f"FAILED {error}", file=sys.stderr)
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
